// FPGA NIC offload pipeline.
//
// Models the P4 program Patchwork compiles to Alveo FPGA NICs (via the
// ESnet smartNIC framework): a line-rate match-action pipeline that
// performs "sampling, truncation, filtering, and pre-processing"
// (Section 6.2.1) before frames ever reach the host. Functionally the
// stages are exact (the host receives precisely the edited bytes);
// performance-wise the pipeline runs at line rate, which is what removes
// the per-wire-byte host cost in the DPDK capacity model.
#pragma once

#include <cstdint>
#include <span>

#include "capture/anonymize.hpp"
#include "capture/config.hpp"
#include "net/frame_store.hpp"
#include "net/parser.hpp"

namespace patchwork::capture {

struct PipelineStats {
  std::uint64_t seen = 0;
  std::uint64_t filtered_out = 0;
  std::uint64_t sampled_out = 0;
  std::uint64_t emitted = 0;
};

class FpgaPipeline {
 public:
  explicit FpgaPipeline(const CaptureConfig& config)
      : config_(config), anonymizer_(config.anonymize_key) {}

  /// The drop decision: filter -> 1-in-N sample. Counts
  /// filtered_out/sampled_out and advances the sampler. Dissects the frame
  /// only if the filter reads it (not for the match-all filter).
  bool admit(const net::FrameView& view);

  /// The edit, for a frame admit() accepted: anonymizes `bytes` in place
  /// (they must already be truncated to snaplen, e.g. the record slice the
  /// pcap writer returned) and counts the emission. Dissection uses
  /// `wire_length`/`timestamp`, so rewrite offsets stay in bounds of the
  /// truncated bytes.
  void edit_in_place(std::span<std::uint8_t> bytes, std::size_t wire_length,
                     util::Nanos timestamp);

  const PipelineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PipelineStats{}; }

 private:
  const CaptureConfig& config_;
  Anonymizer anonymizer_;
  PipelineStats stats_;
  std::uint64_t sample_counter_ = 0;
};

}  // namespace patchwork::capture
