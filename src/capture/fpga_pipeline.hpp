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
#include <optional>
#include <span>

#include "capture/anonymize.hpp"
#include "capture/config.hpp"
#include "net/frame_store.hpp"
#include "net/packet.hpp"
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

  /// Run one frame through filter -> 1-in-N sample -> truncate ->
  /// anonymize. Returns the edited frame, or nullopt if dropped by the
  /// filter or sampler. Equivalent to admit() followed by edit().
  std::optional<net::Frame> process(const net::Frame& frame);

  /// The drop decision alone: filter -> 1-in-N sample. Counts
  /// filtered_out/sampled_out; advances the sampler exactly as process()
  /// would, so per-stage callers see identical admissions. Dissects the
  /// frame only if the filter reads it (not for the match-all filter).
  bool admit(const net::FrameView& view);

  /// Owning-frame convenience overload; forwards to the view overload.
  bool admit(const net::Frame& frame);

  /// The edit alone: truncate -> anonymize, for a frame admit() accepted.
  net::Frame edit(const net::Frame& frame);

  /// Zero-copy edit: anonymizes `bytes` in place (they must already be
  /// truncated to snaplen, e.g. a record slice the pcap writer returned)
  /// and counts the emission. Dissection uses `wire_length`/`timestamp` so
  /// offsets match what edit() would have produced.
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
