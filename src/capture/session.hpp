// Functional capture session: frames in, pcap out.
//
// This is the path Patchwork's sampling phase drives for every sample
// window (Fig. 8). Whatever the method, the output is a pcap byte stream
// plus accounting of where frames went: excluded by the filter, thinned by
// 1-in-N sampling, or lost to the capture path's capacity limit. Capacity
// loss is computed from the host cost models, so a 100G mirror into a
// 2-core tcpdump really does lose most of its frames here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "capture/config.hpp"
#include "capture/fpga_pipeline.hpp"
#include "host/host_system.hpp"
#include "net/frame_store.hpp"
#include "pcap/pcap.hpp"
#include "util/rng.hpp"

namespace patchwork::capture {

struct CaptureStats {
  std::uint64_t offered = 0;
  std::uint64_t dropped_capacity = 0;  ///< Lost before/inside the host path.
  std::uint64_t filtered_out = 0;
  std::uint64_t sampled_out = 0;
  std::uint64_t captured = 0;
  std::uint64_t bytes_stored = 0;
  double capacity_pps = 0.0;
  double offered_pps = 0.0;

  double loss_fraction() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(dropped_capacity) /
                              static_cast<double>(offered);
  }
};

struct CaptureResult {
  std::vector<std::uint8_t> pcap;
  CaptureStats stats;
};

class CaptureSession {
 public:
  CaptureSession(CaptureConfig config, host::HostSpec host, util::Rng& rng)
      : config_(std::move(config)), host_(host), rng_(rng) {}

  /// Capture one sample window. `frames` are the frames the mirror
  /// delivered to the NIC during the window; `offered_pps` is the true
  /// arrival rate they represent (the frame list may be a scaled-down
  /// packet-level rendering of a much faster stream). This is the primary
  /// zero-copy path: views alias the synthesis arena and surviving bytes
  /// are serialized straight into the pcap stream, edited in place.
  CaptureResult run(std::span<const net::FrameView> frames,
                    double offered_pps);

  const CaptureConfig& config() const { return config_; }

  /// Capacity (frames/s) of the configured method for a given mean wire
  /// frame size.
  double capacity_pps(double mean_wire_bytes) const;

 private:
  CaptureConfig config_;
  host::HostSpec host_;
  util::Rng& rng_;
};

}  // namespace patchwork::capture
