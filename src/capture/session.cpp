#include "capture/session.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace patchwork::capture {

namespace {

// Cached handles: registered once, updated lock-free per sample window.
// All are deterministic-class — frame counts are per-frame sums and the
// ring high-water is a max-fold, both schedule-independent.
struct CaptureMetrics {
  obs::Counter& offered = obs::registry().counter(
      "patchwork_capture_frames_total", "Frames handled by capture sessions",
      {{"disposition", "offered"}});
  obs::Counter& captured = obs::registry().counter(
      "patchwork_capture_frames_total", "Frames handled by capture sessions",
      {{"disposition", "captured"}});
  obs::Counter& dropped_ring = obs::registry().counter(
      "patchwork_capture_dropped_frames_total",
      "Frames lost inside capture sessions, by cause",
      {{"cause", "ring_capacity"}});
  obs::Counter& dropped_filter = obs::registry().counter(
      "patchwork_capture_dropped_frames_total",
      "Frames lost inside capture sessions, by cause", {{"cause", "filter"}});
  obs::Counter& dropped_sampler = obs::registry().counter(
      "patchwork_capture_dropped_frames_total",
      "Frames lost inside capture sessions, by cause",
      {{"cause", "sampler"}});
  obs::LatencyHistogram& burst_frames = obs::registry().histogram(
      "patchwork_capture_burst_frames",
      "Frames delivered to a session per sample window");
  obs::Gauge& ring_high_water = obs::registry().gauge(
      "patchwork_capture_ring_occupancy_high_water_frames",
      "Worst modeled capture-ring backlog across all sessions (frames)");
};

CaptureMetrics& capture_metrics() {
  static CaptureMetrics m;
  return m;
}

}  // namespace

std::string_view to_string(CaptureMethod m) {
  switch (m) {
    case CaptureMethod::kTcpdump: return "tcpdump";
    case CaptureMethod::kDpdk: return "dpdk";
    case CaptureMethod::kFpgaDpdk: return "fpga+dpdk";
  }
  return "?";
}

double CaptureSession::capacity_pps(double mean_wire_bytes) const {
  const std::size_t wire = static_cast<std::size_t>(mean_wire_bytes);
  switch (config_.method) {
    case CaptureMethod::kTcpdump:
      // tcpdump is single-threaded regardless of the VM's core count.
      return host_.kernel_capacity_pps(wire, config_.snaplen);
    case CaptureMethod::kDpdk:
      return host_.dpdk_capacity_pps(config_.cores, config_.snaplen, wire,
                                     /*fpga_offload=*/false);
    case CaptureMethod::kFpgaDpdk:
      return host_.dpdk_capacity_pps(config_.cores, config_.snaplen, wire,
                                     /*fpga_offload=*/true);
  }
  return 0.0;
}

CaptureResult CaptureSession::run(std::span<const net::Frame> frames,
                                  double offered_pps) {
  // Borrow each frame's bytes as a view; the primary path never copies.
  std::vector<net::FrameView> views;
  views.reserve(frames.size());
  for (const net::Frame& f : frames) {
    views.push_back(net::FrameView{f.bytes(), f.wire_length(), f.timestamp()});
  }
  return run(std::span<const net::FrameView>(views), offered_pps);
}

CaptureResult CaptureSession::run(std::span<const net::FrameView> frames,
                                  double offered_pps) {
  CaptureResult result;
  CaptureStats& stats = result.stats;
  stats.offered = frames.size();
  stats.offered_pps = offered_pps;

  double mean_wire = 0.0;
  for (const net::FrameView& f : frames) {
    mean_wire += static_cast<double>(f.wire_length);
  }
  if (!frames.empty()) mean_wire /= static_cast<double>(frames.size());
  stats.capacity_pps = capacity_pps(std::max(64.0, mean_wire));

  FpgaPipeline pipeline(config_);
  pcap::PcapWriter writer(config_.snaplen);

  // With FPGA offload, filtering and sampling happen on the NIC at line
  // rate, so the host only sees the surviving stream; otherwise every
  // offered frame consumes host capacity *before* filtering.
  const bool offload = config_.method == CaptureMethod::kFpgaDpdk;

  // Host-capacity survival probability for frames that consume host
  // capacity. Applied per frame so timing structure is preserved.
  auto survives_host = [&](double rate_pps) {
    if (rate_pps <= stats.capacity_pps) return true;
    return rng_.chance(stats.capacity_pps / rate_pps);
  };

  // Effective host arrival rate under offload: the filter/sampler thins
  // the stream on the NIC first. Measured by the filter stage below.
  double pass_fraction = 1.0;

  // The inner loop, staged so each phase is observable as one span per
  // sample window. Stage order matches the data path of each method —
  // offload filters on the NIC before frames reach the host ring, the
  // kernel path drains the ring before the filter runs — and every stage
  // preserves per-frame order, so drop decisions, RNG draws, and the
  // written pcap are byte-identical to the fused loop this replaces.
  std::vector<const net::FrameView*> admitted;
  admitted.reserve(frames.size());
  if (offload) {
    {
      // NIC-side filter/sample at line rate.
      OBS_SPAN("session/filter");
      for (const net::FrameView& frame : frames) {
        if (pipeline.admit(frame)) admitted.push_back(&frame);
      }
    }
    // The fraction of the offered frames the filter passed, thinned by the
    // sampler's 1-in-N.
    const PipelineStats& nic = pipeline.stats();
    if (!frames.empty()) {
      pass_fraction = static_cast<double>(nic.seen - nic.filtered_out) /
                      static_cast<double>(frames.size());
    }
    if (config_.sample_1_in_n > 1) {
      pass_fraction /= static_cast<double>(config_.sample_1_in_n);
    }
    {
      // Host capacity on the thinned stream.
      OBS_SPAN("session/drain");
      std::size_t kept = 0;
      for (const net::FrameView* frame : admitted) {
        if (survives_host(offered_pps * pass_fraction)) {
          admitted[kept++] = frame;
        } else {
          ++stats.dropped_capacity;
        }
      }
      admitted.resize(kept);
    }
  } else {
    std::vector<const net::FrameView*> drained;
    drained.reserve(frames.size());
    {
      // Frames hit the host first; capacity loss precedes the filter.
      OBS_SPAN("session/drain");
      for (const net::FrameView& frame : frames) {
        if (survives_host(offered_pps)) {
          drained.push_back(&frame);
        } else {
          ++stats.dropped_capacity;
        }
      }
    }
    {
      OBS_SPAN("session/filter");
      for (const net::FrameView* frame : drained) {
        if (pipeline.admit(*frame)) admitted.push_back(frame);
      }
    }
  }
  {
    // Serialize the survivors straight into the pcap stream (the writer
    // truncates to snaplen as it slices), then anonymize each record's
    // bytes where they landed — zero intermediate Frame copies.
    OBS_SPAN("session/anonymize");
    for (const net::FrameView* frame : admitted) {
      std::span<std::uint8_t> record = writer.write_record(
          frame->bytes, frame->wire_length, frame->timestamp);
      pipeline.edit_in_place(record, frame->wire_length, frame->timestamp);
      ++stats.captured;
    }
  }
  stats.filtered_out = pipeline.stats().filtered_out;
  stats.sampled_out = pipeline.stats().sampled_out;
  stats.bytes_stored = writer.bytes_written();
  result.pcap = writer.take_buffer();

  CaptureMetrics& metrics = capture_metrics();
  metrics.offered.add(stats.offered);
  metrics.captured.add(stats.captured);
  if (stats.dropped_capacity > 0) {
    metrics.dropped_ring.add(stats.dropped_capacity);
  }
  if (stats.filtered_out > 0) metrics.dropped_filter.add(stats.filtered_out);
  if (stats.sampled_out > 0) metrics.dropped_sampler.add(stats.sampled_out);
  metrics.burst_frames.observe(stats.offered);

  // Modeled ring occupancy: frames that arrive above drain capacity pile up
  // in the RX ring (DPDK rx_queue_depth) or the kernel capture buffer
  // (tcpdump_buffer_bytes worth of snapped records) until it clips. A pure
  // function of config + offered load, so the max-fold stays deterministic.
  if (offered_pps > 0.0 && stats.offered > 0) {
    const double ring_slots =
        config_.method == CaptureMethod::kTcpdump
            ? static_cast<double>(config_.tcpdump_buffer_bytes) /
                  static_cast<double>(config_.snaplen +
                                      pcap::kRecordHeaderSize)
            : static_cast<double>(config_.rx_queue_depth);
    const double window_secs =
        static_cast<double>(stats.offered) / offered_pps;
    const double host_pps = offload ? offered_pps * pass_fraction
                                    : offered_pps;
    const double backlog =
        std::max(0.0, host_pps - stats.capacity_pps) * window_secs;
    metrics.ring_high_water.observe_max(std::min(ring_slots, backlog));
  }
  return result;
}

}  // namespace patchwork::capture
