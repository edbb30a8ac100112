// Serial vs. parallel offline pipeline (Fig. 9: Digest -> Index -> Analyze
// -> Process) over a synthetic multi-site profile.
//
// Measures digest+analyze throughput with PATCHWORK_THREADS=0 (the serial
// fallback) against the pooled path at several worker counts, verifies the
// outputs are byte-identical, and prints a JSON summary suitable for
// recording as BENCH_parallel_pipeline.json.
//
// Build & run:  ./build/bench/bench_parallel_pipeline
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.hpp"
#include "bench_util.hpp"
#include "net/frame_builder.hpp"
#include "pcap/pcap.hpp"
#include "util/parallel.hpp"

namespace {

using namespace patchwork;

constexpr int kSites = 8;
constexpr int kSamplesPerSite = 3;
constexpr int kFramesPerSample = 1500;
constexpr int kReps = 5;

net::Frame profile_frame(int site, int f) {
  const auto a = static_cast<std::uint8_t>(1 + (f + site) % 6);
  const auto b = static_cast<std::uint8_t>(7 + f % 5);
  net::FrameBuilder builder;
  builder
      .ethernet(net::MacAddress::from_id(a), net::MacAddress::from_id(b))
      .vlan(static_cast<std::uint16_t>(100 + site))
      .mpls(static_cast<std::uint32_t>(16000 + site))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, a),
            net::Ipv4Address::from_octets(10, 0, 0, b))
      .tcp(static_cast<std::uint16_t>(1000 + f % 17),
           static_cast<std::uint16_t>(f % 2 ? 443 : 5201))
      .payload(4)
      .pad_to(64 + static_cast<std::size_t>((f * 97) % 1800));
  return builder.build(static_cast<util::Nanos>(f) * util::kMillisecond);
}

std::vector<analysis::RawCapture> synthetic_profile() {
  std::vector<analysis::RawCapture> captures;
  for (int site = 0; site < kSites; ++site) {
    for (int sample = 0; sample < kSamplesPerSite; ++sample) {
      pcap::PcapWriter writer(200);
      for (int f = 0; f < kFramesPerSample; ++f) {
        const net::Frame frame = profile_frame(site, f + sample * 31);
        writer.write_record(frame.bytes(), frame.wire_length(),
                            frame.timestamp());
      }
      analysis::RawCapture raw;
      raw.site = "S" + std::to_string(site);
      raw.port = static_cast<std::uint32_t>(sample);
      raw.start = sample * 10 * util::kMinute;
      raw.duration = 20 * util::kSecond;
      raw.pcap = writer.take_buffer();
      captures.push_back(std::move(raw));
    }
  }
  return captures;
}

/// Best-of-kReps wall time for one full run_pipeline() pass, in ms.
double time_pipeline_ms(const std::vector<analysis::RawCapture>& captures,
                        analysis::ProfileReport* out) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    analysis::ProfileReport report = analysis::run_pipeline(captures);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best) best = ms;
    if (out) *out = std::move(report);
  }
  return best;
}

bool reports_identical(const analysis::ProfileReport& a,
                       const analysis::ProfileReport& b) {
  if (a.digest_stats.frames != b.digest_stats.frames) return false;
  if (a.distinct_flows != b.distinct_flows) return false;
  if (a.csv_files.size() != b.csv_files.size()) return false;
  for (const auto& [name, bytes] : a.csv_files) {
    const auto it = b.csv_files.find(name);
    if (it == b.csv_files.end() || it->second != bytes) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::banner("Parallel analysis pipeline: serial vs. pooled",
                "Section 6.2.4 offline phase, multi-core fan-out");

  const std::vector<analysis::RawCapture> captures = synthetic_profile();
  const std::uint64_t total_frames =
      captures.size() * static_cast<std::uint64_t>(kFramesPerSample);

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "profile: " << captures.size() << " samples, " << total_frames
            << " frames; host reports " << hw << " hardware thread(s)\n\n";

  util::set_thread_count(0);
  analysis::ProfileReport serial_report;
  const double serial_ms = time_pipeline_ms(captures, &serial_report);
  const double serial_fps = static_cast<double>(total_frames) / serial_ms * 1e3;
  std::cout << "serial   :  " << serial_ms << " ms  ("
            << static_cast<std::uint64_t>(serial_fps) << " frames/s)\n";

  std::vector<std::size_t> counts{1, 2, 4, 8};
  std::string rows;
  bool all_identical = true;
  double best_parallel_ms = serial_ms;
  std::size_t best_threads = 0;
  double speedup_at_4 = 0.0;
  for (std::size_t threads : counts) {
    util::set_thread_count(threads);
    analysis::ProfileReport report;
    const double ms = time_pipeline_ms(captures, &report);
    const bool identical = reports_identical(serial_report, report);
    all_identical = all_identical && identical;
    if (ms < best_parallel_ms) {
      best_parallel_ms = ms;
      best_threads = threads;
    }
    if (threads == 4) speedup_at_4 = serial_ms / ms;
    std::cout << "workers=" << threads << ":  " << ms << " ms  (speedup "
              << serial_ms / ms << "x, output "
              << (identical ? "identical" : "DIFFERS") << ")\n";
    if (!rows.empty()) rows += ",\n";
    rows += "    {\"workers\": " + std::to_string(threads) +
            ", \"ms\": " + std::to_string(ms) +
            ", \"speedup\": " + std::to_string(serial_ms / ms) +
            ", \"identical\": " + (identical ? "true" : "false") + "}";
  }
  util::set_thread_count(std::nullopt);

  // Shared bench-JSON schema (see BENCH_*.json): speedups are only judged
  // where the host can actually run 4 workers.
  const bool judged = hw >= 4;
  std::cout << "\nbest: workers=" << best_threads << " at "
            << serial_ms / best_parallel_ms << "x over serial\n"
            << (all_identical ? "PASS: all outputs byte-identical\n"
                              : "FAIL: parallel output diverged\n");
  if (!judged) {
    std::cout << "SKIP: speedup not judged (" << hw
              << " hardware thread(s) < 4)\n";
  }

  const std::string note =
      judged ? "Recorded with 4+ hardware threads; speedups are meaningful."
             : "Recorded on a <4-hardware-thread host: ratios measure "
               "scheduling overhead only. Re-record on real hardware with "
               "./build/bench/bench_parallel_pipeline.";
  std::cout << "\nJSON:\n"
            << "{\n"
            << "  \"bench\": \"parallel_pipeline\",\n"
            << "  \"note\": \"" << note << "\",\n"
            << "  \"samples\": " << captures.size() << ",\n"
            << "  \"frames\": " << total_frames << ",\n"
            << "  \"hardware_threads\": " << hw << ",\n"
            << "  \"serial_ms\": " << serial_ms << ",\n"
            << "  \"serial_frames_per_sec\": " << serial_fps << ",\n"
            << "  \"runs\": [\n"
            << rows << "\n  ],\n"
            << "  \"best_speedup\": " << serial_ms / best_parallel_ms << ",\n"
            << "  \"speedup_at_4\": " << speedup_at_4 << ",\n"
            << "  \"speedup_judged\": " << (judged ? "true" : "false") << ",\n"
            << "  \"outputs_identical\": " << (all_identical ? "true" : "false")
            << "\n}\n";
  return all_identical ? 0 : 1;
}
