// Shared profile-gathering step for the data-plane figure benches
// (Figs. 11, 12, 13, 15): run Patchwork in all-experiment mode across the
// simulated federation, digest the captures and analyze them, exactly the
// paper's pipeline.
#pragma once

#include <iostream>

#include "analysis/pipeline.hpp"
#include "bench_util.hpp"
#include "core/coordinator.hpp"

namespace patchwork::bench {

struct GatheredProfile {
  core::ProfileRun run;
  analysis::DigestedProfile digested;
  analysis::ProfileAnalysis analysis;
};

inline GatheredProfile gather_testbed_profile(BenchWorld& world,
                                              std::uint32_t cycles = 4,
                                              std::uint32_t samples = 3,
                                              std::size_t max_frames = 3000) {
  world.warm_up_telemetry();
  core::ProfilerConfig config;
  config.plan.cycles = cycles;
  config.plan.samples_per_run = samples;
  config.plan.max_frames_per_sample = max_frames;
  config.plan.sample_duration = 20 * util::kSecond;  // Paper's samples.
  config.crash_probability = 0.0;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  config.capture.snaplen = 200;  // Paper: first 200 bytes per frame.
  core::Coordinator coordinator(world.env, config);
  GatheredProfile out;
  out.run = coordinator.run_all_experiment();
  out.digested = analysis::digest_profile(out.run.captures);
  out.analysis = analysis::analyze(out.digested.files);
  std::cout << "[profile] " << out.run.captures.size() << " samples from "
            << out.run.reports.size() << " sites, "
            << out.digested.stats.frames << " frames digested\n\n";
  return out;
}

}  // namespace patchwork::bench
