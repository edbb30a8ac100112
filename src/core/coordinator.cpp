#include "core/coordinator.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/scrape_server.hpp"
#include "obs/span.hpp"
#include "util/compress.hpp"
#include "util/parallel.hpp"

namespace patchwork::core {

Coordinator::Coordinator(Environment& env, ProfilerConfig config)
    : env_(env), config_(std::move(config)) {}

std::size_t ProfileRun::outcome_count(RunOutcome o) const {
  return static_cast<std::size_t>(
      std::count_if(reports.begin(), reports.end(),
                    [o](const SiteRunReport& r) { return r.outcome == o; }));
}

double ProfileRun::success_fraction() const {
  if (reports.empty()) return 0.0;
  const std::size_t good = outcome_count(RunOutcome::kSuccess) +
                           outcome_count(RunOutcome::kDegraded);
  return static_cast<double>(good) / static_cast<double>(reports.size());
}

ProfileRun Coordinator::run_all_experiment() {
  std::vector<testbed::SiteId> sites;
  for (testbed::SiteId id : env_.federation().site_ids()) {
    if (env_.federation().site(id).teaching_only()) continue;
    sites.push_back(id);
  }
  return run_sites(sites, ProfileMode::kAllExperiment, nullptr);
}

ProfileRun Coordinator::run_on_sites(
    const std::vector<testbed::SiteId>& sites) {
  return run_sites(sites, ProfileMode::kAllExperiment, nullptr);
}

ProfileRun Coordinator::run_single_experiment(
    const std::vector<testbed::GlobalPortId>& slice_ports) {
  std::vector<testbed::SiteId> sites;
  for (const testbed::GlobalPortId& p : slice_ports) {
    if (std::find(sites.begin(), sites.end(), p.site) == sites.end()) {
      sites.push_back(p.site);
    }
  }
  return run_sites(sites, ProfileMode::kSingleExperiment, &slice_ports);
}

ProfileRun Coordinator::run_sites(
    const std::vector<testbed::SiteId>& sites, ProfileMode mode,
    const std::vector<testbed::GlobalPortId>* slice_ports) {
  ProfileRun out;
  out.mode = mode;

  // Live phase marker for /healthz scrapers: 1 control, 2 render, 3 merge,
  // back to 0 (idle) on return. Wall-clock class — a point-in-time reading
  // depends on when the scrape lands.
  obs::Gauge& phase = obs::run_phase_gauge();
  struct PhaseReset {
    obs::Gauge& gauge;
    ~PhaseReset() { gauge.set(0.0); }
  } phase_reset{phase};

  // One data-plane seed for the whole run, drawn before any site touches
  // the environment RNG: site i renders from split(site id), so its pcap
  // bytes depend only on (run seed, site) — never on which worker thread
  // renders it or in what order.
  const util::Rng stream_root(env_.rng().bits());

  struct SiteWork {
    std::unique_ptr<SiteProfiler> profiler;
    ProfilerConfig config;
    SiteRunReport report;
    std::vector<analysis::RawCapture> captures;
    bool sampled = false;
  };
  std::vector<SiteWork> work(sites.size());

  // Phase 1 — control plane, serial in site order. Allocation with
  // back-off, port selection, mirror sessions, congestion handling, and
  // the sampling decisions all mutate shared simulation state (clock,
  // switches, telemetry, environment RNG), so they stay single-threaded
  // and deterministic.
  {
    phase.set(1.0);
    OBS_SPAN_SIM("run_sites/control", &env_.clock());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const testbed::SiteId site = sites[i];
      SiteWork& w = work[i];
      w.config = config_;
      if (mode == ProfileMode::kSingleExperiment && slice_ports != nullptr) {
        // Single-experiment mode can only monitor the slice's own ports.
        w.config.plan.policy = PortPolicy::kFixed;
        w.config.fixed_ports.clear();
        for (const testbed::GlobalPortId& p : *slice_ports) {
          if (p.site == site) w.config.fixed_ports.push_back(p.port);
        }
      }
      w.profiler = std::make_unique<SiteProfiler>(env_, site, w.config);
      w.report.site = site;
      w.report.site_name = env_.federation().site(site).name();

      const SetupResult setup = w.profiler->setup();
      w.report.instances = setup.instances_granted;
      w.report.backoffs = setup.backoffs_used;
      w.report.error = setup.error;
      if (!setup.ok) {
        w.report.outcome = RunOutcome::kFailed;
        continue;
      }
      w.report.outcome = w.profiler->run();
      w.sampled = true;
    }
  }

  // Phase 2 — data plane, one parallel_for index per (site, sample).
  // Rendering (frame synthesis, capture serialization) and the transfer
  // compression touch only the sample's own snapshot plus immutable
  // workload profiles, so every pending sample across every site is its
  // own index. A testbed-wide profile dominated by one hot site therefore
  // still fills the pool: wall-clock scales with total samples, not with
  // the slowest site.
  {
    phase.set(2.0);
    OBS_SPAN("run_sites/render");

    // Flatten the work-list. Sample k of site i renders from
    // Rng(run_seed).split(site).split(k), so its bytes depend only on
    // (run seed, site, k) — independent of scheduling.
    struct RenderTask {
      std::size_t site_index = 0;
      std::size_t sample = 0;
    };
    struct RenderedSample {
      analysis::RawCapture capture;
      std::uint64_t pcap_bytes = 0;
      std::uint64_t transferred_bytes = 0;
    };
    std::vector<RenderTask> tasks;
    std::vector<std::vector<RenderedSample>> rendered(work.size());
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (!work[i].sampled) continue;
      const std::size_t n = work[i].profiler->pending_sample_count();
      rendered[i].resize(n);
      for (std::size_t k = 0; k < n; ++k) tasks.push_back({i, k});
    }

    auto render_one = [&](std::size_t t) {
      const RenderTask& task = tasks[t];
      SiteWork& w = work[task.site_index];
      RenderedSample& slot = rendered[task.site_index][task.sample];
      util::Rng rng =
          stream_root.split(sites[task.site_index].value, task.sample);
      slot.capture = w.profiler->render_sample(task.sample, rng);
      // The pcap writer grows its buffer geometrically; every capture is
      // held until analysis, so drop the slack now.
      slot.capture.pcap.shrink_to_fit();
      slot.pcap_bytes = slot.capture.pcap.size();
      if (w.config.compress_transfers) {
        // The download path of Fig. 7 step 4: the site compresses the pcap
        // and the transfer is accounted at its compressed size. The
        // coordinator keeps the uncompressed bytes it already holds — the
        // codec is lossless, so decompressing would restore the same bytes.
        // The compression scratch (a 32 K-slot hash table) is reused across
        // every sample the same worker compresses.
        static thread_local util::Compressor t_compressor;
        OBS_SPAN_ARGS("render/compress",
                      .site = static_cast<std::int64_t>(
                          sites[task.site_index].value),
                      .sample = static_cast<std::int64_t>(task.sample));
        slot.transferred_bytes =
            t_compressor.compress(slot.capture.pcap).size();
      } else {
        slot.transferred_bytes = slot.capture.pcap.size();
      }
    };
    // The synthesis inside a sample is itself a parallel_for over bursts,
    // so a skewed hot-site workload still saturates every worker instead of
    // serializing behind the heaviest sample.
    util::parallel_for(tasks.size(), render_one);

    // Hand each site its captures back in sample order; the per-sample
    // byte accounting sums in the same order the per-site loop used to.
    for (std::size_t i = 0; i < work.size(); ++i) {
      SiteWork& w = work[i];
      if (!w.sampled) continue;
      std::vector<analysis::RawCapture> captures;
      captures.reserve(rendered[i].size());
      for (RenderedSample& r : rendered[i]) {
        w.report.pcap_bytes += r.pcap_bytes;
        w.report.transferred_bytes += r.transferred_bytes;
        captures.push_back(std::move(r.capture));
      }
      w.profiler->commit_rendered(std::move(captures));
      w.captures = w.profiler->gather();
      w.report.samples = w.captures.size();
    }
  }

  // Phase 3 — merge in site order; teardown mutates switch/allocator
  // state, so it is serial again.
  phase.set(3.0);
  OBS_SPAN("run_sites/merge");
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const testbed::SiteId site = sites[i];
    SiteWork& w = work[i];
    obs::registry()
        .counter("patchwork_coordinator_site_runs_total",
                 "Per-site profiling outcomes",
                 {{"outcome", std::string(to_string(w.report.outcome))}})
        .add();
    if (w.sampled) {
      if (mode == ProfileMode::kSingleExperiment && slice_ports != nullptr) {
        // Keep only captures of the slice's ports (access control:
        // single-experiment users cannot see other users' traffic).
        std::erase_if(w.captures, [&](const analysis::RawCapture& c) {
          return std::none_of(slice_ports->begin(), slice_ports->end(),
                              [&](const testbed::GlobalPortId& p) {
                                return p.site == site &&
                                       p.port.value == c.port;
                              });
        });
      }
      std::move(w.captures.begin(), w.captures.end(),
                std::back_inserter(out.captures));
      w.profiler->teardown();
    }
    out.reports.push_back(std::move(w.report));
  }
  return out;
}

}  // namespace patchwork::core
