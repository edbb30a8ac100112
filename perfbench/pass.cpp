// perfbench_pass: one timed pass of one perfbench workload.
//
//   perfbench_pass --workload NAME --seed N --out DIR [--trace]
//
// perfbench/run.py starts this program once per pass, so every pass runs in
// a process that has not profiled yet, as a patchwork_cli user's process
// would: no in-process warm-up pass hides first-use costs. Before any worker
// runs, the main thread registers the metric series of every stage span
// (see register_stage_series), so the registry's first-use race cannot kill
// a pass and every workload completes every pass. The pass
//   1. sets up (world build, telemetry warm-up, seed records) and times it;
//   2. resets the metrics registry and the shared pool's stats;
//   3. runs the workload, with the benchmark's own spans around each call
//      into core, analysis and archive;
//   4. checks the outputs, snapshots the registry and pool stats, and
//      prints one JSON object (also written to DIR/result.json).
// With --trace it also arms the program's flight recorder and writes the
// benchmark spans (bench_trace.json) and the program's own timeline
// (program_trace.json) as Chrome trace JSON into DIR.
//
// The library runs at min(4, nproc) workers. Inputs are a pure function of
// --seed; the exit status is 0 whether or not a check failed (run.py reads
// "ok"), and nonzero only for usage or setup errors.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/epoch_extract.hpp"
#include "analysis/pipeline.hpp"
#include "archive/compactor.hpp"
#include "archive/federation.hpp"
#include "archive/query.hpp"
#include "archive/query_cache.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "core/coordinator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "spans.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"
#include "util/file_io.hpp"
#include "util/philox_simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace patchwork;
using perfbench::Spans;

// ---------------------------------------------------------------------------
// Process facts

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Restart the kernel's peak-RSS mark so the pass's peak excludes set-up.
/// Returns false where /proc does not support it.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak RSS in MiB: VmHWM when the mark was reset, else the process-wide
/// ru_maxrss (which then includes set-up).
double peak_rss_mb(bool mark_reset) {
  if (mark_reset) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::size_t worker_count() {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, nproc);
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Result assembly

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

struct Result {
  std::map<std::string, double> values;  ///< End-to-end readings.
  std::map<std::string, std::vector<double>> samples;  ///< Per-op, ms.
  std::map<std::string, double> layers;  ///< Per-layer readings.
  std::map<std::string, bool> checks;

  void check(const std::string& name, bool ok) {
    auto [it, inserted] = checks.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
  bool ok() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }

  std::string json(const std::string& workload, std::uint64_t seed,
                   bool trace) const {
    std::ostringstream os;
    os << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
       << ",\"trace\":" << (trace ? "true" : "false") << ",\"ok\":"
       << (ok() ? "true" : "false") << ",\"host\":{\"nproc\":"
       << std::thread::hardware_concurrency()
       << ",\"workers\":" << worker_count() << ",\"simd_tier\":"
       << json_string(std::string(util::to_string(util::simd_tier())))
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
       << ",\"optimized\":" << (optimized_build() ? "true" : "false")
       << ",\"sanitized\":" << (sanitized_build() ? "true" : "false") << "}";
    auto numbers = [&](const char* key, const std::map<std::string, double>& m) {
      os << ",\"" << key << "\":{";
      const char* sep = "";
      for (const auto& [k, v] : m) {
        os << sep << json_string(k) << ":" << json_number(v);
        sep = ",";
      }
      os << "}";
    };
    numbers("values", values);
    numbers("layers", layers);
    os << ",\"samples\":{";
    const char* sep = "";
    for (const auto& [k, list] : samples) {
      os << sep << json_string(k) << ":[";
      for (std::size_t i = 0; i < list.size(); ++i) {
        os << (i == 0 ? "" : ",") << json_number(list[i]);
      }
      os << "]";
      sep = ",";
    }
    os << "},\"checks\":{";
    sep = "";
    for (const auto& [k, v] : checks) {
      os << sep << json_string(k) << ":" << (v ? "true" : "false");
      sep = ",";
    }
    os << "}}";
    return os.str();
  }
};

// ---------------------------------------------------------------------------
// Registry series and snapshot

/// Every stage the program's OBS_SPAN scopes time.
constexpr const char* kStages[] = {
    "run_sites/control", "run_sites/render", "run_sites/merge",
    "profiler/render_sample", "render/plan", "render/synthesis",
    "render/capture", "render/compress", "session/filter", "session/drain",
    "session/anonymize", "pipeline/digest_all", "pipeline/analyze",
    "pipeline/site_profile", "pipeline/process_csv", "archive/compact",
    "archive/gc", "archive/federate",
};

/// Create each stage span's series from this thread before any worker runs.
/// obs::Registry allocates a series' counter or histogram outside its lock,
/// so two workers that first reach one stage together can corrupt the heap;
/// a series that already exists is only read. Names, help and determinism
/// class are those obs::StageSpan registers with.
void register_stage_series() {
  for (const char* stage : kStages) {
    obs::registry().counter("patchwork_stage_runs_total",
                            "Completed stage span scopes", {{"stage", stage}},
                            obs::Determinism::kDeterministic);
    obs::registry().histogram("patchwork_stage_wall_ns",
                              "Wall-clock stage duration (ns)",
                              {{"stage", stage}}, obs::Determinism::kWallClock);
  }
  obs::registry().histogram("patchwork_stage_sim_ns",
                            "Simulated stage duration (ns)",
                            {{"stage", "run_sites/control"}},
                            obs::Determinism::kDeterministic);
}

struct Snapshot {
  std::map<std::string, double> stage_ms;  ///< patchwork_stage_wall_ns sums.
  std::map<std::string, double> counters;  ///< "name{labels}" -> value.

  double stage(const std::string& s) const {
    const auto it = stage_ms.find(s);
    return it == stage_ms.end() ? 0.0 : it->second;
  }
  double counter(const std::string& key) const {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  }
};

Snapshot take_snapshot() {
  Snapshot snap;
  for (const auto& v : obs::registry().snapshot_values()) {
    if (v.name == "patchwork_stage_wall_ns") {
      // labels render as {stage="name"}.
      const std::size_t open = v.labels.find("=\"");
      const std::size_t close = v.labels.rfind('"');
      if (open != std::string::npos && close > open + 2) {
        snap.stage_ms[v.labels.substr(open + 2, close - open - 2)] =
            static_cast<double>(v.sum) / 1e6;
      }
    } else if (v.type == 'c') {
      snap.counters[v.name + v.labels] = static_cast<double>(v.count);
    }
  }
  return snap;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The simulated FABRIC-like world (set-up)

/// The federation and its sites' workloads are the same for every seed: the
/// operator profiles one testbed week after week. --seed drives the run
/// itself (port choices, sampling, every rendered frame), which keeps the
/// amount of work per pass nearly independent of the seed.
constexpr std::uint64_t kWorldSeed = 1;

struct World {
  explicit World(std::uint64_t seed)
      : world_rng(kWorldSeed),
        run_rng(seed),
        fed(testbed::make_fabric_like_federation(world_rng)),
        mflib(fed),
        engine(fed, activity,
               traffic::make_site_profiles(world_rng, fed.site_count()),
               world_rng.fork()),
        env(clock, fed, mflib, engine, run_rng) {
    // Telemetry warm-up: MFlib ranks ports over a 15-minute window.
    env.advance(11 * util::kMinute);
  }

  /// The first `n` sites not restricted to teaching, in federation order.
  std::vector<testbed::SiteId> production_sites(std::size_t n) const {
    std::vector<testbed::SiteId> out;
    for (std::uint32_t s = 0; s < fed.site_count() && out.size() < n; ++s) {
      if (!fed.site(testbed::SiteId{s}).teaching_only()) {
        out.push_back(testbed::SiteId{s});
      }
    }
    return out;
  }

  util::Rng world_rng;
  util::Rng run_rng;
  testbed::Federation fed;
  testbed::ActivityModel activity;
  telemetry::MfLib mflib;
  traffic::TrafficEngine engine;
  sim::Clock clock;
  core::Environment env;
};

/// The paper's capture settings, as patchwork_cli sets them. Transient
/// allocation failures are off, so every seed profiles the same sites and
/// the work per pass does not depend on the seed.
core::ProfilerConfig paper_config(std::uint32_t cycles, std::uint32_t samples) {
  core::ProfilerConfig config;
  config.allocator.backend_failure_rate = 0.0;
  config.plan.cycles = cycles;
  config.plan.samples_per_run = samples;
  config.plan.max_frames_per_sample = 2000;
  config.crash_probability = 0.0;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  config.capture.snaplen = 200;
  return config;
}

struct ProfileWorkload {
  std::size_t sites = 0;  ///< 0 = run_all_experiment over the federation.
  core::ProfilerConfig config;
};

/// The operator's scheduled testbed-wide profile.
ProfileWorkload testbed_epoch() {
  return {0, paper_config(2, 1)};
}

/// The experimenter's filtered, anonymised capture of a few sites under the
/// event flow model with churn.
ProfileWorkload slice_filtered_churn() {
  ProfileWorkload w{4, paper_config(2, 2)};
  w.config.flow_model.model = flowsched::FlowModel::kEvent;
  w.config.flow_model.flows_per_second = 200;
  w.config.flow_model.churn_fpm = 600;
  w.config.capture.filter = std::get<capture::Filter>(capture::Filter::compile("udp"));
  w.config.capture.anonymize = true;
  return w;
}

core::ProfileRun run_profile(World& world, const ProfileWorkload& w) {
  core::Coordinator coordinator(world.env, w.config);
  return w.sites == 0 ? coordinator.run_all_experiment()
                      : coordinator.run_on_sites(
                            world.production_sites(w.sites));
}

archive::EpochRecord epoch_of(World& world, const analysis::ProfileReport& report,
                              util::Nanos start, util::Nanos duration,
                              const std::string& label, std::uint64_t seed) {
  analysis::EpochMeta meta;
  meta.label = label;
  meta.start = start;
  meta.duration = duration;
  meta.offered_bps = world.mflib.testbed_total_tx_bps(30 * util::kMinute);
  // A fixed manifest: the record's bytes then depend on the report alone,
  // not on which metric families the build happens to register.
  meta.manifest_json = "{\"bench\":\"perfbench\",\"seed\":" +
                       std::to_string(seed) + "}";
  return analysis::extract_epoch_record(report, meta);
}

std::uint64_t wire_bytes(const archive::EpochRecord& r) {
  std::uint64_t total = 0;
  for (const auto& load : r.site_loads) total += load.wire_bytes;
  return total;
}

// ---------------------------------------------------------------------------
// Archive operations, each spanned

/// One CLI-style append: open (recovery scan) plus append.
bool append_epoch(Spans& spans, const std::string& path,
                  archive::EpochRecord record) {
  Spans::Scope scope(spans, "archive/append");
  archive::ArchiveWriter writer;
  const archive::OpenError error =
      spans.timed("archive/open", [&] { return writer.open(path); });
  if (error != archive::OpenError::kNone) return false;
  return spans.timed("archive/write",
                     [&] { return writer.append(std::move(record)); });
}

/// One windowed dashboard query: cached load, then the trend table, one
/// site's series and the top-K flows. Returns the query, or null when the
/// open failed or a trend has the wrong length.
std::shared_ptr<const archive::ArchiveQuery> windowed_query(
    Spans& spans, const std::string& path, const archive::QueryWindow& window) {
  Spans::Scope scope(spans, "archive/query");
  archive::OpenStatus status;
  auto query = spans.timed("archive/query_load", [&] {
    return archive::QueryCache::instance().get(path, window, &status);
  });
  if (!status.clean()) return nullptr;
  const bool shaped = spans.timed("archive/query_fold", [&] {
    const std::size_t n = query->record_count();
    bool ok = query->jumbo_share().size() == n &&
              query->ipv6_share().size() == n &&
              query->tcp_share().size() == n &&
              query->offered_bps().size() == n &&
              query->flow_snippets().size() == n;
    const std::vector<std::string> sites = query->sites();
    if (!sites.empty()) ok = ok && query->site_wire_bytes(sites.front()).size() == n;
    return ok && query->top_flows(10).size() <= 10;
  });
  return shaped ? query : nullptr;
}

/// Reopen `path` and require every byte to be accounted for.
bool reopens_clean(const std::string& path, archive::ArchiveReader& reader) {
  return reader.open(path) == archive::OpenError::kNone &&
         reader.corrupt_blocks() == 0 && !reader.damaged_tail() &&
         reader.skipped_newer_blocks() == 0;
}

bool totals_match(const archive::EpochRecord& totals, std::uint64_t frames,
                  std::uint64_t wire) {
  return totals.frames == frames && wire_bytes(totals) == wire;
}

/// The dashboard after each append: three windows (the last 4 epochs, the
/// last 12 onwards, everything), each loaded once (the append invalidated
/// it) and then served from the cache four more times. One query in five
/// is a load, so query_ms_p90 falls mid-way through the loads and p50 among
/// the cached answers, never on the edge between the two.
constexpr int kQueryRounds = 5;

std::vector<archive::QueryWindow> dashboard_windows(std::uint64_t last_epoch) {
  archive::QueryWindow last4, last12;
  last4.from_epoch = last_epoch >= 3 ? last_epoch - 3 : 0;
  last4.to_epoch = last_epoch;
  last12.from_epoch = last_epoch >= 11 ? last_epoch - 11 : 0;
  return {last4, last12, archive::QueryWindow{}};
}

/// Run the dashboard queries; checks the whole-archive totals against the
/// frames and wire bytes appended so far.
void dashboard(Spans& spans, Result& result, const std::string& path,
               std::uint64_t last_epoch, std::uint64_t frames,
               std::uint64_t wire) {
  const auto windows = dashboard_windows(last_epoch);
  for (int round = 0; round < kQueryRounds; ++round) {
    for (const auto& window : windows) {
      const auto query = windowed_query(spans, path, window);
      result.check("query_clean", query != nullptr);
      if (query != nullptr && window.everything()) {
        result.check("totals_survive_compaction",
                     totals_match(query->totals(), frames, wire));
      }
    }
  }
}

void record_archive_metrics(const Spans& spans, const Snapshot& snap,
                           Result& result) {
  for (const char* op : {"archive/open", "archive/write", "archive/query_load",
                         "archive/query_fold"}) {
    result.samples[std::string(op).replace(0, 8, "archive.") + "_ms"] =
        spans.each_ms(op);
  }
  result.samples["append_ms"] = spans.each_ms("archive/append");
  result.samples["query_ms"] = spans.each_ms("archive/query");
  const double hits =
      snap.counter("patchwork_archive_query_cache_hits_total");
  const double misses =
      snap.counter("patchwork_archive_query_cache_misses_total");
  result.layers["archive.cache_hit_ratio"] = ratio(hits, hits + misses);
  result.layers["archive.records_read"] =
      snap.counter("patchwork_archive_records_read_total");
  result.layers["archive.compact_ms"] = spans.sum_ms("archive/compact");
  result.layers["archive.merge_ms"] = spans.sum_ms("archive/merge");
  result.layers["archive.gc_ms"] = spans.sum_ms("archive/gc");
  result.values["maintenance_s"] =
      (spans.sum_ms("archive/compact") + spans.sum_ms("archive/merge") +
       spans.sum_ms("archive/gc")) /
      1e3;
}

// ---------------------------------------------------------------------------
// Workloads. Each sets up, then runs its measured section under measure().

struct Pass {
  Spans spans;
  Result result;
  std::uint64_t frames = 0;  ///< Work count behind frames_per_s.
};

/// Wraps the measured section: registry and pool stats reset, peak-RSS mark
/// restarted, flight recorder armed when tracing; wall, CPU and RSS read.
template <typename Fn>
void measure(Pass& pass, bool trace, Fn&& body) {
  obs::registry().reset();
  util::shared_pool().reset_stats();
  // Hand set-up's freed heap back first, so the pass's peak does not depend
  // on how much set-up happened to leave cached in the allocator.
  malloc_trim(0);
  const bool rss_reset = reset_peak_rss();
  if (trace) obs::trace::start();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  {
    Spans::Scope scope(pass.spans, "pass");
    body();
  }
  const double run_s = now_s() - t0;
  pass.result.values["cpu_s"] = cpu_s() - cpu0;
  pass.result.values["run_s"] = run_s;
  if (trace) obs::trace::stop();
  pass.result.values["peak_rss_mb"] = peak_rss_mb(rss_reset);

  const util::PoolStats pool = util::shared_pool().stats();
  auto& layers = pass.result.layers;
  layers["util.pool_busy_ms"] = static_cast<double>(pool.task_run_ns_total) / 1e6;
  layers["util.pool_task_wait_ms"] =
      static_cast<double>(pool.task_wait_ns_total) / 1e6;
  layers["util.pool_tasks"] = static_cast<double>(pool.tasks_executed);
  layers["util.pool_tasks_stolen"] = static_cast<double>(pool.tasks_stolen);
  layers["util.pool_queue_high_water"] =
      static_cast<double>(pool.queue_depth_high_water);
  // The caller helps run group tasks, so the denominator counts it too.
  layers["util.pool_utilization"] =
      ratio(static_cast<double>(pool.task_run_ns_total) / 1e9,
            run_s * static_cast<double>(util::thread_count()));
  layers["obs.trace_dropped_events"] =
      static_cast<double>(obs::trace::dropped_events());
}

void profile_layers(const Snapshot& snap, const Spans& spans,
                    const core::ProfileRun& run,
                    const analysis::ProfileReport& report, Result& result) {
  auto& l = result.layers;
  const double profile_ms = spans.sum_ms("core/profile");
  l["core.profile_ms"] = profile_ms;
  l["core.control_ms"] = snap.stage("run_sites/control");
  l["core.render_ms"] = snap.stage("run_sites/render");
  l["core.merge_ms"] = snap.stage("run_sites/merge");
  l["core.profile_other_ms"] =
      profile_ms - l["core.control_ms"] - l["core.render_ms"] - l["core.merge_ms"];
  const double sample = snap.stage("profiler/render_sample");
  const double plan = snap.stage("render/plan");
  const double synthesis = snap.stage("render/synthesis");
  const double capture = snap.stage("render/capture");
  l["core.render_sample_span_ms"] = sample;
  l["core.render_sample_other_span_ms"] = sample - plan - synthesis - capture;
  l["core.samples"] = static_cast<double>(run.captures.size());
  l["core.sites_ok"] =
      static_cast<double>(run.outcome_count(core::RunOutcome::kSuccess) +
                          run.outcome_count(core::RunOutcome::kDegraded));

  const double offered =
      snap.counter("patchwork_capture_frames_total{disposition=\"offered\"}");
  const double captured =
      snap.counter("patchwork_capture_frames_total{disposition=\"captured\"}");
  l["traffic.plan_span_ms"] = plan;
  l["traffic.synthesis_span_ms"] = synthesis;
  l["traffic.frames_offered"] = offered;
  l["traffic.synthesis_ns_per_frame"] = ratio(synthesis * 1e6, offered);
  l["flowsched.flows_generated"] =
      snap.counter("patchwork_flowsched_flows_generated_total");
  l["flowsched.churn_replacements"] =
      snap.counter("patchwork_flowsched_churn_replacements_total");
  l["flowsched.arrivals_suppressed"] =
      snap.counter("patchwork_flowsched_arrivals_suppressed_total");

  const double filter = snap.stage("session/filter");
  const double drain = snap.stage("session/drain");
  const double anonymize = snap.stage("session/anonymize");
  l["capture.span_ms"] = capture;
  l["capture.filter_span_ms"] = filter;
  l["capture.drain_span_ms"] = drain;
  l["capture.anonymize_span_ms"] = anonymize;
  l["capture.other_span_ms"] = capture - filter - drain - anonymize;
  l["capture.frames_captured"] = captured;
  l["capture.keep_ratio"] = ratio(captured, offered);
  l["capture.ring_drops"] = snap.counter(
      "patchwork_capture_dropped_frames_total{cause=\"ring_capacity\"}");
  l["capture.filter_drops"] =
      snap.counter("patchwork_capture_dropped_frames_total{cause=\"filter\"}");
  l["capture.ns_per_frame"] = ratio(capture * 1e6, offered);

  std::uint64_t pcap = 0, transferred = 0;
  for (const auto& r : run.reports) {
    pcap += r.pcap_bytes;
    transferred += r.transferred_bytes;
  }
  l["util.compress_span_ms"] = snap.stage("render/compress");
  l["util.compress_ratio"] =
      ratio(static_cast<double>(transferred), static_cast<double>(pcap));

  const double pipeline_ms = spans.sum_ms("analysis/pipeline");
  l["analysis.pipeline_ms"] = pipeline_ms;
  l["analysis.digest_ms"] = snap.stage("pipeline/digest_all");
  l["analysis.analyze_ms"] = snap.stage("pipeline/analyze");
  l["analysis.site_profile_ms"] = snap.stage("pipeline/site_profile");
  l["analysis.process_csv_ms"] = snap.stage("pipeline/process_csv");
  l["analysis.pipeline_other_ms"] =
      pipeline_ms - l["analysis.digest_ms"] - l["analysis.analyze_ms"] -
      l["analysis.site_profile_ms"] - l["analysis.process_csv_ms"];
  l["analysis.frames_digested"] = static_cast<double>(report.digest_stats.frames);
  l["analysis.distinct_flows"] = static_cast<double>(report.distinct_flows);
  l["analysis.frames_per_s"] =
      ratio(static_cast<double>(report.digest_stats.frames), pipeline_ms / 1e3);
  l["analysis.csv_write_ms"] = spans.sum_ms("analysis/csv_write");
  l["analysis.extract_ms"] = spans.sum_ms("analysis/extract");
}

/// testbed_epoch and slice_filtered_churn: one profiling request turned
/// into finished CSVs plus an archive epoch, as `patchwork_cli archive
/// append` does, then the operator's dashboard and maintenance over it.
int run_profile_workload(const ProfileWorkload& w, std::uint64_t seed,
                         const std::filesystem::path& out, bool trace,
                         Pass& pass) {
  const std::filesystem::path csv_dir = out / "csv";
  const std::string epoch_path = (out / "epoch.pwar").string();
  const double setup0 = now_s();
  World world(seed);
  // The output directory and the fresh (empty) archive exist before the
  // pass, as an operator's do: the measured append is the steady-state
  // open-and-append every later epoch takes, not a file creation.
  std::filesystem::create_directories(csv_dir);
  if (archive::ArchiveWriter().open(epoch_path) != archive::OpenError::kNone) {
    std::cerr << "perfbench_pass: cannot create " << epoch_path << "\n";
    return 1;
  }
  pass.result.values["setup_s"] = now_s() - setup0;

  Spans& spans = pass.spans;
  Result& result = pass.result;
  core::ProfileRun run;
  analysis::ProfileReport report;
  bool csv_written = true;
  std::uint64_t frames = 0, wire = 0;
  std::uint64_t compact_bytes = 0;

  measure(pass, trace, [&] {
    const util::Nanos start = world.env.clock().now();
    run = spans.timed("core/profile", [&] { return run_profile(world, w); });
    report = spans.timed("analysis/pipeline",
                         [&] { return analysis::run_pipeline(run.captures); });
    spans.timed("analysis/csv_write", [&] {
      for (const auto& [name, csv] : report.csv_files) {
        std::ofstream file(csv_dir / name, std::ios::binary);
        file << csv;
        csv_written = csv_written && static_cast<bool>(file);
      }
      return 0;
    });
    archive::EpochRecord record = spans.timed("analysis/extract", [&] {
      return epoch_of(world, report, start, world.env.clock().now() - start,
                      "epoch0", seed);
    });
    frames = record.frames;
    wire = wire_bytes(record);
    result.check("append", append_epoch(spans, epoch_path, std::move(record)));
    dashboard(spans, result, epoch_path, 0, frames, wire);
    archive::CompactionOptions options;
    const auto compacted = spans.timed("archive/compact", [&] {
      return archive::compact_archive(epoch_path, options);
    });
    compact_bytes = compacted.bytes_appended;
    result.check("compact", compacted.ok());
    result.check("gc", spans.timed("archive/gc", [&] {
                   return archive::gc_archive(epoch_path);
                 }).ok());
  });

  const Snapshot snap = take_snapshot();
  pass.frames = static_cast<std::uint64_t>(
      snap.counter("patchwork_capture_frames_total{disposition=\"offered\"}"));
  profile_layers(snap, spans, run, report, result);
  record_archive_metrics(spans, snap, result);
  result.layers["archive.compact_bytes_appended"] =
      static_cast<double>(compact_bytes);

  // Output checks.
  std::uint64_t site_frames = 0;
  for (const auto& load : report.site_loads) site_frames += load.frames;
  const auto captured = static_cast<std::uint64_t>(
      snap.counter("patchwork_capture_frames_total{disposition=\"captured\"}"));
  result.check("frames_offered", pass.frames > 0);
  result.check("captured_eq_digested", captured == report.digest_stats.frames);
  result.check("digested_eq_site_loads",
               report.digest_stats.frames == site_frames);
  result.check("csv_written", csv_written && report.csv_files.size() == 10);
  result.check("sites_ok", run.outcome_count(core::RunOutcome::kSuccess) > 0);
  archive::ArchiveReader reader;
  result.check("archive_reopens_clean", reopens_clean(epoch_path, reader));
  result.check("archive_one_record", reader.records().size() == 1);
  archive::OpenStatus status;
  const auto final_query =
      archive::ArchiveQuery::from_file(epoch_path, archive::QueryWindow{}, &status);
  result.check("totals_survive_compaction",
               status.clean() && totals_match(final_query.totals(), frames, wire));
  result.layers["archive.file_bytes"] = static_cast<double>(reader.valid_bytes());
  result.layers["archive.garbage_bytes"] =
      static_cast<double>(reader.garbage_bytes());
  return 0;
}

// archive_history sizing: E weekly epochs appended one at a time, with an
// incremental compaction every kCompactEvery appends under a budget that
// forces rollups, then a two-origin merge and a GC.
constexpr std::size_t kEpochs = 48;
constexpr std::size_t kSeedProfiles = 4;
constexpr std::size_t kPeerEpochs = 16;
constexpr std::size_t kCompactEvery = 8;
constexpr std::uint64_t kCompactBudgetBytes = 96 * 1024;

/// The longitudinal store: appends interleaved with cached windowed
/// queries and periodic compaction, then federation and GC.
int run_archive_history(std::uint64_t seed, const std::filesystem::path& out,
                        bool trace, Pass& pass) {
  const std::string history = (out / "history.pwar").string();
  const std::string peer = (out / "peer.pwar").string();
  const std::string merged = (out / "merged.pwar").string();
  Result& result = pass.result;
  Spans& spans = pass.spans;

  // Set-up: small seeded testbed-wide profiles (1 cycle, 1 sample, at most
  // 100 frames per sample, so nearly every sample fills its cap and the
  // frames per record hardly depend on the seed), run serially, reduced to
  // epoch records; a peer deployment's archive is written for the merge.
  const double setup0 = now_s();
  World world(seed);
  std::vector<archive::EpochRecord> records;
  std::vector<archive::EpochRecord> peer_records;
  {
    util::set_thread_count(0);
    ProfileWorkload w{0, paper_config(1, 1)};
    w.config.plan.max_frames_per_sample = 100;
    std::vector<archive::EpochRecord> profiled;
    for (std::size_t k = 0; k < kSeedProfiles; ++k) {
      const util::Nanos start = world.env.clock().now();
      const auto report = analysis::run_pipeline(run_profile(world, w).captures);
      profiled.push_back(epoch_of(world, report, start,
                                  world.env.clock().now() - start, "", seed));
      world.env.advance(util::kHour);
    }
    // Epoch e (and the peer's, half a week later) reuses one of the
    // profiled records under its own label and start time.
    const util::Nanos week = 7 * 24 * util::kHour;
    for (std::size_t i = 0; i < kEpochs + kPeerEpochs; ++i) {
      const bool is_peer = i >= kEpochs;
      const std::size_t e = is_peer ? i - kEpochs : i;
      archive::EpochRecord record = profiled[(i * 3) % kSeedProfiles];
      record.label = (is_peer ? "peer-week" : "week") + std::to_string(e);
      record.start_nanos =
          static_cast<std::uint64_t>(e * week + (is_peer ? week / 2 : 0));
      (is_peer ? peer_records : records).push_back(std::move(record));
    }
    archive::ArchiveWriter writer;
    bool ok = writer.open(peer) == archive::OpenError::kNone;
    for (const auto& r : peer_records) ok = ok && writer.append(r);
    if (!ok) {
      std::cerr << "perfbench_pass: cannot write " << peer << "\n";
      return 1;
    }
    util::set_thread_count(worker_count());
  }
  pass.result.values["setup_s"] = now_s() - setup0;

  std::uint64_t frames = 0, wire = 0, compact_bytes = 0;
  std::uint64_t garbage = 0, file_bytes = 0;
  measure(pass, trace, [&] {
    for (std::size_t i = 0; i < records.size(); ++i) {
      frames += records[i].frames;
      wire += wire_bytes(records[i]);
      result.check("append",
                   append_epoch(spans, history, std::move(records[i])));
      dashboard(spans, result, history, i, frames, wire);
      if ((i + 1) % kCompactEvery == 0) {
        archive::CompactionOptions options;
        options.storage_budget_bytes = kCompactBudgetBytes;
        const auto compacted = spans.timed("archive/compact", [&] {
          return archive::compact_archive(history, options);
        });
        result.check("compact", compacted.ok());
        compact_bytes += compacted.bytes_appended;
      }
    }
    file_bytes = util::file_size_bytes(history).value_or(0);
    const auto gc = spans.timed("archive/gc",
                                [&] { return archive::gc_archive(history); });
    result.check("gc", gc.ok());
    garbage = gc.bytes_before - gc.bytes_after;
    const auto fed = spans.timed("archive/merge", [&] {
      return archive::merge_archives({{history, "east"}, {peer, "west"}}, merged);
    });
    result.check("merge", fed.ok());
  });
  pass.frames = frames;

  const Snapshot snap = take_snapshot();
  // No profiling in the measured section: the profile layers read 0.
  profile_layers(snap, spans, core::ProfileRun{}, analysis::ProfileReport{},
                 result);
  record_archive_metrics(spans, snap, result);
  result.layers["archive.compact_bytes_appended"] =
      static_cast<double>(compact_bytes);
  result.layers["archive.file_bytes"] = static_cast<double>(file_bytes);
  result.layers["archive.garbage_bytes"] = static_cast<double>(garbage);

  // Output checks: GC keeps the totals and leaves no garbage; every file
  // reopens CRC-clean; the merged archive answers as the union of its
  // inputs does.
  archive::ArchiveReader history_reader, peer_reader, merged_reader;
  result.check("archive_reopens_clean", reopens_clean(history, history_reader) &&
                                            reopens_clean(peer, peer_reader) &&
                                            reopens_clean(merged, merged_reader));
  result.check("gc_leaves_no_garbage", history_reader.garbage_bytes() == 0);
  result.check("compaction_folded", history_reader.records().size() < kEpochs);
  const archive::ArchiveQuery history_query(history_reader.records());
  result.check("totals_survive_compaction",
               totals_match(history_query.totals(), frames, wire));

  std::vector<archive::EpochRecord> union_records;
  for (auto r : history_reader.records()) {
    if (r.origin.empty()) r.origin = "east";
    union_records.push_back(std::move(r));
  }
  for (auto r : peer_reader.records()) {
    if (r.origin.empty()) r.origin = "west";
    union_records.push_back(std::move(r));
  }
  std::sort(union_records.begin(), union_records.end(),
            archive::federated_record_less);
  const archive::ArchiveQuery expected(union_records);
  const archive::ArchiveQuery actual(merged_reader.records());
  auto values = [](const std::vector<archive::ArchiveQuery::TrendPoint>& t) {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& p : t) out.emplace_back(p.label, p.value);
    return out;
  };
  auto keys = [](const std::vector<archive::TopFlowSketch::Entry>& top) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& e : top) out.emplace_back(e.key, e.count);
    return out;
  };
  result.check(
      "merge_equals_union",
      actual.record_count() == expected.record_count() &&
          actual.totals() == expected.totals() &&
          values(actual.jumbo_share()) == values(expected.jumbo_share()) &&
          values(actual.tcp_share()) == values(expected.tcp_share()) &&
          values(actual.offered_bps()) == values(expected.offered_bps()) &&
          keys(actual.top_flows(10)) == keys(expected.top_flows(10)));
  return 0;
}

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_pass: " << message
            << "\nusage: perfbench_pass --workload testbed_epoch|"
               "slice_filtered_churn|archive_history --seed N --out DIR "
               "[--trace]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::string out_dir;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--trace") {
      trace = true;
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (out_dir.empty()) usage("--out is required");
  const std::filesystem::path out(out_dir);
  std::filesystem::create_directories(out);

  util::set_thread_count(worker_count());
  register_stage_series();
  Pass pass;
  int rc = 0;
  if (workload == "testbed_epoch") {
    rc = run_profile_workload(testbed_epoch(), seed, out, trace, pass);
  } else if (workload == "slice_filtered_churn") {
    rc = run_profile_workload(slice_filtered_churn(), seed, out, trace, pass);
  } else if (workload == "archive_history") {
    rc = run_archive_history(seed, out, trace, pass);
  } else {
    usage("unknown workload '" + workload + "'");
  }
  if (rc != 0) return rc;
  pass.result.values["frames"] = static_cast<double>(pass.frames);

  if (trace) {
    std::ofstream(out / "bench_trace.json") << pass.spans.chrome_json();
    obs::trace::write_chrome_json((out / "program_trace.json").string());
  }
  const std::string json = pass.result.json(workload, seed, trace);
  std::ofstream(out / "result.json") << json << "\n";
  std::cout << json << std::endl;
  return 0;
}
