// patchwork_cli — drive a full profiling run from the command line.
//
// The closest thing in this repository to the tool FABRIC users invoke:
// every knob of requirement R5 (Tunable Fidelity) is a flag, and the
// Process step's CSV reports are written to disk. Every run also writes
// patchwork_manifest.json (seed, config, build identity, metric values)
// and patchwork_metrics.prom (Prometheus exposition) next to the CSVs.
//
//   patchwork_cli [options]
//     --seed N            RNG seed for the simulated federation (default 1)
//     --sites N           number of sites to profile (default: all)
//     --cycles N          port-cycling rounds per site (default 3)
//     --samples N         samples per run (default 2)
//     --duration SECS     sample duration (default 20)
//     --method M          tcpdump | dpdk | fpga (default fpga)
//     --flow-model M      mix | event window planner (default mix; event =
//                         flow arrivals/durations/churn, src/flowsched)
//     --arrival P         exp | uniform interarrival process (event model)
//     --duration-model P  pareto | uniform flow durations (event model)
//     --flow-rate X       flow arrivals per second (default 40)
//     --flow-duration S   mean flow lifetime seconds (default 5)
//     --zipf-param S      flow-popularity Zipf exponent (default 1.26)
//     --flow-keys N       bounded flow-key pool size (default 512)
//     --max-active-flows N  bound on concurrently active flows (default 4096)
//     --churn-fpm X       flow-key churn, replacements per minute
//     --snaplen N         truncation bytes (default 200)
//     --filter EXPR       capture filter, e.g. "ip and tcp and not port 22"
//     --policy P          busiest | uplinks | all (default busiest)
//     --anonymize         scrub addresses at capture time
//     --nice X            enable dynamic scaling with this nice factor
//     --out DIR           write CSV reports to DIR (default ".")
//     --scrape-port N     serve GET /metrics, /metrics?deterministic=1,
//                         /healthz, /manifest.json live on 127.0.0.1:N
//                         (0 = ephemeral; PATCHWORK_SCRAPE=port is the
//                         env equivalent, the flag wins)
//
// PATCHWORK_TRACE=path[:capacity] arms the flight recorder: every stage
// span (and per-burst render_unit scope) lands on a per-worker timeline,
// written to `path` as Chrome trace-event JSON at exit (open in Perfetto).
//
// Longitudinal archive subcommands (see src/archive):
//   patchwork_cli archive append --archive F [--label L] [run options]
//       profile once and append the epoch record to archive F
//   patchwork_cli archive compact --archive F --budget BYTES [--group N]
//       merge the oldest records into rollups until the live image fits
//       BYTES, committed as an incremental append (run archive gc after it
//       to shed the superseded blocks)
//   patchwork_cli archive gc --archive F
//       rewrite F shedding superseded blocks, orphans, and damage
//   patchwork_cli archive merge --archive OUT --input F[=ORIGIN] ...
//       federate several archives into OUT; each input's records are
//       stamped with its deployment origin (default: the file stem)
//   patchwork_cli archive query --archive F [--site NAME] [--top K]
//       [--from-epoch N] [--to-epoch N] [--from-nanos N] [--to-nanos N]
//       print the jumbo/IPv6/TCP trend table, per-site loads, top flows
//       (windowed to the given inclusive epoch/time ranges)
//   patchwork_cli archive stat --archive F
//       record/epoch counts, span, damage and garbage counters
//
// Example:
//   ./build/examples/patchwork_cli --sites 5 --filter "ip and tcp"
//       --anonymize --out /tmp/profile
//   ./build/examples/patchwork_cli archive append --archive prof.pwar
//       --label week1 --sites 5
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>

#include "analysis/epoch_extract.hpp"
#include "analysis/pipeline.hpp"
#include "archive/compactor.hpp"
#include "archive/federation.hpp"
#include "archive/query.hpp"
#include "archive/query_cache.hpp"
#include "archive/writer.hpp"
#include "flowsched/event_gen.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape_server.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "core/coordinator.hpp"
#include "sim/clock.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"

using namespace patchwork;

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "patchwork_cli: " << message
            << "\nRun with --help for usage.\n";
  std::exit(2);
}

struct Options {
  std::uint64_t seed = 1;
  std::size_t sites = 0;  // 0 = all production sites.
  core::ProfilerConfig config;
  std::string out_dir = ".";
  std::string archive_cmd;  // "" = plain profile run.
  std::string archive_path;
  std::string label;
  std::string site_filter;
  std::uint64_t budget_bytes = 256 * 1024;
  std::size_t group_size = 4;
  std::size_t top_k = 10;
  std::vector<archive::FederationInput> merge_inputs;
  archive::QueryWindow window;
  int scrape_port = -1;  // -1 = not requested (PATCHWORK_SCRAPE may still).
};

Options parse_args(int argc, char** argv) {
  Options options;
  options.config.plan.cycles = 3;
  options.config.plan.samples_per_run = 2;
  options.config.plan.max_frames_per_sample = 2000;
  options.config.crash_probability = 0.0;
  options.config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  options.config.capture.cores = 5;
  options.config.capture.snaplen = 200;

  int first = 1;
  if (argc >= 2 && std::string(argv[1]) == "archive") {
    if (argc < 3) usage_error("archive needs a subcommand");
    options.archive_cmd = argv[2];
    if (options.archive_cmd != "append" && options.archive_cmd != "compact" &&
        options.archive_cmd != "query" && options.archive_cmd != "stat" &&
        options.archive_cmd != "merge" && options.archive_cmd != "gc") {
      usage_error("unknown archive subcommand '" + options.archive_cmd + "'");
    }
    first = 3;
  }

  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::cout << "See the comment at the top of examples/patchwork_cli.cpp "
                   "for full usage.\n";
      std::exit(0);
    } else if (arg == "--seed") {
      options.seed = std::stoull(next_value(i));
    } else if (arg == "--sites") {
      options.sites = std::stoul(next_value(i));
    } else if (arg == "--cycles") {
      options.config.plan.cycles =
          static_cast<std::uint32_t>(std::stoul(next_value(i)));
    } else if (arg == "--samples") {
      options.config.plan.samples_per_run =
          static_cast<std::uint32_t>(std::stoul(next_value(i)));
    } else if (arg == "--duration") {
      options.config.plan.sample_duration =
          util::from_seconds(std::stod(next_value(i)));
    } else if (arg == "--method") {
      const std::string m = next_value(i);
      if (m == "tcpdump") {
        options.config.capture.method = capture::CaptureMethod::kTcpdump;
      } else if (m == "dpdk") {
        options.config.capture.method = capture::CaptureMethod::kDpdk;
      } else if (m == "fpga") {
        options.config.capture.method = capture::CaptureMethod::kFpgaDpdk;
      } else {
        usage_error("unknown method '" + m + "'");
      }
    } else if (arg == "--flow-model") {
      const std::string m = next_value(i);
      const auto model = flowsched::parse_flow_model(m);
      if (!model) usage_error("unknown --flow-model '" + m + "'");
      options.config.flow_model.model = *model;
    } else if (arg == "--arrival") {
      const std::string a = next_value(i);
      const auto arrival = flowsched::parse_arrival(a);
      if (!arrival) usage_error("unknown --arrival '" + a + "'");
      options.config.flow_model.arrival = *arrival;
    } else if (arg == "--duration-model") {
      const std::string d = next_value(i);
      const auto duration = flowsched::parse_duration(d);
      if (!duration) usage_error("unknown --duration-model '" + d + "'");
      options.config.flow_model.duration = *duration;
    } else if (arg == "--flow-rate") {
      options.config.flow_model.flows_per_second = std::stod(next_value(i));
    } else if (arg == "--flow-duration") {
      options.config.flow_model.mean_flow_duration_s =
          std::stod(next_value(i));
    } else if (arg == "--zipf-param") {
      options.config.flow_model.zipf_param = std::stod(next_value(i));
    } else if (arg == "--flow-keys") {
      options.config.flow_model.flow_keys = std::stoul(next_value(i));
    } else if (arg == "--max-active-flows") {
      options.config.flow_model.max_active_flows = std::stoul(next_value(i));
    } else if (arg == "--churn-fpm") {
      options.config.flow_model.churn_fpm = std::stod(next_value(i));
    } else if (arg == "--snaplen") {
      options.config.capture.snaplen =
          static_cast<std::uint32_t>(std::stoul(next_value(i)));
    } else if (arg == "--filter") {
      auto compiled = capture::Filter::compile(next_value(i));
      if (auto* err = std::get_if<capture::Filter::CompileError>(&compiled)) {
        usage_error("bad filter: " + err->message);
      }
      options.config.capture.filter = std::get<capture::Filter>(compiled);
    } else if (arg == "--policy") {
      const std::string p = next_value(i);
      if (p == "busiest") {
        options.config.plan.policy = core::PortPolicy::kBusiestBias;
      } else if (p == "uplinks") {
        options.config.plan.policy = core::PortPolicy::kUplinksOnly;
      } else if (p == "all") {
        options.config.plan.policy = core::PortPolicy::kRoundRobinAll;
      } else {
        usage_error("unknown policy '" + p + "'");
      }
    } else if (arg == "--anonymize") {
      options.config.capture.anonymize = true;
    } else if (arg == "--nice") {
      options.config.dynamic_scaling = true;
      options.config.scaling.nice = std::stod(next_value(i));
    } else if (arg == "--out") {
      options.out_dir = next_value(i);
    } else if (arg == "--archive") {
      options.archive_path = next_value(i);
    } else if (arg == "--label") {
      options.label = next_value(i);
    } else if (arg == "--site") {
      options.site_filter = next_value(i);
    } else if (arg == "--budget") {
      options.budget_bytes = std::stoull(next_value(i));
    } else if (arg == "--group") {
      options.group_size = std::stoul(next_value(i));
    } else if (arg == "--top") {
      options.top_k = std::stoul(next_value(i));
    } else if (arg == "--input") {
      // PATH or PATH=ORIGIN; without an origin the file stem tags the
      // records (prof_a.pwar -> "prof_a").
      const std::string value = next_value(i);
      archive::FederationInput input;
      const std::size_t eq = value.rfind('=');
      if (eq != std::string::npos && eq + 1 < value.size()) {
        input.path = value.substr(0, eq);
        input.origin = value.substr(eq + 1);
      } else {
        input.path = value;
        input.origin = std::filesystem::path(value).stem().string();
      }
      options.merge_inputs.push_back(std::move(input));
    } else if (arg == "--from-epoch") {
      options.window.from_epoch = std::stoull(next_value(i));
    } else if (arg == "--to-epoch") {
      options.window.to_epoch = std::stoull(next_value(i));
    } else if (arg == "--from-nanos") {
      options.window.from_nanos = std::stoull(next_value(i));
    } else if (arg == "--to-nanos") {
      options.window.to_nanos = std::stoull(next_value(i));
    } else if (arg == "--scrape-port") {
      const unsigned long port = std::stoul(next_value(i));
      if (port > 65535) usage_error("--scrape-port out of range");
      options.scrape_port = static_cast<int>(port);
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (!options.archive_cmd.empty() && options.archive_path.empty()) {
    usage_error("archive " + options.archive_cmd + " needs --archive FILE");
  }
  if (options.archive_cmd == "merge" && options.merge_inputs.empty()) {
    usage_error("archive merge needs at least one --input FILE[=ORIGIN]");
  }
  return options;
}

/// One stderr line per kind of damage the open found; the query still runs
/// over whatever decoded (the archive is self-resynchronizing), but the
/// caller deserves to know the answer may be missing mass.
void warn_damage(const std::string& path, const archive::OpenStatus& status) {
  if (status.corrupt_blocks > 0) {
    std::cerr << "warning: " << path << ": skipped " << status.corrupt_blocks
              << " corrupt block(s); results may be incomplete\n";
  }
  if (status.damaged_tail) {
    std::cerr << "warning: " << path << ": damaged tail after "
              << status.valid_bytes
              << " valid bytes (crash or truncation); trailing records were "
                 "dropped\n";
  }
  if (status.skipped_newer > 0) {
    std::cerr << "warning: " << path << ": skipped " << status.skipped_newer
              << " block(s) written by a newer build\n";
  }
}

int archive_compact(const Options& options) {
  archive::CompactionOptions compaction;
  compaction.storage_budget_bytes = options.budget_bytes;
  compaction.group_size = options.group_size;
  const archive::CompactionResult result =
      archive::compact_archive(options.archive_path, compaction);
  if (!result.ok()) {
    std::cerr << "compact failed: " << archive::to_string(result.error)
              << "\n";
    return 1;
  }
  std::cout << options.archive_path << ": " << result.bytes_before << " -> "
            << result.bytes_after << " bytes, " << result.records_before
            << " -> " << result.records_after << " records ("
            << result.passes << " pass(es)";
  if (!result.changed) {
    std::cout << ", no change needed)";
  } else if (result.gc) {
    std::cout << ", full rewrite)";
  } else {
    std::cout << ", " << result.rollups_committed << " rollup(s) in a "
              << result.bytes_appended << "-byte incremental commit)";
  }
  std::cout << "\n";
  return 0;
}

int archive_gc(const Options& options) {
  const archive::CompactionResult result =
      archive::gc_archive(options.archive_path);
  if (!result.ok()) {
    std::cerr << "gc failed: " << archive::to_string(result.error) << "\n";
    return 1;
  }
  if (!result.changed) {
    std::cout << options.archive_path << ": already clean ("
              << result.bytes_before << " bytes)\n";
  } else {
    std::cout << options.archive_path << ": " << result.bytes_before << " -> "
              << result.bytes_after << " bytes (" << result.records_after
              << " records kept)\n";
  }
  return 0;
}

int archive_merge(const Options& options) {
  const archive::FederationResult result =
      archive::merge_archives(options.merge_inputs, options.archive_path);
  if (!result.ok()) {
    std::cerr << "merge failed: " << archive::to_string(result.error)
              << " (" << result.failed_path << ")\n";
    return 1;
  }
  std::cout << "merged " << result.archives_read << " archive(s), "
            << result.records_out << " record(s) -> " << options.archive_path
            << " (" << result.bytes_written << " bytes)\n";
  if (result.corrupt_blocks > 0 || result.damaged_tails > 0) {
    std::cerr << "warning: inputs carried damage (" << result.corrupt_blocks
              << " corrupt block(s), " << result.damaged_tails
              << " damaged tail(s)); those records were skipped\n";
  }
  return 0;
}

int archive_query(const Options& options) {
  archive::OpenStatus status;
  const std::shared_ptr<const archive::ArchiveQuery> cached =
      archive::QueryCache::instance().get(options.archive_path,
                                          options.window, &status);
  if (!status.ok()) {
    std::cerr << "query failed: " << archive::to_string(status.error) << "\n";
    return 1;
  }
  warn_damage(options.archive_path, status);
  const archive::ArchiveQuery& query = *cached;
  if (query.record_count() == 0) {
    std::cout << (options.window.everything()
                      ? "archive is empty\n"
                      : "no records in the requested window\n");
    return 0;
  }

  const auto jumbo = query.jumbo_share();
  const auto ipv6 = query.ipv6_share();
  const auto tcp = query.tcp_share();
  const auto offered = query.offered_bps();
  const auto flows = query.flow_snippets();
  util::TextTable trend({"Record", "Epochs", "Avg Gbps", "Jumbo share",
                         "IPv6 share", "TCP %", "Flow snippets"});
  for (std::size_t i = 0; i < jumbo.size(); ++i) {
    trend.add_row({jumbo[i].label, std::to_string(jumbo[i].epoch_count),
                   util::fmt_double(offered[i].value / 1e9, 2),
                   util::fmt_percent(jumbo[i].value, 1),
                   util::fmt_double(ipv6[i].value * 100.0, 2),
                   util::fmt_double(tcp[i].value * 100.0, 1),
                   std::to_string(
                       static_cast<std::uint64_t>(flows[i].value))});
  }
  trend.print(std::cout);

  if (!options.site_filter.empty()) {
    const auto wire = query.site_wire_bytes(options.site_filter);
    const auto drops = query.site_switch_drops(options.site_filter);
    util::TextTable site({"Record", "Wire bytes", "Suspected switch drops"});
    for (std::size_t i = 0; i < wire.size(); ++i) {
      site.add_row({wire[i].label,
                    std::to_string(
                        static_cast<std::uint64_t>(wire[i].value)),
                    std::to_string(
                        static_cast<std::uint64_t>(drops[i].value))});
    }
    std::cout << "\nSite " << options.site_filter << ":\n";
    site.print(std::cout);
  }

  std::cout << "\nTop flows (true bytes in [count-error, count]):\n";
  for (const auto& entry : query.top_flows(options.top_k)) {
    std::cout << "  " << entry.key << "  <= " << entry.count
              << " bytes (overcount <= " << entry.error << ")\n";
  }
  return 0;
}

int archive_stat(const Options& options) {
  archive::ArchiveReader reader;
  const archive::OpenError error = reader.open(options.archive_path);
  if (error != archive::OpenError::kNone) {
    std::cerr << "stat failed: " << archive::to_string(error) << "\n";
    return 1;
  }
  std::uint64_t epochs = 0, rollups = 0;
  std::set<std::string> origins;
  for (const auto& record : reader.records()) {
    epochs += record.epoch_count;
    rollups += record.is_rollup() ? 1 : 0;
    if (!record.origin.empty()) origins.insert(record.origin);
  }
  std::cout << options.archive_path << ":\n"
            << "  records:        " << reader.records().size() << " ("
            << rollups << " rollup(s))\n"
            << "  epochs covered: " << epochs << "\n"
            << "  file bytes:     " << reader.valid_bytes() << "\n"
            << "  live bytes:     " << reader.live_bytes() << "\n"
            << "  garbage bytes:  " << reader.garbage_bytes() << " ("
            << reader.superseded_records() << " superseded, "
            << reader.orphan_pending() << " orphan pending)\n"
            << "  corrupt blocks: " << reader.corrupt_blocks() << "\n"
            << "  damaged tail:   " << (reader.damaged_tail() ? "yes" : "no")
            << "\n";
  if (!origins.empty()) {
    std::cout << "  origins:       ";
    for (const auto& origin : origins) std::cout << " " << origin;
    std::cout << "\n";
  }
  archive::OpenStatus status;
  status.corrupt_blocks = reader.corrupt_blocks();
  status.damaged_tail = reader.damaged_tail();
  status.valid_bytes = reader.valid_bytes();
  status.skipped_newer = reader.skipped_newer_blocks();
  warn_damage(options.archive_path, status);
  if (!reader.records().empty()) {
    const auto& first = reader.records().front();
    const auto& last = reader.records().back();
    std::cout << "  span:           " << first.label << " .. " << last.label
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  if (options.archive_cmd == "compact") return archive_compact(options);
  if (options.archive_cmd == "gc") return archive_gc(options);
  if (options.archive_cmd == "merge") return archive_merge(options);
  if (options.archive_cmd == "query") return archive_query(options);
  if (options.archive_cmd == "stat") return archive_stat(options);

  // Manifest identity is a pure function of the parsed options, so build
  // it up front: the live /manifest.json route can then serve it mid-run.
  obs::ManifestInfo info;
  info.seed = options.seed;
  info.config = {
      {"sites", std::to_string(options.sites)},
      {"cycles", std::to_string(options.config.plan.cycles)},
      {"samples_per_run",
       std::to_string(options.config.plan.samples_per_run)},
      {"snaplen", std::to_string(options.config.capture.snaplen)},
      {"flow_model",
       std::string(flowsched::to_string(options.config.flow_model.model))},
      {"arrival",
       std::string(flowsched::to_string(options.config.flow_model.arrival))},
      {"duration_model",
       std::string(flowsched::to_string(options.config.flow_model.duration))},
      {"flow_rate",
       std::to_string(options.config.flow_model.flows_per_second)},
      {"flow_duration_s",
       std::to_string(options.config.flow_model.mean_flow_duration_s)},
      {"zipf_param", std::to_string(options.config.flow_model.zipf_param)},
      {"flow_keys", std::to_string(options.config.flow_model.flow_keys)},
      {"max_active_flows",
       std::to_string(options.config.flow_model.max_active_flows)},
      {"churn_fpm", std::to_string(options.config.flow_model.churn_fpm)},
  };

  // Live observability: the --scrape-port flag wins over PATCHWORK_SCRAPE;
  // both coexist with the end-of-run file exports below.
  const auto manifest_provider = [info] { return obs::render_manifest(info); };
  std::unique_ptr<obs::ScrapeServer> scrape;
  if (options.scrape_port >= 0) {
    obs::ScrapeServerOptions scrape_options;
    scrape_options.port = static_cast<std::uint16_t>(options.scrape_port);
    scrape_options.manifest = manifest_provider;
    scrape = std::make_unique<obs::ScrapeServer>(std::move(scrape_options));
    if (!scrape->ok()) {
      std::cerr << "cannot bind scrape port "
                << options.scrape_port << "\n";
      return 1;
    }
  } else {
    scrape = obs::maybe_start_scrape_server_from_env(manifest_provider);
  }
  if (scrape) {
    std::cout << "scrape endpoint: http://127.0.0.1:" << scrape->port()
              << "/metrics\n";
  }
  obs::trace::configure_from_env();

  // Simulated FABRIC world.
  util::Rng rng(options.seed);
  testbed::Federation fed = testbed::make_fabric_like_federation(rng);
  testbed::ActivityModel activity;
  telemetry::MfLib mflib(fed);
  traffic::TrafficEngine traffic(
      fed, activity, traffic::make_site_profiles(rng, fed.site_count()),
      rng.fork());
  sim::Clock clock;
  core::Environment env(clock, fed, mflib, traffic, rng);
  env.advance(11 * util::kMinute);

  const util::Nanos run_start = env.clock().now();
  core::Coordinator coordinator(env, options.config);
  core::ProfileRun run;
  if (options.sites == 0) {
    run = coordinator.run_all_experiment();
  } else {
    std::vector<testbed::SiteId> sites;
    for (std::uint32_t s = 0;
         s < options.sites && s < fed.site_count(); ++s) {
      if (!fed.site(testbed::SiteId{s}).teaching_only()) {
        sites.push_back(testbed::SiteId{s});
      }
    }
    run = coordinator.run_on_sites(sites);
  }

  std::cout << "profiled " << run.reports.size() << " site(s): "
            << run.outcome_count(core::RunOutcome::kSuccess) << " success, "
            << run.outcome_count(core::RunOutcome::kDegraded)
            << " degraded, "
            << run.outcome_count(core::RunOutcome::kFailed) << " failed\n"
            << "gathered " << run.captures.size() << " samples\n";

  std::cout << "offline pipeline workers: " << util::thread_count()
            << " (set PATCHWORK_THREADS, 0 = serial)\n";
  const analysis::ProfileReport report = analysis::run_pipeline(run.captures);
  std::cout << "digested " << report.digest_stats.frames << " frames, "
            << report.distinct_flows << " distinct flows\n";

  std::filesystem::create_directories(options.out_dir);
  for (const auto& [name, csv] : report.csv_files) {
    const std::filesystem::path path =
        std::filesystem::path(options.out_dir) / name;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    out << csv;
    std::cout << "wrote " << path.string() << " (" << csv.size()
              << " bytes)\n";
  }

  // Every run leaves its identity next to the outputs: the manifest ties
  // the CSVs to seed/config/build, the exposition snapshots final metrics.
  const std::string manifest_path =
      (std::filesystem::path(options.out_dir) / "patchwork_manifest.json")
          .string();
  const std::string metrics_path =
      (std::filesystem::path(options.out_dir) / "patchwork_metrics.prom")
          .string();
  if (!obs::write_manifest(manifest_path, info) ||
      !obs::expose_to_file(metrics_path)) {
    std::cerr << "cannot write run manifest/metrics\n";
    return 1;
  }
  std::cout << "wrote " << manifest_path << "\nwrote " << metrics_path
            << "\n";

  if (obs::trace::write_env_configured()) {
    std::cout << "wrote " << obs::trace::env_configured_path()
              << " (Chrome trace-event JSON; open in Perfetto)\n";
  }

  if (options.archive_cmd == "append") {
    archive::ArchiveWriter writer;
    const archive::OpenError error = writer.open(options.archive_path);
    if (error != archive::OpenError::kNone) {
      std::cerr << "archive open failed: " << archive::to_string(error)
                << "\n";
      return 1;
    }
    analysis::EpochMeta meta;
    meta.label = options.label.empty()
                     ? "epoch" + std::to_string(writer.next_epoch_index())
                     : options.label;
    meta.start = run_start;
    meta.duration = env.clock().now() - run_start;
    meta.offered_bps = env.mflib().testbed_total_tx_bps(30 * util::kMinute);
    // The epoch embeds the manifest's deterministic section (the full
    // manifest's wall_clock half would differ run to run).
    meta.manifest_json = obs::manifest_deterministic_section(info);
    if (!writer.append(analysis::extract_epoch_record(report, meta))) {
      std::cerr << "archive append failed\n";
      return 1;
    }
    std::cout << "appended " << meta.label << " to " << options.archive_path
              << " (next epoch index " << writer.next_epoch_index() << ")\n";
  }
  return 0;
}
