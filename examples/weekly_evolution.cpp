// Weekly profile evolution — the Section 9 community initiative.
//
// "Patchwork now runs weekly to create a profile of FABRIC's network
// traffic ... it would be useful to produce regular updates to the
// analysis of FABRIC's network profile." This example runs Patchwork once
// a week across a simulated season, but unlike a one-off report it keeps
// history the way a real weekly service must: every run is boiled down to
// an epoch record and appended to the longitudinal archive
// (src/archive), a background exporter keeps a Prometheus snapshot file
// fresh while the season runs, the oldest weeks are compacted into a
// rollup under a storage budget, and the final trend table is answered
// from the archive file alone — no pcap or CSV is ever re-read.
//
// Build & run:  ./build/examples/weekly_evolution
#include <chrono>
#include <cstdio>
#include <iostream>

#include "analysis/epoch_extract.hpp"
#include "analysis/pipeline.hpp"
#include "archive/compactor.hpp"
#include "archive/query.hpp"
#include "archive/writer.hpp"
#include "core/coordinator.hpp"
#include "obs/file_exporter.hpp"
#include "obs/manifest.hpp"
#include "sim/clock.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"
#include "util/file_io.hpp"
#include "util/table.hpp"

using namespace patchwork;

int main() {
  util::Rng rng(31337);
  testbed::Federation fed = testbed::make_fabric_like_federation(rng);
  testbed::ActivityModel activity;
  telemetry::MfLib mflib(fed);
  traffic::TrafficEngine traffic(
      fed, activity, traffic::make_site_profiles(rng, fed.site_count()),
      rng.fork());
  sim::Clock clock;
  core::Environment env(clock, fed, mflib, traffic, rng);
  // Start the season in early autumn, heading into the November ramp.
  traffic.set_year_start_offset(static_cast<util::Nanos>(38 * 7) *
                                util::kDay);
  env.advance(11 * util::kMinute);

  core::ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 2;
  config.plan.max_frames_per_sample = 1200;
  config.crash_probability = 0.0;
  config.capture.snaplen = 200;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;

  // Fresh archive per invocation; a real deployment would keep appending.
  const std::string archive_path = "weekly_evolution.pwar";
  std::remove(archive_path.c_str());
  archive::ArchiveWriter writer;
  if (writer.open(archive_path) != archive::OpenError::kNone) {
    std::cerr << "cannot open " << archive_path << "\n";
    return 1;
  }

  // Keep a Prometheus snapshot fresh on disk while the season runs, the
  // way the paper's deployment stays scrapeable mid-profile.
  auto exporter = obs::start_file_exporter("weekly_evolution_metrics.prom",
                                           std::chrono::milliseconds(200));

  for (int week = 0; week < 10; ++week) {
    const util::Nanos week_start = env.clock().now();
    core::Coordinator coordinator(env, config);
    const core::ProfileRun run = coordinator.run_all_experiment();
    const analysis::ProfileReport report =
        analysis::run_pipeline(run.captures);

    obs::ManifestInfo info;
    info.seed = 31337;
    info.config = {{"week", std::to_string(38 + week)},
                   {"cycles", "2"},
                   {"samples_per_run", "2"},
                   {"capture_method", "fpga"}};
    analysis::EpochMeta meta;
    meta.label = "week" + std::to_string(38 + week);
    meta.start = week_start;
    meta.duration = 7 * util::kDay;
    meta.offered_bps = env.mflib().testbed_total_tx_bps(30 * util::kMinute);
    meta.manifest_json = obs::manifest_deterministic_section(info);
    if (!writer.append(analysis::extract_epoch_record(report, meta))) {
      std::cerr << "archive append failed\n";
      return 1;
    }
    env.advance(7 * util::kDay - (env.clock().now() % (7 * util::kDay)));
  }
  exporter->stop();
  std::cout << "metrics snapshots written: " << exporter->snapshots_written()
            << " (weekly_evolution_metrics.prom)\n";

  // Storage discipline: merge the oldest weeks into one rollup, keeping
  // the recent ones raw. Budget = 70% of the raw file, so one pass folds
  // the head of the season.
  const auto raw_bytes = util::file_size_bytes(archive_path).value_or(0);
  archive::CompactionOptions compaction;
  compaction.storage_budget_bytes = raw_bytes * 7 / 10;
  compaction.group_size = 4;
  const archive::CompactionResult compacted =
      archive::compact_archive(archive_path, compaction);
  std::cout << "archive: " << compacted.bytes_before << " -> "
            << compacted.bytes_after << " bytes, "
            << compacted.records_before << " -> " << compacted.records_after
            << " records after compaction\n\n";

  // From here on, only the archive file speaks.
  archive::OpenStatus open_status;
  const archive::ArchiveQuery query = archive::ArchiveQuery::from_file(
      archive_path, archive::QueryWindow{}, &open_status);
  if (!open_status.ok()) {
    std::cerr << "cannot query archive: "
              << archive::to_string(open_status.error) << "\n";
    return 1;
  }

  const auto jumbo = query.jumbo_share();
  const auto ipv6 = query.ipv6_share();
  const auto tcp = query.tcp_share();
  const auto offered = query.offered_bps();
  const auto flows = query.flow_snippets();
  util::TextTable table({"Epochs", "Weeks", "Avg Tbps", "Jumbo share",
                         "IPv6 share", "TCP %", "Flow snippets"});
  for (std::size_t i = 0; i < jumbo.size(); ++i) {
    table.add_row({jumbo[i].label, std::to_string(jumbo[i].epoch_count),
                   util::fmt_double(offered[i].value / 1e12, 2),
                   util::fmt_percent(jumbo[i].value, 1),
                   util::fmt_double(ipv6[i].value * 100.0, 2),
                   util::fmt_double(tcp[i].value * 100.0, 1),
                   std::to_string(
                       static_cast<std::uint64_t>(flows[i].value))});
  }
  table.print(std::cout);

  std::cout << "\nHeaviest flows across the whole season (sketch bounds: "
               "true bytes in [count-error, count]):\n";
  for (const auto& entry : query.top_flows(5)) {
    std::cout << "  " << entry.key << "  <= " << entry.count << " bytes"
              << " (overcount <= " << entry.error << ")\n";
  }

  std::cout << "\nReading the series: aggregate load climbs into the "
               "SC-week spike (weeks 45-46)\nand falls away after, while "
               "the jumbo share and protocol mix barely move —\nworkloads "
               "on the testbed are bursty in volume but persistent in "
               "character (B1/B3).\nThe rolled-up head of the season "
               "answers with the same shares it had raw:\nevery trend "
               "above is a sum fold, invariant under compaction.\n";
  return 0;
}
