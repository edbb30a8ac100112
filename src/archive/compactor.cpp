#include "archive/compactor.hpp"

#include <numeric>

#include "archive/writer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/file_io.hpp"
#include "util/parallel.hpp"

namespace patchwork::archive {

namespace {

std::uint64_t block_bytes(const EpochRecord& record) {
  return kBlockHeaderSize + encode_record(record).size();
}

std::uint64_t image_bytes(const std::vector<std::uint64_t>& sizes) {
  return std::accumulate(sizes.begin(), sizes.end(),
                         std::uint64_t{kFileHeaderSize});
}

/// Whole-file rewrite commit: atomically replaces `path` with the live
/// records, shedding garbage, corrupt blocks, and damaged tails.
void rewrite_live(const std::string& path,
                  const std::vector<EpochRecord>& records,
                  CompactionResult& result) {
  if (!write_all(path, records)) {
    result.error = OpenError::kIo;
    return;
  }
  result.changed = true;
  result.gc = true;
  result.bytes_after = util::file_size_bytes(path).value_or(0);
  obs::registry()
      .counter("patchwork_archive_compactions_total",
               "Archive compactions that rewrote the file")
      .add(1);
}

}  // namespace

CompactionPlan plan_compaction(std::vector<EpochRecord> records,
                               const CompactionOptions& options) {
  const std::size_t group_size = options.group_size < 2 ? 2
                                                        : options.group_size;
  CompactionPlan plan;
  plan.records = std::move(records);
  plan.cover.reserve(plan.records.size());
  for (std::size_t i = 0; i < plan.records.size(); ++i) {
    plan.cover.push_back({i, i + 1});
  }
  std::vector<std::uint64_t> sizes = util::parallel_map(
      plan.records, [](const EpochRecord& r) { return block_bytes(r); });

  while (plan.records.size() > 1 &&
         image_bytes(sizes) > options.storage_budget_bytes) {
    ++plan.passes;

    // Group consecutive records from the oldest end and fold each group
    // left-to-right. The folds are independent, so they run in parallel;
    // each group's result depends only on its members and order, never on
    // the schedule.
    std::vector<std::pair<std::size_t, std::size_t>> groups;  // [begin, end)
    for (std::size_t begin = 0; begin < plan.records.size();
         begin += group_size) {
      groups.push_back(
          {begin, std::min(begin + group_size, plan.records.size())});
    }
    struct Merged {
      EpochRecord record;
      std::uint64_t bytes = 0;
    };
    const std::vector<Merged> merged = util::parallel_map(
        groups, [&](const std::pair<std::size_t, std::size_t>& g) {
          EpochRecord fold = plan.records[g.first];
          for (std::size_t i = g.first + 1; i < g.second; ++i) {
            fold.merge_from(plan.records[i]);
          }
          return Merged{std::move(fold), 0};
        });
    std::vector<std::uint64_t> merged_sizes = util::parallel_map(
        merged, [](const Merged& m) { return block_bytes(m.record); });

    // Accept merges greedily oldest-first: newer epochs keep raw fidelity
    // whenever the budget allows. `projected` starts as the current image
    // and swaps one group's members for its rollup at a time.
    std::uint64_t projected = image_bytes(sizes);
    std::size_t accepted = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (projected <= options.storage_budget_bytes) break;
      std::uint64_t members = 0;
      for (std::size_t i = groups[g].first; i < groups[g].second; ++i) {
        members += sizes[i];
      }
      projected = projected - members + merged_sizes[g];
      ++accepted;
    }
    if (accepted == 0) break;

    std::vector<EpochRecord> next;
    std::vector<std::pair<std::size_t, std::size_t>> next_cover;
    std::vector<std::uint64_t> next_sizes;
    for (std::size_t g = 0; g < accepted; ++g) {
      next.push_back(merged[g].record);
      // A fold's cover is the span of *original input* records it absorbed,
      // composed across passes (its members may themselves be folds).
      next_cover.push_back({plan.cover[groups[g].first].first,
                            plan.cover[groups[g].second - 1].second});
      next_sizes.push_back(merged_sizes[g]);
    }
    const std::size_t tail_begin = groups[accepted - 1].second;
    for (std::size_t i = tail_begin; i < plan.records.size(); ++i) {
      next.push_back(std::move(plan.records[i]));
      next_cover.push_back(plan.cover[i]);
      next_sizes.push_back(sizes[i]);
    }
    if (next.size() >= plan.records.size()) break;  // No shrink: stuck.
    plan.records = std::move(next);
    plan.cover = std::move(next_cover);
    sizes = std::move(next_sizes);
  }
  return plan;
}

CompactionResult compact_archive(const std::string& path,
                                 const CompactionOptions& options) {
  OBS_SPAN("archive/compact");
  CompactionResult result;

  ArchiveReader reader;
  result.error = reader.open(path);
  if (!result.ok()) return result;
  result.bytes_before = util::file_size_bytes(path).value_or(0);
  result.records_before = reader.records().size();
  const bool dirty = reader.damaged_tail() || reader.corrupt_blocks() > 0;

  std::vector<EpochRecord> input = reader.take_records();
  std::vector<RecordIdent> input_idents;
  input_idents.reserve(input.size());
  for (const EpochRecord& r : input) input_idents.push_back(record_ident(r));

  CompactionPlan plan = plan_compaction(std::move(input), options);
  result.records_after = plan.records.size();
  result.passes = plan.passes;

  if (dirty) {
    // The file carries damage an append cannot shed.
    rewrite_live(path, plan.records, result);
    return result;
  }

  // Incremental commit: append every new rollup as a pending block, then
  // one supersede marker that commits them all. The marker is the atomicity
  // point — a crash anywhere before it leaves the raw records authoritative
  // and the partial append as garbage (truncated tails are dropped by the
  // next open; complete orphans wait for GC).
  SupersedeMarker marker;
  std::vector<std::uint8_t> commit;
  for (std::size_t i = 0; i < plan.records.size(); ++i) {
    const auto [begin, end] = plan.cover[i];
    if (end - begin <= 1) continue;  // An input record the plan kept as-is.
    append_block(commit, BlockType::kPendingRollup,
                 encode_record(plan.records[i]));
    SupersedeMarker::Commit c;
    c.rollup = record_ident(plan.records[i]);
    c.replaced.assign(input_idents.begin() + static_cast<std::ptrdiff_t>(begin),
                      input_idents.begin() + static_cast<std::ptrdiff_t>(end));
    marker.commits.push_back(std::move(c));
  }
  if (!marker.commits.empty()) {
    append_block(commit, BlockType::kSupersede,
                 encode_supersede_marker(marker));
    if (!util::append_file(path, commit)) {
      result.error = OpenError::kIo;
      return result;
    }
    result.changed = true;
    result.bytes_appended = commit.size();
    result.rollups_committed = marker.commits.size();
    obs::registry()
        .counter("patchwork_archive_incremental_commits_total",
                 "Compaction commits appended as pending rollups + marker")
        .add(1);
  }

  // The commit grew the file while shrinking the live image; gc_archive
  // sheds the garbage when asked.
  result.bytes_after = result.bytes_before + result.bytes_appended;
  return result;
}

CompactionResult gc_archive(const std::string& path) {
  OBS_SPAN("archive/gc");
  CompactionResult result;

  ArchiveReader reader;
  result.error = reader.open(path);
  if (!result.ok()) return result;
  result.bytes_before = util::file_size_bytes(path).value_or(0);
  result.records_before = reader.records().size();
  result.records_after = result.records_before;

  if (reader.garbage_bytes() == 0 && !reader.damaged_tail() &&
      reader.corrupt_blocks() == 0) {
    result.bytes_after = result.bytes_before;
    return result;  // Nothing to shed; leave the file byte-untouched.
  }
  rewrite_live(path, reader.take_records(), result);
  return result;
}

}  // namespace patchwork::archive
