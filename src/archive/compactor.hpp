// Rollup compaction: keep the archive's live image under a storage budget
// by merging the oldest records into summary rollups.
//
// One compaction pass groups consecutive records from the oldest end into
// runs of `group_size` and folds each group left-to-right (oldest first)
// into a single rollup. Group merges are independent, so they run through
// util::parallel_map — the output depends only on the grouping, never the
// schedule, so compaction is deterministic at any worker count. Passes
// repeat (rollups merging into higher-level rollups) until the projected
// live image fits the budget or a single record remains.
//
// Commits come in two forms:
//   - Incremental: each new rollup is appended as a kPendingRollup block,
//     followed by one kSupersede marker that commits them all and retires
//     the records they replace. Bytes written per commit are bounded by
//     the rollup sizes, never the archive size; the superseded blocks stay
//     on disk as garbage. A crash before the marker leaves the raw records
//     authoritative (the orphan rollup is ignored), so the commit is atomic
//     at marker granularity and re-running the compaction converges to the
//     same logical archive.
//   - Whole-file rewrite (GC): sheds garbage, corrupt blocks, and damaged
//     tails by atomically rewriting the live records. Runs when asked
//     (gc_archive) or when the file is damaged; the garbage incremental
//     commits leave waits for gc_archive.
//
// Compaction preserves every sum-derived query answer exactly (the merges
// are commutative-sum folds) and keeps top-K flow answers within the
// sketch's error bound; see record.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "archive/reader.hpp"
#include "archive/record.hpp"

namespace patchwork::archive {

struct CompactionOptions {
  /// Target upper bound for the archive's *live image* (header plus the
  /// blocks backing logical records), in bytes. The compactor stops
  /// merging once the projected image fits (or one record remains — a
  /// single rollup cannot shrink further).
  std::uint64_t storage_budget_bytes = 256 * 1024;
  /// Consecutive records folded into one rollup per pass.
  std::size_t group_size = 4;
};

struct CompactionResult {
  OpenError error = OpenError::kNone;
  bool changed = false;  ///< False when already under budget (a no-op).
  bool gc = false;       ///< A whole-file rewrite happened.
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  std::uint64_t bytes_appended = 0;  ///< Incremental commit size.
  std::size_t records_before = 0;
  std::size_t records_after = 0;
  std::size_t rollups_committed = 0;
  std::size_t passes = 0;

  bool ok() const { return error == OpenError::kNone; }
};

/// A compaction decision before any IO: the folded record sequence plus,
/// for each output record, the half-open range of *input* indices it
/// covers (cover width 1 = the input record untouched; width > 1 = a new
/// rollup folded from that run). The cover ranges are what lets the
/// incremental commit name exactly the records each rollup supersedes.
struct CompactionPlan {
  std::vector<EpochRecord> records;
  std::vector<std::pair<std::size_t, std::size_t>> cover;
  std::size_t passes = 0;
};

/// Pure form: fold `records` (file order, oldest first) under the options.
/// `records` comes back unchanged when it already fits.
CompactionPlan plan_compaction(std::vector<EpochRecord> records,
                               const CompactionOptions& options);

/// Read `path`, compact, and commit incrementally (whole-file rewrite only
/// for a damaged file; see above).
/// Idempotent: a second run over a compacted archive under the same budget
/// is a byte-level no-op.
CompactionResult compact_archive(const std::string& path,
                                 const CompactionOptions& options);

/// Force a whole-file rewrite that sheds superseded blocks, orphaned
/// pending rollups, markers, corrupt blocks, and damaged tails. A no-op
/// (and byte-untouched) when the file is already clean.
CompactionResult gc_archive(const std::string& path);

}  // namespace patchwork::archive
