// Trend queries over an archive's record sequence.
//
// ArchiveQuery answers longitudinal questions from the archive alone — no
// pcaps, no re-profiling: how the jumbo/IPv6/TCP shares move over time,
// how each site's load trends, and which flows stay heavy across epochs.
// Records are consumed in file order (oldest first); trend methods emit
// one point per stored record (a rollup contributes one aggregated point
// covering its span), and whole-archive totals are a left fold in the same
// order the compactor uses, so totals and top-K agree with record.hpp's
// compaction guarantees.
//
// Queries can be windowed: a QueryWindow restricts the fold to records
// whose epoch span and time span overlap the requested ranges, applied
// *before* any aggregation, so totals over a window never include
// out-of-window mass. (A rollup that straddles a window edge is included
// whole — the archive stores spans, not per-epoch residue; narrow windows
// want an archive compacted less aggressively.)
//
// load_records, which from_file and QueryCache both open a file through,
// surfaces the reader's damage diagnostics in an OpenStatus so
// callers can distinguish "empty archive" from "archive with its tail torn
// off" — a silent difference before, now a warning surface for the CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "archive/reader.hpp"
#include "archive/record.hpp"
#include "archive/sketch.hpp"
#include "net/protocol.hpp"

namespace patchwork::archive {

/// Inclusive bounds on epoch index and start time; unset bounds are open.
/// A record passes when its [first_epoch, last_epoch] and
/// [start_nanos, start_nanos + duration_nanos] spans both overlap the
/// window (overlap, not containment: rollups cover ranges).
struct QueryWindow {
  std::optional<std::uint64_t> from_epoch;
  std::optional<std::uint64_t> to_epoch;
  std::optional<std::uint64_t> from_nanos;
  std::optional<std::uint64_t> to_nanos;

  bool everything() const {
    return !from_epoch && !to_epoch && !from_nanos && !to_nanos;
  }
  bool contains(const EpochRecord& record) const;

  bool operator==(const QueryWindow&) const = default;
};

/// What opening the archive found, beyond success/failure: the damage
/// diagnostics the reader counted while skipping bad blocks.
struct OpenStatus {
  OpenError error = OpenError::kNone;
  /// CRC-failed, undecodable or a copy of an earlier record block; skipped.
  std::uint64_t corrupt_blocks = 0;
  bool damaged_tail = false;          ///< Truncated/unframeable tail dropped.
  std::uint64_t valid_bytes = 0;      ///< Prefix the reader could frame.
  std::uint64_t skipped_newer = 0;    ///< Blocks from a newer build, skipped.

  bool ok() const { return error == OpenError::kNone; }
  /// True when the file opened and every byte was accounted for.
  bool clean() const {
    return ok() && corrupt_blocks == 0 && !damaged_tail && skipped_newer == 0;
  }
};

/// Every live record of the archive at `path`, in logical order, or
/// nullopt when the open fails. *status (when non-null) receives the open
/// error plus the damage diagnostics for the warn path.
std::optional<std::vector<EpochRecord>> load_records(const std::string& path,
                                                     OpenStatus* status);

class ArchiveQuery {
 public:
  /// Takes `records` and drops those outside `window`.
  explicit ArchiveQuery(std::vector<EpochRecord>&& records,
                        const QueryWindow& window = {});
  /// Copies only the records inside `window`, leaving `records` shared.
  explicit ArchiveQuery(const std::vector<EpochRecord>& records,
                        const QueryWindow& window = {});

  /// Load `path` via load_records, keeping only records in `window`. On
  /// failure returns an empty query.
  static ArchiveQuery from_file(const std::string& path,
                                const QueryWindow& window,
                                OpenStatus* status = nullptr);

  /// One trend sample: a stored record reduced to a single value.
  struct TrendPoint {
    std::string label;
    std::uint64_t first_epoch = 0;
    std::uint64_t last_epoch = 0;
    std::uint32_t epoch_count = 1;
    std::uint64_t start_nanos = 0;
    bool rollup = false;
    double value = 0.0;
  };

  const std::vector<EpochRecord>& records() const { return records_; }
  std::size_t record_count() const { return records_.size(); }
  /// Raw epochs covered (rollups count their whole span).
  std::uint64_t epochs_covered() const;
  /// The window the records were filtered through (default: everything).
  const QueryWindow& window() const { return window_; }

  // --- per-record trends --------------------------------------------------
  /// Fraction of frames at or above the paper's 1519-byte jumbo edge.
  std::vector<TrendPoint> jumbo_share() const;
  /// Fraction of frames whose stack carries the protocol.
  std::vector<TrendPoint> protocol_share(net::Protocol protocol) const;
  std::vector<TrendPoint> ipv6_share() const;
  std::vector<TrendPoint> tcp_share() const;
  /// Mean offered load per epoch within each record, bits/second.
  std::vector<TrendPoint> offered_bps() const;
  /// Distinct-flow snippets per record (per-epoch distinct counts summed).
  std::vector<TrendPoint> flow_snippets() const;
  /// Captured wire bytes for one site per record (0 where absent).
  std::vector<TrendPoint> site_wire_bytes(const std::string& site) const;
  /// Suspected switch-side drops for one site per record.
  std::vector<TrendPoint> site_switch_drops(const std::string& site) const;

  /// Every site name appearing anywhere in the archive, sorted.
  std::vector<std::string> sites() const;

  // --- whole-archive aggregates -------------------------------------------
  /// Left fold of all in-window records, oldest first (empty when none).
  const EpochRecord& totals() const { return totals_; }
  /// The k heaviest flows across the whole archive, with error bounds.
  std::vector<TopFlowSketch::Entry> top_flows(std::size_t k) const;

 private:
  template <typename Fn>
  std::vector<TrendPoint> trend(Fn&& value_of) const;
  /// Folds records_ into totals_.
  void fold();

  std::vector<EpochRecord> records_;
  EpochRecord totals_;
  QueryWindow window_;
};

}  // namespace patchwork::archive
