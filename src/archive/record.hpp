// The archive's unit of storage: one epoch's derived profile records.
//
// A raw epoch is one ProfileRun boiled down to what longitudinal queries
// need — global and per-site frame-size histograms, protocol occurrence,
// TCP control and tagging composition, capture-loss accounting, per-site
// load, a top-K flow summary, and the run's manifest (deterministic
// section, embedded verbatim). A rollup is the same struct covering a
// span of epochs, produced by merge_from().
//
// The profile sums (HistCounts, HeaderOccurrenceCounts, TcpControlCounts,
// TaggingCounts, SiteEpochLoad) are declared here once. The Analyze fold
// accumulates into the same types, so extraction copies them whole, and
// each has one merge that both the fold's chunk merge and merge_from()
// call.
//
// Merge semantics: every field is either a sum (counters, histogram
// buckets, per-site loads joined by site name), a max (largest flow), a
// span extension (first/last epoch, start/duration), or a sketch fold.
// Sums and maxes are commutative and associative, so every sum-derived
// query answer (shares, loads, loss accounting) is invariant under any
// compaction grouping. The sketch is fold-order-sensitive once it
// truncates, so the compactor and the query layer both fold records
// oldest-first: a prefix rollup reproduces the raw query's fold exactly,
// and any grouping keeps top-K counts within the sketch's error bound.
//
// Federation: records carry an `origin` deployment tag (empty for a local,
// unfederated archive). Epoch indices are only unique per deployment, so
// (origin, first_epoch..last_epoch, level) — a RecordIdent — is the
// identity cross-archive merges and supersede markers address records by.
// Merging records from different origins qualifies the span label with
// each side's origin so "week38" from two testbeds stays distinguishable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "archive/sketch.hpp"
#include "net/protocol.hpp"

namespace patchwork::archive {

/// The fixed-edge histogram: explicit edges plus per-bucket counts. The
/// Analyze fold bins frame and flow sizes into it, and the archive stores
/// it as it stands, so a record is self-describing (no dependence on the
/// writer's bucket tables). Bucket i covers [edges[i], edges[i+1]); values
/// below the first edge count as underflow, at or above the last as
/// overflow.
struct HistCounts {
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;

  HistCounts() = default;
  /// Zero counts over `edges`, which must be strictly increasing and hold
  /// at least two entries.
  explicit HistCounts(std::vector<double> edges);

  /// Count `value` into its bucket. Without a layout it is underflow.
  void add(double value, std::uint64_t count = 1);

  std::uint64_t total() const;
  /// Fraction of all samples (under/overflow included) in bucket i.
  double fraction(std::size_t i) const;
  /// fraction(i) of the bucket whose lower edge is `lo`; 0 if none is.
  double fraction_in(double lo) const;
  /// Human-readable label like "[65, 128)".
  std::string bucket_label(std::size_t i) const;
  /// Fraction of all samples at or above `lo`, plus overflow (e.g. lo=1519
  /// gives the jumbo share under the paper edges). A bucket that straddles
  /// `lo` contributes the overlap fraction of its count (uniform-within-
  /// bucket attribution), so off-edge thresholds are no longer undercounted.
  double fraction_at_or_above(double lo) const;
  /// Sum-invariant merge. Identical layouts add bucket-wise; mismatched
  /// layouts are both re-binned into the coarsest common layout (the
  /// intersection of the two edge sets — exact, since neither side's
  /// buckets straddle a shared edge). Buckets outside the common span fall
  /// back to underflow/overflow, so total() is preserved under any merge.
  void merge(const HistCounts& other);

  bool operator==(const HistCounts&) const = default;
};

/// The paper's jumbo lower edge (1519: above the 1518 standard max).
inline constexpr double kJumboEdgeBytes = 1519.0;

/// Header occurrence (Fig. 12): frames seen and each protocol's
/// occurrences, indexed by net::Protocol. Ethernet can exceed `frames`
/// because pseudowire/VXLAN frames carry Ethernet twice.
struct HeaderOccurrenceCounts {
  std::uint64_t frames = 0;
  std::vector<std::uint64_t> occurrences;

  /// Occurrences of `p` per hundred frames.
  double percent(net::Protocol p) const;
  /// Sums; the shorter occurrence vector grows to the longer one's size.
  void merge(const HeaderOccurrenceCounts& other);

  bool operator==(const HeaderOccurrenceCounts&) const = default;
};

/// TCP control information (Section 4: e.g. RST-flagged packets).
struct TcpControlCounts {
  std::uint64_t tcp_frames = 0;
  std::uint64_t syn = 0;
  std::uint64_t fin = 0;
  std::uint64_t rst = 0;
  std::uint64_t pure_ack = 0;  ///< ACK set, no payload on the wire.

  void merge(const TcpControlCounts& other);

  bool operator==(const TcpControlCounts&) const = default;
};

/// Encapsulation / tagging (Fig. 12's VLAN/MPLS finding).
struct TaggingCounts {
  std::uint64_t frames = 0;
  std::uint64_t vlan_tagged = 0;
  std::uint64_t mpls_tagged = 0;
  std::uint64_t both_tagged = 0;
  std::uint64_t untagged = 0;

  void merge(const TaggingCounts& other);

  bool operator==(const TaggingCounts&) const = default;
};

/// One site's load over a profile, an epoch, or a rollup's span: how many
/// sample windows it contributed, what hit the wire and what survived to
/// pcap, and its frame sizes.
struct SiteEpochLoad {
  std::string site;
  std::uint64_t samples = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t pcap_bytes = 0;
  std::uint64_t switch_drops_suspected = 0;
  HistCounts frame_sizes;

  /// Sums another row of the same site into this one.
  void merge(const SiteEpochLoad& other);

  bool operator==(const SiteEpochLoad&) const = default;
};

struct EpochRecord {
  // --- identity / span ---------------------------------------------------
  std::uint32_t level = 0;  ///< 0 = raw epoch; >=1 = rollup generation.
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  std::uint32_t epoch_count = 1;
  std::string label;  ///< "week38", or "week38..week41" for rollups.
  /// Deployment tag for federated archives ("" = local). Epoch indices are
  /// per-deployment, so origin disambiguates colliding indices and labels
  /// when archives from several deployments merge into one.
  std::string origin;
  std::uint64_t start_nanos = 0;
  std::uint64_t duration_nanos = 0;  ///< Span from start to last epoch end.
  double offered_bps_sum = 0.0;  ///< Sum over covered epochs (divide by
                                 ///< epoch_count for the trend average).

  // --- capture-loss accounting -------------------------------------------
  std::uint64_t samples = 0;
  std::uint64_t frames = 0;
  std::uint64_t bad_records = 0;
  std::uint64_t truncated_frames = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t switch_drops_suspected = 0;
  std::uint64_t pcap_bytes = 0;

  // --- profile composition (the Analyze fold's sums) ----------------------
  HistCounts frame_sizes;
  HeaderOccurrenceCounts header_occurrence;
  TcpControlCounts tcp_control;
  TaggingCounts tagging;
  /// Sum of per-epoch distinct flow counts (flow *snippets*: a flow alive
  /// in two epochs counts twice — the mergeable reading of "distinct").
  std::uint64_t flow_snippets = 0;
  std::uint64_t largest_flow_bytes = 0;  ///< Max-merge.

  std::vector<SiteEpochLoad> site_loads;  ///< Sorted by site name.
  TopFlowSketch top_flows;

  /// Raw epochs: the run manifest's deterministic section, verbatim.
  /// Rollups drop it (a merged manifest has no meaning).
  std::string manifest_json;

  bool is_rollup() const { return level > 0; }

  /// Fold `other` (the chronologically later record) into this one. When
  /// the origins differ, the span label qualifies each end with its origin
  /// ("testbedA:week3..testbedB:week5") and the rollup's own origin becomes
  /// empty (mixed); same-origin merges keep the tag.
  void merge_from(const EpochRecord& other);

  bool operator==(const EpochRecord&) const = default;
};

/// The identity supersede markers and federation address a record by:
/// epoch indices are per-deployment, so origin is part of the key.
struct RecordIdent {
  std::string origin;
  std::uint32_t level = 0;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;

  bool operator==(const RecordIdent&) const = default;
};

/// The leading fields of an encoded record, through start_nanos: its
/// identity, epoch count, label and start time. Supersede matching and
/// chronological placement read nothing else, so the assembler decodes
/// only this much of a record until it knows the record is live.
struct RecordHead {
  std::uint32_t level = 0;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  std::uint32_t epoch_count = 1;
  std::string label;
  std::string origin;
  std::uint64_t start_nanos = 0;
};

RecordIdent record_ident(const EpochRecord& record);
RecordIdent record_ident(const RecordHead& head);

/// The payload of a kSupersede block: commits the pending rollups named in
/// `commits` (appended just before the marker) and retires the records each
/// one replaces. The marker is what makes an incremental compaction commit
/// atomic: a pending rollup without a matching marker is invisible, so a
/// crash between the rollup append and the marker append leaves the raw
/// records authoritative and the orphan block as garbage for the next GC.
struct SupersedeMarker {
  struct Commit {
    RecordIdent rollup;                 ///< Pending rollup to activate.
    std::vector<RecordIdent> replaced;  ///< Records it supersedes.

    bool operator==(const Commit&) const = default;
  };
  std::vector<Commit> commits;

  bool operator==(const SupersedeMarker&) const = default;
};

/// Deterministic payload codec (big-endian, length-prefixed strings).
std::vector<std::uint8_t> encode_record(const EpochRecord& record);
/// Strict decode: any out-of-bounds length, trailing garbage, or a top-flow
/// sketch violating its own invariants (entries above capacity, error above
/// count, a duplicate key) fails. `payload_version` selects the wire
/// layout: version 1 predates the origin tag, version 2 carries it.
bool decode_record(std::span<const std::uint8_t> payload,
                   std::uint8_t payload_version, EpochRecord* out);
/// Current-version convenience (tests, round-trips).
bool decode_record(std::span<const std::uint8_t> payload, EpochRecord* out);
/// Reads only the record's head. Fails when the prefix does not fit; a
/// head that reads may still belong to a payload decode_record rejects.
bool decode_record_head(std::span<const std::uint8_t> payload,
                        std::uint8_t payload_version, RecordHead* out);

std::vector<std::uint8_t> encode_supersede_marker(const SupersedeMarker& m);
bool decode_supersede_marker(std::span<const std::uint8_t> payload,
                             SupersedeMarker* out);

}  // namespace patchwork::archive
