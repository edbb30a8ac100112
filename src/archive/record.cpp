#include "archive/record.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <sstream>
#include <utility>

#include "archive/format.hpp"
#include "util/byte_io.hpp"

namespace patchwork::archive {

HistCounts::HistCounts(std::vector<double> edges_in)
    : edges(std::move(edges_in)) {
  assert(edges.size() >= 2);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    assert(edges[i] > edges[i - 1]);
  }
  counts.assign(edges.size() - 1, 0);
}

void HistCounts::add(double value, std::uint64_t count) {
  if (counts.empty() || value < edges.front()) {
    underflow += count;
    return;
  }
  if (value >= edges.back()) {
    overflow += count;
    return;
  }
  // Binary search for the bucket containing `value`.
  std::size_t lo = 0, hi = counts.size() - 1;
  while (lo < hi) {
    std::size_t mid = (lo + hi + 1) / 2;
    if (value >= edges[mid]) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  counts[lo] += count;
}

std::uint64_t HistCounts::total() const {
  std::uint64_t sum = underflow + overflow;
  for (std::uint64_t c : counts) sum += c;
  return sum;
}

double HistCounts::fraction(std::size_t i) const {
  const std::uint64_t all = total();
  if (all == 0) return 0.0;
  return static_cast<double>(counts.at(i)) / static_cast<double>(all);
}

double HistCounts::fraction_in(double lo) const {
  for (std::size_t i = 0; i < counts.size() && i < edges.size(); ++i) {
    if (edges[i] == lo) return fraction(i);
  }
  return 0.0;
}

std::string HistCounts::bucket_label(std::size_t i) const {
  std::ostringstream os;
  os << "[" << edges.at(i) << ", " << edges.at(i + 1) << ")";
  return os.str();
}

double HistCounts::fraction_at_or_above(double lo) const {
  const std::uint64_t all = total();
  if (all == 0) return 0.0;
  double hits = static_cast<double>(overflow);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i >= edges.size()) break;
    const double a = edges[i];
    if (i + 1 >= edges.size()) {
      // Trailing bucket without an upper edge (malformed shape): classify
      // by its lower edge alone, as before.
      if (a >= lo) hits += static_cast<double>(counts[i]);
      continue;
    }
    const double b = edges[i + 1];
    if (a >= lo) {
      hits += static_cast<double>(counts[i]);
    } else if (b > lo && b > a) {
      // The bucket straddles lo: attribute the overlap fraction, so an
      // off-edge threshold is no longer systematically undercounted.
      hits += static_cast<double>(counts[i]) * ((b - lo) / (b - a));
    }
  }
  return hits / static_cast<double>(all);
}

namespace {

/// Re-bin `src` into `dst`, whose edges are a subset of src's (plus
/// under/overflow). Because dst's edges all appear in src's, no src bucket
/// straddles a dst edge: each bucket lands wholly in one dst bucket, in
/// underflow (below dst's first edge), or in overflow (at/above the last).
void rebin_into(HistCounts& dst, const HistCounts& src) {
  dst.underflow += src.underflow;
  dst.overflow += src.overflow;
  for (std::size_t i = 0; i < src.counts.size(); ++i) {
    const std::uint64_t c = src.counts[i];
    if (c == 0) continue;
    if (dst.edges.empty() || i >= src.edges.size()) {
      // No common layout (or a count with no lower edge): the shape is
      // lost but the mass is kept, so total() stays sum-invariant.
      dst.underflow += c;
      continue;
    }
    const double a = src.edges[i];
    if (a < dst.edges.front()) {
      // Entirely below the common span: dst's first edge is also one of
      // src's edges, so a bucket starting below it ends at or below it.
      dst.underflow += c;
      continue;
    }
    if (a >= dst.edges.back()) {
      dst.overflow += c;
      continue;
    }
    const auto it =
        std::upper_bound(dst.edges.begin(), dst.edges.end(), a);
    const std::size_t j =
        static_cast<std::size_t>(it - dst.edges.begin()) - 1;
    if (j < dst.counts.size()) {
      dst.counts[j] += c;
    } else {
      dst.overflow += c;
    }
  }
}

}  // namespace

void HistCounts::merge(const HistCounts& other) {
  if (edges == other.edges && counts.size() == other.counts.size()) {
    underflow += other.underflow;
    overflow += other.overflow;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] += other.counts[i];
    }
    return;
  }
  if (other.edges.empty()) {
    // The other side has no layout: keep ours; its unclassifiable bucket
    // mass joins underflow so total() still sums.
    underflow += other.underflow;
    overflow += other.overflow;
    for (std::uint64_t c : other.counts) underflow += c;
    return;
  }
  if (edges.empty()) {
    // Adopt the other's layout; our mass joins its under/overflow.
    std::uint64_t uf = underflow;
    const std::uint64_t of = overflow;
    for (std::uint64_t c : counts) uf += c;
    *this = other;
    underflow += uf;
    overflow += of;
    return;
  }
  // Heterogeneous layouts (federated deployments rarely share a config):
  // re-bin both sides into the coarsest common layout — the intersection
  // of the edge sets. Each side's buckets never straddle a shared edge, so
  // the re-binning is exact; mass outside the common span falls back to
  // underflow/overflow. total() is preserved under any merge.
  HistCounts merged;
  std::set_intersection(edges.begin(), edges.end(), other.edges.begin(),
                        other.edges.end(),
                        std::back_inserter(merged.edges));
  merged.counts.assign(
      merged.edges.size() > 1 ? merged.edges.size() - 1 : 0, 0);
  rebin_into(merged, *this);
  rebin_into(merged, other);
  *this = std::move(merged);
}

double HeaderOccurrenceCounts::percent(net::Protocol p) const {
  const auto i = static_cast<std::size_t>(p);
  if (frames == 0 || i >= occurrences.size()) return 0.0;
  return 100.0 * static_cast<double>(occurrences[i]) /
         static_cast<double>(frames);
}

void HeaderOccurrenceCounts::merge(const HeaderOccurrenceCounts& other) {
  frames += other.frames;
  if (occurrences.size() < other.occurrences.size()) {
    occurrences.resize(other.occurrences.size(), 0);
  }
  for (std::size_t i = 0; i < other.occurrences.size(); ++i) {
    occurrences[i] += other.occurrences[i];
  }
}

void TcpControlCounts::merge(const TcpControlCounts& other) {
  tcp_frames += other.tcp_frames;
  syn += other.syn;
  fin += other.fin;
  rst += other.rst;
  pure_ack += other.pure_ack;
}

void TaggingCounts::merge(const TaggingCounts& other) {
  frames += other.frames;
  vlan_tagged += other.vlan_tagged;
  mpls_tagged += other.mpls_tagged;
  both_tagged += other.both_tagged;
  untagged += other.untagged;
}

void SiteEpochLoad::merge(const SiteEpochLoad& other) {
  samples += other.samples;
  frames += other.frames;
  wire_bytes += other.wire_bytes;
  pcap_bytes += other.pcap_bytes;
  switch_drops_suspected += other.switch_drops_suspected;
  frame_sizes.merge(other.frame_sizes);
}

void EpochRecord::merge_from(const EpochRecord& other) {
  level = std::max({level, other.level, std::uint32_t{1}});
  first_epoch = std::min(first_epoch, other.first_epoch);
  last_epoch = std::max(last_epoch, other.last_epoch);
  epoch_count += other.epoch_count;

  // Label: leading token of the oldest side, trailing token of the newest.
  // Cross-origin merges qualify each end with its deployment tag — epoch
  // labels are only unique per deployment.
  const auto leading = [](const std::string& l) {
    const std::size_t dots = l.find("..");
    return dots == std::string::npos ? l : l.substr(0, dots);
  };
  const auto trailing = [](const std::string& l) {
    const std::size_t dots = l.rfind("..");
    return dots == std::string::npos ? l : l.substr(dots + 2);
  };
  if (origin != other.origin) {
    const auto qualify = [](const std::string& o, const std::string& token) {
      return o.empty() ? token : o + ":" + token;
    };
    label = qualify(origin, leading(label)) + ".." +
            qualify(other.origin, trailing(other.label));
    origin.clear();  // Mixed origins: the rollup belongs to no single one.
  } else {
    label = leading(label) + ".." + trailing(other.label);
  }

  const std::uint64_t end = std::max(start_nanos + duration_nanos,
                                     other.start_nanos +
                                         other.duration_nanos);
  start_nanos = std::min(start_nanos, other.start_nanos);
  duration_nanos = end - start_nanos;
  offered_bps_sum += other.offered_bps_sum;

  samples += other.samples;
  frames += other.frames;
  bad_records += other.bad_records;
  truncated_frames += other.truncated_frames;
  malformed_frames += other.malformed_frames;
  switch_drops_suspected += other.switch_drops_suspected;
  pcap_bytes += other.pcap_bytes;

  frame_sizes.merge(other.frame_sizes);
  header_occurrence.merge(other.header_occurrence);
  tcp_control.merge(other.tcp_control);
  tagging.merge(other.tagging);
  flow_snippets += other.flow_snippets;
  largest_flow_bytes = std::max(largest_flow_bytes, other.largest_flow_bytes);

  std::map<std::string, SiteEpochLoad> by_site;
  for (SiteEpochLoad& load : site_loads) {
    by_site.emplace(load.site, std::move(load));
  }
  for (const SiteEpochLoad& load : other.site_loads) {
    auto [it, inserted] = by_site.emplace(load.site, load);
    if (!inserted) it->second.merge(load);
  }
  site_loads.clear();
  site_loads.reserve(by_site.size());
  for (auto& [site, load] : by_site) site_loads.push_back(std::move(load));

  top_flows.merge(other.top_flows);
  manifest_json.clear();  // A merged manifest has no meaning.
}

RecordIdent record_ident(const EpochRecord& record) {
  return {record.origin, record.level, record.first_epoch,
          record.last_epoch};
}

RecordIdent record_ident(const RecordHead& head) {
  return {head.origin, head.level, head.first_epoch, head.last_epoch};
}

namespace {

void put_f64(std::vector<std::uint8_t>& out, double v) {
  util::put_be64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  util::put_be32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_hist(std::vector<std::uint8_t>& out, const HistCounts& h) {
  util::put_be32(out, static_cast<std::uint32_t>(h.edges.size()));
  for (double e : h.edges) put_f64(out, e);
  util::put_be32(out, static_cast<std::uint32_t>(h.counts.size()));
  for (std::uint64_t c : h.counts) util::put_be64(out, c);
  util::put_be64(out, h.underflow);
  util::put_be64(out, h.overflow);
}

/// Bounds-checked sequential reader; any failed read poisons the cursor so
/// the decode can check ok() once at the end.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> buf) : buf_(buf) {}

  bool ok() const { return ok_; }
  bool exhausted() const { return ok_ && off_ == buf_.size(); }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return util::get_u8(buf_, off_ - 1);
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    return util::get_be32(buf_, off_ - 4);
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    return util::get_be64(buf_, off_ - 8);
  }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string string() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    return std::string(buf_.begin() + static_cast<std::ptrdiff_t>(off_ - len),
                       buf_.begin() + static_cast<std::ptrdiff_t>(off_));
  }

  /// Element-count prefix with a sanity bound: each element needs at least
  /// `min_elem_bytes` more input, so absurd counts fail fast instead of
  /// allocating.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (!ok_) return 0;
    if (min_elem_bytes > 0 &&
        n > (buf_.size() - off_) / min_elem_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || !util::fits(buf_, off_, n)) {
      ok_ = false;
      return false;
    }
    off_ += n;
    return true;
  }

  std::span<const std::uint8_t> buf_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

HistCounts get_hist(Cursor& c) {
  HistCounts h;
  h.edges.resize(c.count(8));
  for (double& e : h.edges) e = c.f64();
  h.counts.resize(c.count(8));
  for (std::uint64_t& v : h.counts) v = c.u64();
  h.underflow = c.u64();
  h.overflow = c.u64();
  return h;
}

void put_ident(std::vector<std::uint8_t>& out, const RecordIdent& ident) {
  put_string(out, ident.origin);
  util::put_be32(out, ident.level);
  util::put_be64(out, ident.first_epoch);
  util::put_be64(out, ident.last_epoch);
}

RecordIdent get_ident(Cursor& c) {
  RecordIdent ident;
  ident.origin = c.string();
  ident.level = c.u32();
  ident.first_epoch = c.u64();
  ident.last_epoch = c.u64();
  return ident;
}

constexpr std::size_t kIdentMinBytes = 4 + 4 + 8 + 8;

/// Reads the record prefix into `h`, a RecordHead or an EpochRecord (the
/// fields share their names), so the prefix layout is written once.
template <typename Head>
void get_head(Cursor& c, std::uint8_t payload_version, Head& h) {
  h.level = c.u32();
  h.first_epoch = c.u64();
  h.last_epoch = c.u64();
  h.epoch_count = c.u32();
  h.label = c.string();
  if (payload_version >= 2) h.origin = c.string();
  h.start_nanos = c.u64();
}

}  // namespace

std::vector<std::uint8_t> encode_record(const EpochRecord& r) {
  std::vector<std::uint8_t> out;
  util::put_be32(out, r.level);
  util::put_be64(out, r.first_epoch);
  util::put_be64(out, r.last_epoch);
  util::put_be32(out, r.epoch_count);
  put_string(out, r.label);
  put_string(out, r.origin);  // Payload v2: the deployment tag.
  util::put_be64(out, r.start_nanos);
  util::put_be64(out, r.duration_nanos);
  put_f64(out, r.offered_bps_sum);

  util::put_be64(out, r.samples);
  util::put_be64(out, r.frames);
  util::put_be64(out, r.bad_records);
  util::put_be64(out, r.truncated_frames);
  util::put_be64(out, r.malformed_frames);
  util::put_be64(out, r.switch_drops_suspected);
  util::put_be64(out, r.pcap_bytes);

  put_hist(out, r.frame_sizes);
  const HeaderOccurrenceCounts& occurrence = r.header_occurrence;
  util::put_be64(out, occurrence.frames);
  util::put_be32(out,
                 static_cast<std::uint32_t>(occurrence.occurrences.size()));
  for (std::uint64_t v : occurrence.occurrences) util::put_be64(out, v);
  util::put_be64(out, r.tcp_control.tcp_frames);
  util::put_be64(out, r.tcp_control.syn);
  util::put_be64(out, r.tcp_control.fin);
  util::put_be64(out, r.tcp_control.rst);
  util::put_be64(out, r.tcp_control.pure_ack);
  util::put_be64(out, r.tagging.frames);
  util::put_be64(out, r.tagging.vlan_tagged);
  util::put_be64(out, r.tagging.mpls_tagged);
  util::put_be64(out, r.tagging.both_tagged);
  util::put_be64(out, r.tagging.untagged);
  util::put_be64(out, r.flow_snippets);
  util::put_be64(out, r.largest_flow_bytes);

  util::put_be32(out, static_cast<std::uint32_t>(r.site_loads.size()));
  for (const SiteEpochLoad& load : r.site_loads) {
    put_string(out, load.site);
    util::put_be64(out, load.samples);
    util::put_be64(out, load.frames);
    util::put_be64(out, load.wire_bytes);
    util::put_be64(out, load.pcap_bytes);
    util::put_be64(out, load.switch_drops_suspected);
    put_hist(out, load.frame_sizes);
  }

  util::put_be32(out, static_cast<std::uint32_t>(r.top_flows.capacity()));
  util::put_be64(out, r.top_flows.floor());
  const auto& entries = r.top_flows.entries();  // Canonical order.
  util::put_be32(out, static_cast<std::uint32_t>(entries.size()));
  for (const TopFlowSketch::Entry& e : entries) {
    put_string(out, e.key);
    util::put_be64(out, e.count);
    util::put_be64(out, e.error);
  }

  put_string(out, r.manifest_json);
  return out;
}

bool decode_record(std::span<const std::uint8_t> payload,
                   std::uint8_t payload_version, EpochRecord* out) {
  Cursor c(payload);
  EpochRecord r;
  get_head(c, payload_version, r);
  r.duration_nanos = c.u64();
  r.offered_bps_sum = c.f64();

  r.samples = c.u64();
  r.frames = c.u64();
  r.bad_records = c.u64();
  r.truncated_frames = c.u64();
  r.malformed_frames = c.u64();
  r.switch_drops_suspected = c.u64();
  r.pcap_bytes = c.u64();

  r.frame_sizes = get_hist(c);
  HeaderOccurrenceCounts& occurrence = r.header_occurrence;
  occurrence.frames = c.u64();
  occurrence.occurrences.resize(c.count(8));
  for (std::uint64_t& v : occurrence.occurrences) v = c.u64();
  r.tcp_control.tcp_frames = c.u64();
  r.tcp_control.syn = c.u64();
  r.tcp_control.fin = c.u64();
  r.tcp_control.rst = c.u64();
  r.tcp_control.pure_ack = c.u64();
  r.tagging.frames = c.u64();
  r.tagging.vlan_tagged = c.u64();
  r.tagging.mpls_tagged = c.u64();
  r.tagging.both_tagged = c.u64();
  r.tagging.untagged = c.u64();
  r.flow_snippets = c.u64();
  r.largest_flow_bytes = c.u64();

  r.site_loads.resize(c.count(4 + 5 * 8));
  for (SiteEpochLoad& load : r.site_loads) {
    load.site = c.string();
    load.samples = c.u64();
    load.frames = c.u64();
    load.wire_bytes = c.u64();
    load.pcap_bytes = c.u64();
    load.switch_drops_suspected = c.u64();
    load.frame_sizes = get_hist(c);
  }

  const std::size_t sketch_capacity = c.u32();
  const std::uint64_t sketch_floor = c.u64();
  std::vector<TopFlowSketch::Entry> entries(c.count(4 + 2 * 8));
  for (TopFlowSketch::Entry& e : entries) {
    e.key = c.string();
    e.count = c.u64();
    e.error = c.u64();
  }
  // A wire sketch that violates the space-saving invariants (entries above
  // capacity, error above count, a key listed twice) would make merge()
  // silently wrong; treat it as corruption rather than building a
  // poisoned sketch.
  if (!TopFlowSketch::valid_parts(sketch_capacity, entries)) return false;
  r.top_flows = TopFlowSketch::from_parts(sketch_capacity, sketch_floor,
                                          std::move(entries));

  r.manifest_json = c.string();
  if (!c.exhausted()) return false;
  *out = std::move(r);
  return true;
}

bool decode_record(std::span<const std::uint8_t> payload, EpochRecord* out) {
  return decode_record(payload, kPayloadVersion, out);
}

bool decode_record_head(std::span<const std::uint8_t> payload,
                        std::uint8_t payload_version, RecordHead* out) {
  Cursor c(payload);
  RecordHead h;
  get_head(c, payload_version, h);
  if (!c.ok()) return false;
  *out = std::move(h);
  return true;
}

std::vector<std::uint8_t> encode_supersede_marker(const SupersedeMarker& m) {
  std::vector<std::uint8_t> out;
  util::put_be32(out, static_cast<std::uint32_t>(m.commits.size()));
  for (const SupersedeMarker::Commit& commit : m.commits) {
    put_ident(out, commit.rollup);
    util::put_be32(out, static_cast<std::uint32_t>(commit.replaced.size()));
    for (const RecordIdent& ident : commit.replaced) put_ident(out, ident);
  }
  return out;
}

bool decode_supersede_marker(std::span<const std::uint8_t> payload,
                             SupersedeMarker* out) {
  Cursor c(payload);
  SupersedeMarker m;
  m.commits.resize(c.count(kIdentMinBytes + 4));
  for (SupersedeMarker::Commit& commit : m.commits) {
    commit.rollup = get_ident(c);
    commit.replaced.resize(c.count(kIdentMinBytes));
    for (RecordIdent& ident : commit.replaced) ident = get_ident(c);
  }
  if (!c.exhausted()) return false;
  *out = std::move(m);
  return true;
}

}  // namespace patchwork::archive
