#include "archive/query.hpp"

#include <algorithm>
#include <set>

namespace patchwork::archive {

bool QueryWindow::contains(const EpochRecord& record) const {
  if (from_epoch && record.last_epoch < *from_epoch) return false;
  if (to_epoch && record.first_epoch > *to_epoch) return false;
  const std::uint64_t end_nanos = record.start_nanos + record.duration_nanos;
  if (from_nanos && end_nanos < *from_nanos) return false;
  if (to_nanos && record.start_nanos > *to_nanos) return false;
  return true;
}

ArchiveQuery::ArchiveQuery(std::vector<EpochRecord> records,
                           const QueryWindow& window)
    : records_(std::move(records)), window_(window) {
  // Filter before any fold: out-of-window records must not contribute to
  // totals, sketches, or trends.
  if (!window_.everything()) {
    std::erase_if(records_, [this](const EpochRecord& r) {
      return !window_.contains(r);
    });
  }
  if (records_.empty()) return;
  totals_ = records_.front();
  for (std::size_t i = 1; i < records_.size(); ++i) {
    totals_.merge_from(records_[i]);
  }
}

ArchiveQuery ArchiveQuery::from_file(const std::string& path,
                                     const QueryWindow& window,
                                     OpenStatus* status) {
  ArchiveReader reader;
  const OpenError error = reader.open(path);
  if (status != nullptr) {
    status->error = error;
    status->corrupt_blocks = reader.corrupt_blocks();
    status->damaged_tail = reader.damaged_tail();
    status->valid_bytes = reader.valid_bytes();
    status->skipped_newer = reader.skipped_newer_blocks();
  }
  if (error != OpenError::kNone) return ArchiveQuery({});
  return ArchiveQuery(reader.take_records(), window);
}

std::uint64_t ArchiveQuery::epochs_covered() const {
  std::uint64_t n = 0;
  for (const EpochRecord& r : records_) n += r.epoch_count;
  return n;
}

template <typename Fn>
std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::trend(
    Fn&& value_of) const {
  std::vector<TrendPoint> points;
  points.reserve(records_.size());
  for (const EpochRecord& r : records_) {
    points.push_back({r.label, r.first_epoch, r.last_epoch, r.epoch_count,
                      r.start_nanos, r.is_rollup(), value_of(r)});
  }
  return points;
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::jumbo_share() const {
  return trend([](const EpochRecord& r) {
    return r.frame_sizes.fraction_at_or_above(kJumboEdgeBytes);
  });
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::protocol_share(
    net::Protocol protocol) const {
  const std::size_t idx = static_cast<std::size_t>(protocol);
  return trend([idx](const EpochRecord& r) {
    const HeaderOccurrenceCounts& occurrence = r.header_occurrence;
    if (occurrence.frames == 0 || idx >= occurrence.occurrences.size()) {
      return 0.0;
    }
    return static_cast<double>(occurrence.occurrences[idx]) /
           static_cast<double>(occurrence.frames);
  });
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::ipv6_share() const {
  return protocol_share(net::Protocol::kIpv6);
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::tcp_share() const {
  return protocol_share(net::Protocol::kTcp);
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::offered_bps() const {
  return trend([](const EpochRecord& r) {
    return r.epoch_count == 0 ? 0.0
                              : r.offered_bps_sum /
                                    static_cast<double>(r.epoch_count);
  });
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::flow_snippets() const {
  return trend([](const EpochRecord& r) {
    return static_cast<double>(r.flow_snippets);
  });
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::site_wire_bytes(
    const std::string& site) const {
  return trend([&site](const EpochRecord& r) {
    for (const SiteEpochLoad& load : r.site_loads) {
      if (load.site == site) return static_cast<double>(load.wire_bytes);
    }
    return 0.0;
  });
}

std::vector<ArchiveQuery::TrendPoint> ArchiveQuery::site_switch_drops(
    const std::string& site) const {
  return trend([&site](const EpochRecord& r) {
    for (const SiteEpochLoad& load : r.site_loads) {
      if (load.site == site) {
        return static_cast<double>(load.switch_drops_suspected);
      }
    }
    return 0.0;
  });
}

std::vector<std::string> ArchiveQuery::sites() const {
  std::set<std::string> names;
  for (const EpochRecord& r : records_) {
    for (const SiteEpochLoad& load : r.site_loads) names.insert(load.site);
  }
  return std::vector<std::string>(names.begin(), names.end());
}

std::vector<TopFlowSketch::Entry> ArchiveQuery::top_flows(
    std::size_t k) const {
  return totals_.top_flows.top(k);
}

}  // namespace patchwork::archive
