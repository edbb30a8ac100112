#include "testbed/switch.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace patchwork::testbed {

namespace {

// The silent failure §6.2.2 is about: a mirror source faster than its
// destination port drops the overflow inside the switch with no host-side
// symptom. Surface the estimate the simulation already computes.
struct MirrorMetrics {
  obs::Counter& dropped_frames = obs::registry().counter(
      "patchwork_mirror_dropped_frames_total",
      "Frames the switch dropped on oversubscribed mirror destinations");
  obs::Counter& dropped_bytes = obs::registry().counter(
      "patchwork_mirror_dropped_bytes_total",
      "Bytes the switch dropped on oversubscribed mirror destinations");
  obs::Counter& oversubscribed_intervals = obs::registry().counter(
      "patchwork_mirror_oversubscribed_intervals_total",
      "Mirror-session advance intervals with offered rate above the "
      "destination line rate");
};

MirrorMetrics& mirror_metrics() {
  static MirrorMetrics m;
  return m;
}

}  // namespace

std::vector<PortId> ToRSwitch::ports_of_kind(PortKind kind) const {
  std::vector<PortId> out;
  for (std::uint32_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].kind() == kind) out.push_back(PortId{i});
  }
  return out;
}

std::size_t ToRSwitch::count_of_kind(PortKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(ports_.begin(), ports_.end(),
                    [kind](const SwitchPort& p) { return p.kind() == kind; }));
}

bool ToRSwitch::add_mirror(MirrorSession session) {
  if (session.source == session.destination) return false;
  if (session.source.value >= ports_.size() ||
      session.destination.value >= ports_.size()) {
    return false;
  }
  if (ports_[session.destination.value].kind() != PortKind::kDownlink) {
    return false;
  }
  if (port_is_mirror_member(session.source) ||
      port_is_mirror_member(session.destination)) {
    return false;
  }
  mirrors_.push_back(session);
  return true;
}

bool ToRSwitch::remove_mirror(PortId source) {
  const auto it = std::find_if(
      mirrors_.begin(), mirrors_.end(),
      [source](const MirrorSession& s) { return s.source == source; });
  if (it == mirrors_.end()) return false;
  mirrors_.erase(it);
  return true;
}

bool ToRSwitch::retarget_mirror(PortId old_source, PortId new_source) {
  if (old_source == new_source) return true;
  if (new_source.value >= ports_.size()) return false;
  if (port_is_mirror_member(new_source)) return false;
  const auto it = std::find_if(
      mirrors_.begin(), mirrors_.end(),
      [old_source](const MirrorSession& s) { return s.source == old_source; });
  if (it == mirrors_.end()) return false;
  if (new_source == it->destination) return false;
  it->source = new_source;
  return true;
}

bool ToRSwitch::set_mirror_directions(PortId source,
                                      MirrorDirections directions) {
  for (MirrorSession& s : mirrors_) {
    if (s.source == source) {
      s.directions = directions;
      return true;
    }
  }
  return false;
}

std::optional<MirrorSession> ToRSwitch::mirror_for_source(
    PortId source) const {
  for (const MirrorSession& s : mirrors_) {
    if (s.source == source) return s;
  }
  return std::nullopt;
}

bool ToRSwitch::port_is_mirror_member(PortId id) const {
  for (const MirrorSession& s : mirrors_) {
    if (s.source == id || s.destination == id) return true;
  }
  return false;
}

double ToRSwitch::mirror_offered_bps(const MirrorSession& s) const {
  const SwitchPort& src = ports_.at(s.source.value);
  switch (s.directions) {
    case MirrorDirections::kTxOnly: return src.tx_rate_bps();
    case MirrorDirections::kRxOnly: return src.rx_rate_bps();
    case MirrorDirections::kBoth:
      return src.tx_rate_bps() + src.rx_rate_bps();
  }
  return 0.0;
}

double ToRSwitch::mirror_delivery_fraction(const MirrorSession& s) const {
  const double offered = mirror_offered_bps(s);
  if (offered <= 0.0) return 1.0;
  const double capacity = ports_.at(s.destination.value).line_rate_bps();
  return std::min(1.0, capacity / offered);
}

void ToRSwitch::advance(util::Nanos dt) {
  for (SwitchPort& p : ports_) p.advance(dt);
  const double secs = util::to_seconds(dt);
  for (const MirrorSession& s : mirrors_) {
    SwitchPort& dest = ports_.at(s.destination.value);
    const double offered = mirror_offered_bps(s);
    const double delivered =
        std::min(offered, dest.line_rate_bps());
    const double delivered_bytes = delivered / 8.0 * secs;
    const double dropped_bytes = (offered - delivered) / 8.0 * secs;
    dest.mutable_counters().tx_bytes +=
        static_cast<std::uint64_t>(delivered_bytes);
    const double mfs = ports_.at(s.source.value).mean_frame_size();
    if (mfs > 0.0) {
      dest.mutable_counters().tx_frames +=
          static_cast<std::uint64_t>(delivered_bytes / mfs);
      const auto dropped_frames =
          static_cast<std::uint64_t>(dropped_bytes / mfs);
      dest.mutable_counters().mirror_drops += dropped_frames;
      if (dropped_frames > 0) {
        mirror_metrics().dropped_frames.add(dropped_frames);
      }
    }
    if (dropped_bytes > 0.0) {
      mirror_metrics().dropped_bytes.add(
          static_cast<std::uint64_t>(dropped_bytes));
      mirror_metrics().oversubscribed_intervals.add();
    }
  }
}

}  // namespace patchwork::testbed
