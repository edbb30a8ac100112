// Top-of-rack switch with the port mirroring primitive.
//
// This is the substrate for FABRIC's key profiling feature (Section 3):
// mirroring clones a port's Rx and/or Tx channel onto the *Tx* channel of
// another port. Because both cloned channels share one egress channel, the
// mirror silently drops frames whenever Mirrored(Tx) + Mirrored(Rx) exceeds
// the egress line rate — the exact congestion mode Patchwork must detect
// (Section 6.2.2). `mirror_delivery_fraction` exposes that rule, and
// `advance` charges the mirror load (and drops) to the egress port's
// counters so SNMP telemetry sees it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "testbed/ids.hpp"
#include "testbed/port.hpp"
#include "util/units.hpp"

namespace patchwork::testbed {

struct MirrorSession {
  PortId source;
  MirrorDirections directions = MirrorDirections::kBoth;
  PortId destination;  ///< Mirrored frames leave on this port's Tx channel.
};

class ToRSwitch {
 public:
  explicit ToRSwitch(std::vector<SwitchPort> ports)
      : ports_(std::move(ports)) {}

  std::size_t port_count() const { return ports_.size(); }
  const SwitchPort& port(PortId id) const { return ports_.at(id.value); }
  SwitchPort& mutable_port(PortId id) { return ports_.at(id.value); }

  std::vector<PortId> ports_of_kind(PortKind kind) const;
  std::size_t count_of_kind(PortKind kind) const;

  // --- Port mirroring ----------------------------------------------------
  /// Establish a mirror. Fails (returns false) if the source or destination
  /// is already part of another session, or the destination is not a
  /// downlink (mirror egress must face a server NIC), or source == dest.
  bool add_mirror(MirrorSession session);
  bool remove_mirror(PortId source);
  /// Replace the source of an existing session keeping the same
  /// destination — this is exactly Patchwork's "port cycling" operation
  /// (Fig. 7: cycling changes the mirrored port while keeping fixed the
  /// NICs and VMs).
  bool retarget_mirror(PortId old_source, PortId new_source);

  /// Change which channels an existing session clones (e.g. drop to
  /// Tx-only when Tx+Rx oversubscribes the egress).
  bool set_mirror_directions(PortId source, MirrorDirections directions);

  const std::vector<MirrorSession>& mirrors() const { return mirrors_; }
  std::optional<MirrorSession> mirror_for_source(PortId source) const;
  bool port_is_mirror_member(PortId id) const;

  /// Offered load on a mirror destination's Tx channel (bps): the sum of
  /// the mirrored directions' current rates.
  double mirror_offered_bps(const MirrorSession& s) const;

  /// Fraction of mirrored frames that survive the egress channel, in
  /// (0, 1]: min(1, egress_line_rate / offered).
  double mirror_delivery_fraction(const MirrorSession& s) const;

  /// Advance time: integrates all port counters, including mirror egress
  /// load and mirror drops.
  void advance(util::Nanos dt);

 private:
  std::vector<SwitchPort> ports_;
  std::vector<MirrorSession> mirrors_;
};

}  // namespace patchwork::testbed
