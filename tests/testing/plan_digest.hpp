// CRC32 digests of window plans for the planner pin tests: every unit
// field, the flow each unit renders, and the plan's accounting.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "traffic/flowgen.hpp"
#include "util/crc32.hpp"

namespace patchwork::testing {

/// Little-endian field bytes for a plan digest.
class DigestBytes {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  template <std::size_t N>
  void raw(const std::array<std::uint8_t, N>& a) {
    bytes_.insert(bytes_.end(), a.begin(), a.end());
  }
  std::uint32_t crc() const { return util::crc32(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Append every unit of `plan`, its flow's fields included, and the plan's
/// accounting to `d`.
inline void add_plan(DigestBytes& d, const traffic::WindowPlan& plan) {
  d.u64(plan.units.size());
  for (const traffic::RenderUnit& u : plan.units) {
    const traffic::FlowSpec& f = plan.flows[u.flow];
    d.u64(static_cast<std::uint64_t>(f.app));
    d.raw(f.src_mac.bytes);
    d.raw(f.dst_mac.bytes);
    d.u64(f.src_ip.value);
    d.u64(f.dst_ip.value);
    d.raw(f.src_ip6.bytes);
    d.raw(f.dst_ip6.bytes);
    d.u64(f.src_port);
    d.u64(f.dst_port);
    d.u64(f.vlan_id.has_value() ? 0x10000u + *f.vlan_id : 0u);
    d.u64(f.mpls_labels.size());
    for (std::uint32_t label : f.mpls_labels) d.u64(label);
    d.u64(f.pseudowire);
    d.u64(f.ipv6);
    d.u64(f.data_frame_size);
    d.u64(f.total_bytes);
    d.u64(f.message_stream);
    d.u64(u.acks);
    d.u64(u.frames);
    d.u64(u.ts_lo);
    d.u64(u.ts_hi);
  }
  d.u64(plan.planned_frames);
  d.u64(plan.flow_count);
  d.f64(plan.offered_pps);
  d.f64(plan.offered_bps);
}

}  // namespace patchwork::testing
