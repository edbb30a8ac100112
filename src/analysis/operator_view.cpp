#include "analysis/operator_view.hpp"

#include <map>
#include <set>

namespace patchwork::analysis {

FiveTupleKey FiveTupleKey::from_flow_key(const FlowKey& key) {
  FiveTupleKey out;
  out.ip_version = key.ip_version;
  out.addr_a = key.addr_a;
  out.addr_b = key.addr_b;
  out.l4_proto = key.l4_proto;
  out.port_a = key.port_a;
  out.port_b = key.port_b;
  return out;
}

AsymmetryReport measure_asymmetry(const std::vector<RawCapture>& captures) {
  AsymmetryReport report;
  // Tag-aware flows per 5-tuple key.
  std::map<FiveTupleKey, std::set<FlowKey>> grouping;
  for (const RawCapture& capture : captures) {
    digest(capture, nullptr, [&grouping](const AcapRecord& r) {
      grouping[FiveTupleKey::from_flow_key(r.flow)].insert(r.flow);
    });
  }
  report.operator_flows = grouping.size();
  for (const auto& [key, tag_flows] : grouping) {
    report.patchwork_flows += tag_flows.size();
    if (tag_flows.size() > 1) {
      ++report.collapsed_keys;
      report.hidden_flows += tag_flows.size() - 1;
    }
  }
  return report;
}

}  // namespace patchwork::analysis
