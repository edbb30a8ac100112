// Micro-benchmark (google-benchmark): dissector and flow-key throughput.
//
// The paper notes the offline analysis dominates wall-clock ("most of this
// time is taken up by Wireshark's protocol dissectors", Section 8.3) — the
// dissector's per-frame cost is the analysis pipeline's critical path.
#include <benchmark/benchmark.h>

#include "analysis/acap.hpp"
#include "net/frame_builder.hpp"
#include "net/parser.hpp"

namespace {

using namespace patchwork;

/// Append the paper's deep FABRIC encapsulation (VLAN, two MPLS labels,
/// pseudowire, inner Ethernet) carrying TLS, cut at 200 B like a profile.
void deep_frame(net::FrameStore& store) {
  net::FrameBuilder()
      .ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .vlan(100)
      .mpls(16001)
      .mpls(16002)
      .pseudowire()
      .ethernet(net::MacAddress::from_id(3), net::MacAddress::from_id(4))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(50000, 443)
      .tls()
      .pad_to(200)
      .build_into(store);
}

void shallow_frame(net::FrameStore& store) {
  net::FrameBuilder()
      .ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(50000, 5201)
      .pad_to(200)
      .build_into(store);
}

net::ParsedFrame parse(const net::FrameView& frame) {
  return net::parse_bytes(frame.bytes, frame.wire_length, frame.timestamp);
}

void BM_DissectShallow(benchmark::State& state) {
  net::FrameStore store;
  shallow_frame(store);
  const net::FrameView frame = store.view(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse(frame));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DissectShallow);

void BM_DissectDeepEncapsulation(benchmark::State& state) {
  net::FrameStore store;
  deep_frame(store);
  const net::FrameView frame = store.view(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse(frame));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DissectDeepEncapsulation);

void BM_FlowKeyExtraction(benchmark::State& state) {
  net::FrameStore store;
  deep_frame(store);
  const net::ParsedFrame parsed = parse(store.view(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::flow_key_of(parsed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowKeyExtraction);

void BM_AbstractFrame(benchmark::State& state) {
  net::FrameStore store;
  deep_frame(store);
  const net::ParsedFrame parsed = parse(store.view(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::abstract_frame(parsed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbstractFrame);

// Describe the deep stack and serialize it into a reused arena, as the
// render path does for the first frame of each burst.
void BM_FrameBuild(benchmark::State& state) {
  net::FrameStore store;
  for (auto _ : state) {
    store.clear();
    deep_frame(store);
    benchmark::DoNotOptimize(store.arena().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameBuild);

}  // namespace

BENCHMARK_MAIN();
