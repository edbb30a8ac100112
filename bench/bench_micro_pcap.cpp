// Micro-benchmark (google-benchmark): pcap serialization throughput — the
// hot loop of the DPDK writer (one record append per captured frame).
#include <benchmark/benchmark.h>

#include "capture/anonymize.hpp"
#include "capture/filter.hpp"
#include "net/frame_builder.hpp"
#include "net/parser.hpp"
#include "pcap/pcap.hpp"

namespace {

using namespace patchwork;

/// A store holding one VLAN-tagged IPv4/TCP frame of `size` wire bytes.
net::FrameStore data_frame(std::size_t size) {
  net::FrameStore store;
  net::FrameBuilder()
      .ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .vlan(100)
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(50000, 5201)
      .payload(4)
      .pad_to(size)
      .build_into(store);
  return store;
}

net::ParsedFrame parse(const net::FrameView& frame) {
  return net::parse_bytes(frame.bytes, frame.wire_length, frame.timestamp);
}

void BM_PcapWrite(benchmark::State& state) {
  const net::FrameStore store =
      data_frame(static_cast<std::size_t>(state.range(0)));
  const net::FrameView frame = store.view(0);
  for (auto _ : state) {
    pcap::PcapWriter writer(200);
    for (int i = 0; i < 128; ++i) {  // One writev batch.
      writer.write_record(frame.bytes, frame.wire_length, frame.timestamp);
    }
    benchmark::DoNotOptimize(writer.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * 128);
  state.SetBytesProcessed(state.iterations() * 128 *
                          static_cast<std::int64_t>(
                              std::min<std::size_t>(frame.wire_length, 200) +
                              pcap::kRecordHeaderSize));
}
BENCHMARK(BM_PcapWrite)->Arg(128)->Arg(1514)->Arg(9000);

// Read a stream back through the non-owning FrameView path the digest hot
// loop uses — no per-record byte copies.
void BM_PcapRoundTripView(benchmark::State& state) {
  pcap::PcapWriter writer(200);
  const net::FrameStore store = data_frame(1514);
  const net::FrameView frame = store.view(0);
  for (int i = 0; i < 1000; ++i) {
    writer.write_record(frame.bytes, frame.wire_length, frame.timestamp);
  }
  const std::vector<std::uint8_t> bytes = writer.take_buffer();
  for (auto _ : state) {
    auto reader = pcap::PcapReader::open(bytes);
    std::size_t n = 0;
    while (reader->next_view()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PcapRoundTripView);

void BM_FilterMatch(benchmark::State& state) {
  const auto filter = std::get<capture::Filter>(
      capture::Filter::compile("ip and tcp and not port 22 and greater 64"));
  const net::ParsedFrame parsed = parse(data_frame(1514).view(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.matches(parsed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterMatch);

void BM_AnonymizeScrub(benchmark::State& state) {
  const capture::Anonymizer anon(0xfeed);
  const net::FrameStore store = data_frame(200);
  const net::FrameView frame = store.view(0);
  const net::ParsedFrame parsed = parse(frame);
  std::vector<std::uint8_t> bytes(frame.bytes.begin(), frame.bytes.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(anon.scrub(bytes, parsed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnonymizeScrub);

}  // namespace

BENCHMARK_MAIN();
