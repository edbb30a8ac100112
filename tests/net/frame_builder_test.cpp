#include "net/frame_builder.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "net/parser.hpp"
#include "testing/fixtures.hpp"
#include "util/crc32.hpp"

namespace patchwork::net {
namespace {

using patchwork::testing::parse_view;

const MacAddress kSrc = MacAddress::from_id(1);
const MacAddress kDst = MacAddress::from_id(2);
const Ipv4Address kA = Ipv4Address::from_octets(10, 0, 0, 1);
const Ipv4Address kB = Ipv4Address::from_octets(10, 0, 0, 2);

/// A store holding the one frame `b` describes, stamped `ts`.
FrameStore built(const FrameBuilder& b, util::Nanos ts = 0) {
  FrameStore store;
  b.build_into(store, ts);
  return store;
}

bool same_bytes(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(FrameBuilder, MinimalEthernetIpv4Tcp) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(1000, 2000);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  EXPECT_EQ(f.wire_length, 14u + 20u + 20u);
  // EtherType chained automatically.
  EXPECT_EQ(f.bytes[12], 0x08);
  EXPECT_EQ(f.bytes[13], 0x00);
}

TEST(FrameBuilder, Ipv4LengthsAreResolved) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1, 2).payload(100);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  auto ip = Ipv4Header::decode(f.bytes, 14);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->total_length, 20 + 8 + 100);
  EXPECT_EQ(ip->protocol, kIpProtoUdp);
  auto udp = UdpHeader::decode(f.bytes, 34);
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->length, 8 + 100);
}

TEST(FrameBuilder, MplsBottomOfStackOnlyOnLast) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).mpls(100).mpls(200).ipv4(kA, kB).tcp(1, 2);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  auto l1 = MplsLabel::decode(f.bytes, 14);
  auto l2 = MplsLabel::decode(f.bytes, 18);
  ASSERT_TRUE(l1 && l2);
  EXPECT_FALSE(l1->bottom_of_stack);
  EXPECT_TRUE(l2->bottom_of_stack);
  EXPECT_EQ(l1->label, 100u);
  EXPECT_EQ(l2->label, 200u);
}

TEST(FrameBuilder, PadToExtendsFrame) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(1, 2).pad_to(1514);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  EXPECT_EQ(f.wire_length, 1514u);
  // The IPv4 total length must include the padding payload.
  auto ip = Ipv4Header::decode(f.bytes, 14);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->total_length, 1514 - 14);
}

TEST(FrameBuilder, PadToIsNoOpWhenAlreadyLonger) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1, 2).payload(200).pad_to(64);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  EXPECT_EQ(f.wire_length, 14u + 20u + 8u + 200u);
}

TEST(FrameBuilder, PaperEncapsulationExample) {
  // "Ethernet / VLAN / MPLS / MPLS / PseudoWire / Ethernet / IPv4 / TCP /
  // TLS" — the paper's Section 8.2 example stack.
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .vlan(100)
      .mpls(16001)
      .mpls(16002)
      .pseudowire()
      .ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .tcp(49152, 443)
      .tls()
      .payload(64);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  const ParsedFrame parsed = parse_view(f);
  EXPECT_EQ(parsed.stack_string(),
            "eth/vlan/mpls/mpls/pw/eth/ipv4/tcp/tls/data");
  EXPECT_EQ(parsed.header_depth(), 9u);
}

TEST(FrameBuilder, BuilderIsReusable) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1, 2).pad_to(100);
  FrameStore store;
  b.build_into(store, 10);
  b.build_into(store, 20);
  const FrameView f1 = store.view(0);
  const FrameView f2 = store.view(1);
  EXPECT_EQ(f1.wire_length, f2.wire_length);
  EXPECT_EQ(f1.timestamp, 10u);
  EXPECT_EQ(f2.timestamp, 20u);
  EXPECT_TRUE(same_bytes(f1.bytes, f2.bytes));
}

TEST(FrameBuilder, SshBannerInPayload) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(50000, 22).ssh_banner().pad_to(128);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  const ParsedFrame parsed = parse_view(f);
  EXPECT_TRUE(parsed.has(Protocol::kSsh));
  EXPECT_EQ(f.wire_length, 128u);
}

TEST(FrameBuilder, VxlanCarriesInnerEthernet) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .udp(40000, 4789)
      .vxlan(77)
      .ethernet(kDst, kSrc)
      .ipv4(kB, kA)
      .tcp(1, 2);
  const FrameStore store = built(b);
  const FrameView f = store.view(0);
  const ParsedFrame parsed = parse_view(f);
  EXPECT_EQ(parsed.count(Protocol::kEthernet), 2u);
  EXPECT_TRUE(parsed.has(Protocol::kVxlan));
  ASSERT_TRUE(parsed.vxlan_vni.has_value());
  EXPECT_EQ(*parsed.vxlan_vni, 77u);
}

TEST(FrameBuilder, BuildIntoAppendsRepresentativeStacksBackToBack) {
  // Every encapsulation shape the generator emits, built back to back into
  // one arena: each frame must serialize exactly as its stack does alone
  // in a fresh store, resolved chaining and pad growth included, and sit
  // right behind the frame before it.
  std::vector<FrameBuilder> builders(5);
  builders[0].ethernet(kSrc, kDst).vlan(100).mpls(16001).mpls(16002)
      .pseudowire().ethernet(kDst, kSrc).ipv4(kA, kB)
      .tcp(49152, 443, tcp_flags::kAck | tcp_flags::kPsh).tls()
      .pad_to(1514);
  builders[1].ethernet(kSrc, kDst).arp(kSrc, kA, kB).pad_to(64);
  builders[2].ethernet(kSrc, kDst).ipv4(kA, kB).udp(1234, 53).dns(7)
      .payload(24).pad_to(140);
  builders[3].ethernet(kSrc, kDst).ipv4(kA, kB).tcp(1, 22).ssh_banner()
      .pad_to(200);
  builders[4].ethernet(kSrc, kDst).ipv4(kA, kB).tcp(1, 80).http_request();

  FrameStore store;
  for (std::size_t i = 0; i < builders.size(); ++i) {
    builders[i].build_into(store, 100 * static_cast<util::Nanos>(i));
  }
  ASSERT_EQ(store.size(), builders.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < builders.size(); ++i) {
    const FrameStore alone =
        built(builders[i], 100 * static_cast<util::Nanos>(i));
    const FrameView expected = alone.view(0);
    const FrameView view = store.view(i);
    EXPECT_EQ(view.timestamp, expected.timestamp) << "stack " << i;
    EXPECT_EQ(view.wire_length, expected.wire_length) << "stack " << i;
    EXPECT_TRUE(same_bytes(view.bytes, expected.bytes))
        << "stack " << i << " bytes differ";
    EXPECT_EQ(view.bytes.data(), store.view(0).bytes.data() + offset)
        << "stack " << i;
    offset += view.bytes.size();
  }
  EXPECT_EQ(store.total_bytes(), offset);
}

TEST(FrameBuilder, ResetClearsStackAndBuilderIsReusable) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1, 2).pad_to(1514);
  const FrameStore first = built(b, 5);
  b.reset();
  EXPECT_EQ(b.layer_count(), 0u);
  b.ethernet(kSrc, kDst).ipv4(kB, kA).tcp(3, 4);
  const FrameStore second = built(b, 6);
  // No residue from the first stack: a fresh builder agrees.
  FrameBuilder fresh;
  fresh.ethernet(kSrc, kDst).ipv4(kB, kA).tcp(3, 4);
  EXPECT_TRUE(same_bytes(second.view(0).bytes, built(fresh, 6).view(0).bytes));
  EXPECT_NE(first.view(0).bytes.size(), second.view(0).bytes.size());
}

TEST(FrameBuilder, BuildManyIntoMatchesPerFrameSeqBuilds) {
  // The template-stamp path vs the ground truth: re-describing the stack
  // per frame with the seq threaded through. Covers a plain TCP stack, a
  // DNS stack (BE16 id patch), and a VXLAN stack whose patched TCP sits
  // behind an inner Ethernet.
  const std::vector<util::Nanos> ts = {5, 0, 99, 7, 12345};
  const std::vector<std::uint32_t> seqs = {0, 1000, 77000, 0xffffffffu, 42};

  struct Case {
    const char* name;
    std::function<void(FrameBuilder&, std::uint32_t)> describe;
  };
  const Case cases[] = {
      {"tcp",
       [](FrameBuilder& b, std::uint32_t seq) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB)
             .tcp(49152, 443, tcp_flags::kAck | tcp_flags::kPsh, seq)
             .tls().pad_to(1514);
       }},
      {"dns",
       [](FrameBuilder& b, std::uint32_t seq) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1234, 53)
             .dns(static_cast<std::uint16_t>(seq)).payload(24).pad_to(140);
       }},
      {"vxlan",
       [](FrameBuilder& b, std::uint32_t seq) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(4789, 4789).vxlan(4096)
             .ethernet(kDst, kSrc).ipv4(kA, kB)
             .tcp(49152, 5201, tcp_flags::kAck | tcp_flags::kPsh, seq)
             .pad_to(1514);
       }},
  };
  for (const Case& c : cases) {
    FrameBuilder batched;
    c.describe(batched, 0);  // Template: patched fields described as 0.
    FrameStore store;
    batched.build_many_into(store, ts, seqs, PerFrameField::kTcpSeqAndDnsId);
    ASSERT_EQ(store.size(), ts.size()) << c.name;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      FrameBuilder reference;
      c.describe(reference, seqs[i]);
      const FrameStore one = built(reference, ts[i]);
      const FrameView expected = one.view(0);
      const FrameView view = store.view(i);
      EXPECT_EQ(view.timestamp, expected.timestamp) << c.name << " " << i;
      ASSERT_EQ(view.bytes.size(), expected.bytes.size())
          << c.name << " " << i;
      EXPECT_TRUE(std::equal(view.bytes.begin(), view.bytes.end(),
                             expected.bytes.begin()))
          << c.name << " frame " << i << " bytes differ";
    }
  }
}

TEST(FrameBuilder, BuildManyIntoMatchesPerFrameAckBuilds) {
  FrameBuilder batched;
  batched.ethernet(kDst, kSrc).ipv4(kB, kA)
      .tcp(443, 49152, tcp_flags::kAck, 0, 0).pad_to(68);
  const std::vector<util::Nanos> ts = {3, 1, 4, 1, 5, 9};
  const std::vector<std::uint32_t> acks = {0, 5000, 10000, 0xfffffc18u, 1, 2};
  FrameStore store;
  batched.build_many_into(store, ts, acks, PerFrameField::kTcpAck);
  ASSERT_EQ(store.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    FrameBuilder reference;
    reference.ethernet(kDst, kSrc).ipv4(kB, kA)
        .tcp(443, 49152, tcp_flags::kAck, 0, acks[i]).pad_to(68);
    const FrameStore one = built(reference, ts[i]);
    const FrameView expected = one.view(0);
    const FrameView view = store.view(i);
    EXPECT_EQ(view.timestamp, expected.timestamp) << i;
    ASSERT_EQ(view.bytes.size(), expected.bytes.size()) << i;
    EXPECT_TRUE(std::equal(view.bytes.begin(), view.bytes.end(),
                           expected.bytes.begin()))
        << "frame " << i << " bytes differ";
  }
}

TEST(FrameBuilder, BuildManyIntoNoneFieldEmitsIdenticalFrames) {
  // kNone: frames differ only by timestamp; values may be empty. Stacks
  // without TCP/DNS (here ICMP) also take this shape under the seq field.
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).icmp(8, 0).payload(48).pad_to(98);
  const std::vector<util::Nanos> ts = {10, 20, 30};
  FrameStore store;
  b.build_many_into(store, ts, {}, PerFrameField::kNone);
  ASSERT_EQ(store.size(), ts.size());
  const FrameStore one = built(b);
  const FrameView expected = one.view(0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const FrameView view = store.view(i);
    EXPECT_EQ(view.timestamp, ts[i]) << i;
    ASSERT_EQ(view.bytes.size(), expected.bytes.size()) << i;
    EXPECT_TRUE(std::equal(view.bytes.begin(), view.bytes.end(),
                           expected.bytes.begin()))
        << "frame " << i;
  }
  // The builder stays reusable after a batched build.
  EXPECT_TRUE(same_bytes(built(b).view(0).bytes, expected.bytes));
}

// Reference payload fill, one byte at a time: the '0'..'9' pattern, which
// restarts at every payload layer.
void append_reference_pattern(std::vector<std::uint8_t>& out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>('0' + (i % 10)));
  }
}

TEST(FrameBuilder, PayloadBytesArePinned) {
  // Pattern payloads on both sides of every fill-block boundary the
  // builder could use (10-byte period, 4,000-byte block), a jumbo frame,
  // and the SSH/HTTP marker payloads whose pattern restarts after the
  // text. Each frame is checked against the byte-at-a-time reference and
  // its CRC32 is pinned, through every build entry point.
  struct Case {
    const char* name;
    std::function<void(FrameBuilder&)> describe;
    std::size_t header_bytes;  ///< Bytes before the payload.
    std::string marker;        ///< Text the payload opens with.
    std::size_t pattern_bytes; ///< Pattern bytes after the marker.
    std::uint32_t crc;         ///< CRC32 of the whole frame.
  };
  auto udp_payload = [](std::size_t n) {
    return [n](FrameBuilder& b) {
      b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1, 2).payload(n);
    };
  };
  const Case cases[] = {
      {"udp/0", udp_payload(0), 42, "", 0, 0xf365ed74u},
      {"udp/1", udp_payload(1), 42, "", 1, 0x13b378fau},
      {"udp/9", udp_payload(9), 42, "", 9, 0x5e56d342u},
      {"udp/10", udp_payload(10), 42, "", 10, 0x90066efeu},
      {"udp/11", udp_payload(11), 42, "", 11, 0xa784ceaau},
      {"udp/3999", udp_payload(3999), 42, "", 3999, 0x5bb886aeu},
      {"udp/4000", udp_payload(4000), 42, "", 4000, 0xf4d812a1u},
      {"udp/4001", udp_payload(4001), 42, "", 4001, 0xc6c1bcd3u},
      {"udp/grown-to-4001",
       [](FrameBuilder& b) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1, 2).payload(1).pad_to(
             42 + 4001);
       },
       42, "", 4001, 0xc6c1bcd3u},
      {"tcp/jumbo",
       [](FrameBuilder& b) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(1, 2).pad_to(9216);
       },
       54, "", 9216 - 54, 0x138d6decu},
      {"ssh",
       [](FrameBuilder& b) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(50000, 22).ssh_banner()
             .pad_to(4100);
       },
       54, "SSH-2.0-OpenSSH_9.6\r\n", 4100 - 54 - 21, 0x076a9df5u},
      {"http",
       [](FrameBuilder& b) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(50000, 80).http_request()
             .pad_to(8192);
       },
       54, "GET / HTTP/1.1\r\n", 8192 - 54 - 16, 0x53562760u},
      {"http/bare",
       [](FrameBuilder& b) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(50000, 80).http_request();
       },
       54, "GET / HTTP/1.1\r\n", 0, 0xa689bf69u},
  };
  for (const Case& c : cases) {
    FrameBuilder b;
    c.describe(b);
    FrameStore one;
    b.build_into(one, 7);
    ASSERT_EQ(one.size(), 1u) << c.name;
    const ByteView bytes = one.view(0).bytes;
    ASSERT_EQ(bytes.size(), c.header_bytes + c.marker.size() + c.pattern_bytes)
        << c.name;
    std::vector<std::uint8_t> expected(
        bytes.begin(),
        bytes.begin() + static_cast<std::ptrdiff_t>(c.header_bytes));
    expected.insert(expected.end(), c.marker.begin(), c.marker.end());
    append_reference_pattern(expected, c.pattern_bytes);
    EXPECT_TRUE(same_bytes(bytes, expected)) << c.name << " build_into";
    EXPECT_EQ(util::crc32(expected), c.crc) << c.name;

    FrameStore single;
    const util::Nanos ts1[] = {7};
    b.build_many_into(single, ts1, {}, PerFrameField::kNone);
    ASSERT_EQ(single.size(), 1u) << c.name;
    EXPECT_TRUE(same_bytes(single.view(0).bytes, expected))
        << c.name << " build_many_into x1";

    FrameStore triple;
    const util::Nanos ts3[] = {7, 8, 9};
    const std::uint32_t zeros[] = {0, 0, 0};
    b.build_many_into(triple, ts3, zeros, PerFrameField::kTcpSeqAndDnsId);
    ASSERT_EQ(triple.size(), 3u) << c.name;
    for (std::size_t i = 0; i < triple.size(); ++i) {
      EXPECT_TRUE(same_bytes(triple.view(i).bytes, expected))
          << c.name << " build_many_into x3, frame " << i;
    }
  }
}

TEST(FrameBuilder, BuildManyIntoAppendsAfterFramesAlreadyInTheStore) {
  // render_unit stamps a unit in 1,024-frame chunks into one store, so a
  // batched build must append behind frames already there. Every field
  // kind, at 1 and 3 frames, must match per-frame builds.
  struct Case {
    const char* name;
    PerFrameField field;
    std::function<void(FrameBuilder&, std::uint32_t)> describe;
  };
  const Case cases[] = {
      {"none", PerFrameField::kNone,
       [](FrameBuilder& b, std::uint32_t) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).icmp(8, 0).payload(48).pad_to(98);
       }},
      {"seq+dns", PerFrameField::kTcpSeqAndDnsId,
       [](FrameBuilder& b, std::uint32_t v) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(4789, 4789).vxlan(4096)
             .ethernet(kDst, kSrc).ipv4(kA, kB)
             .tcp(49152, 5201, tcp_flags::kAck | tcp_flags::kPsh, v)
             .pad_to(1514);
       }},
      {"dns", PerFrameField::kTcpSeqAndDnsId,
       [](FrameBuilder& b, std::uint32_t v) {
         b.ethernet(kSrc, kDst).ipv4(kA, kB).udp(1234, 53)
             .dns(static_cast<std::uint16_t>(v)).payload(24).pad_to(140);
       }},
      {"ack", PerFrameField::kTcpAck,
       [](FrameBuilder& b, std::uint32_t v) {
         b.ethernet(kDst, kSrc).vlan(7).mpls(16001).ipv4(kB, kA)
             .tcp(443, 49152, tcp_flags::kAck, 0, v).pad_to(68);
       }},
  };
  const std::uint32_t values[] = {3000, 0xfffffc18u, 42};
  const util::Nanos stamps[] = {30, 10, 20};
  for (const Case& c : cases) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      // Two frames of a different stack already sit in the store.
      FrameStore store;
      FrameBuilder other;
      other.ethernet(kSrc, kDst).ipv4(kB, kA).udp(5, 6).payload(333);
      other.build_into(store, 1);
      other.build_into(store, 2);
      const FrameStore first = built(other, 1);
      const std::size_t before = store.total_bytes();

      FrameBuilder batched;
      c.describe(batched, 0);
      const std::span<const std::uint32_t> vals =
          c.field == PerFrameField::kNone
              ? std::span<const std::uint32_t>()
              : std::span<const std::uint32_t>(values, n);
      batched.build_many_into(store, std::span<const util::Nanos>(stamps, n),
                              vals, c.field);
      ASSERT_EQ(store.size(), 2 + n) << c.name << " x" << n;
      for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(same_bytes(store.view(i).bytes, first.view(0).bytes))
            << c.name << " x" << n << ": earlier frame " << i << " changed";
      }
      std::size_t appended = 0;
      for (std::size_t i = 0; i < n; ++i) {
        FrameBuilder reference;
        c.describe(reference,
                   c.field == PerFrameField::kNone ? 0 : values[i]);
        const FrameStore one = built(reference, stamps[i]);
        const FrameView expected = one.view(0);
        const FrameView view = store.view(2 + i);
        EXPECT_EQ(view.timestamp, stamps[i]) << c.name << " x" << n;
        EXPECT_EQ(view.wire_length, expected.wire_length)
            << c.name << " x" << n;
        EXPECT_TRUE(same_bytes(view.bytes, expected.bytes))
            << c.name << " x" << n << ": frame " << i << " bytes differ";
        appended += expected.bytes.size();
      }
      EXPECT_EQ(store.total_bytes(), before + appended)
          << c.name << " x" << n;
    }
  }
}

TEST(FrameBuilder, BuildManyIntoEmptySpanAppendsNothing) {
  FrameStore store;
  FrameBuilder b;
  b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(1, 2).pad_to(1514);
  b.build_into(store, 1);
  const std::size_t bytes = store.total_bytes();
  b.build_many_into(store, {}, {}, PerFrameField::kNone);
  b.build_many_into(store, {}, {}, PerFrameField::kTcpSeqAndDnsId);
  b.build_many_into(store, {}, {}, PerFrameField::kTcpAck);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_bytes(), bytes);
  FrameStore empty;
  b.build_many_into(empty, {}, {}, PerFrameField::kNone);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.total_bytes(), 0u);
}

TEST(FrameBuilder, ResetAfterDeepStackMatchesFreshBuilder) {
  // A reused builder keeps its buffers' capacity across reset(); nothing
  // of a deep jumbo stack may leak into the short stack described next.
  auto describe_arp = [](FrameBuilder& b) {
    b.ethernet(kSrc, kDst).arp(kSrc, kA, kB).pad_to(64);
  };
  FrameBuilder reused;
  reused.ethernet(kSrc, kDst).vlan(100).mpls(16001).mpls(17001)
      .pseudowire().ethernet(kDst, kSrc)
      .ipv6(Ipv6Address::from_words({0xfd00, 1, 2, 3, 4, 5, 6, 7}),
            Ipv6Address::from_words({0xfd00, 7, 6, 5, 4, 3, 2, 1}))
      .tcp(49152, 443, tcp_flags::kAck | tcp_flags::kPsh).tls()
      .pad_to(9216);
  FrameStore deep;
  const util::Nanos deep_ts[] = {1, 2};
  const std::uint32_t deep_vals[] = {1000, 2000};
  reused.build_many_into(deep, deep_ts, deep_vals,
                         PerFrameField::kTcpSeqAndDnsId);
  ASSERT_EQ(deep.size(), 2u);
  EXPECT_EQ(deep.view(0).wire_length, 9216u);

  reused.reset();
  describe_arp(reused);
  FrameBuilder fresh;
  describe_arp(fresh);
  const FrameStore expected = built(fresh, 5);
  ASSERT_EQ(expected.view(0).wire_length, 64u);
  const std::span<const std::uint8_t> want = expected.view(0).bytes;
  FrameStore into;
  reused.build_into(into, 5);
  EXPECT_TRUE(same_bytes(into.view(0).bytes, want));
  FrameStore many;
  const util::Nanos ts[] = {5, 6, 7};
  reused.build_many_into(many, ts, {}, PerFrameField::kNone);
  ASSERT_EQ(many.size(), 3u);
  for (std::size_t i = 0; i < many.size(); ++i) {
    EXPECT_TRUE(same_bytes(many.view(i).bytes, want)) << "frame " << i;
  }
}

TEST(FrameStore, ClearKeepsNothingButCapacity) {
  FrameStore store;
  FrameBuilder().ethernet(kSrc, kDst).ipv4(kA, kB).udp(1, 2).build_into(store,
                                                                        1);
  ASSERT_EQ(store.size(), 1u);
  const std::size_t bytes = store.total_bytes();
  EXPECT_GT(bytes, 0u);
  store.clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.total_bytes(), 0u);
}

}  // namespace
}  // namespace patchwork::net
