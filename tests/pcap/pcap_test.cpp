#include "pcap/pcap.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/frame_builder.hpp"
#include "util/byte_io.hpp"

namespace patchwork::pcap {
namespace {

/// A store holding one IPv4/UDP frame of `size` wire bytes.
net::FrameStore test_frame(std::size_t size, util::Nanos ts) {
  net::FrameStore store;
  net::FrameBuilder()
      .ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .udp(1000, 2000)
      .pad_to(size)
      .build_into(store, ts);
  return store;
}

void write_test_frame(PcapWriter& writer, std::size_t size, util::Nanos ts) {
  const net::FrameStore store = test_frame(size, ts);
  const net::FrameView f = store.view(0);
  writer.write_record(f.bytes, f.wire_length, f.timestamp);
}

TEST(Pcap, GlobalHeaderFields) {
  PcapWriter writer(200);
  const auto& buf = writer.buffer();
  ASSERT_EQ(buf.size(), kGlobalHeaderSize);
  EXPECT_EQ(util::get_le32(buf, 0), kMagicMicro);
  EXPECT_EQ(util::get_le16(buf, 4), 2u);   // Version major.
  EXPECT_EQ(util::get_le16(buf, 6), 4u);   // Version minor.
  EXPECT_EQ(util::get_le32(buf, 16), 200u);  // Snaplen.
  EXPECT_EQ(util::get_le32(buf, 20), kLinkTypeEthernet);
}

TEST(Pcap, RoundTripsFrames) {
  PcapWriter writer(65535);
  write_test_frame(writer, 100, 5 * util::kSecond + 123 * util::kMicrosecond);
  write_test_frame(writer, 200, 6 * util::kSecond);
  EXPECT_EQ(writer.frames_written(), 2u);

  auto reader = PcapReader::open(writer.take_buffer());
  ASSERT_TRUE(reader.has_value());
  auto f1 = reader->next_view();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->wire_length, 100u);
  EXPECT_EQ(f1->bytes.size(), 100u);
  EXPECT_EQ(f1->timestamp,
            5 * util::kSecond + 123 * util::kMicrosecond);
  auto f2 = reader->next_view();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->wire_length, 200u);
  EXPECT_FALSE(reader->next_view().has_value());
  EXPECT_EQ(reader->frames_read(), 2u);
  EXPECT_EQ(reader->bad_records(), 0u);
}

TEST(Pcap, SnaplenTruncatesButKeepsOrigLen) {
  PcapWriter writer(64);
  write_test_frame(writer, 1500, 0);
  auto reader = PcapReader::open(writer.take_buffer());
  ASSERT_TRUE(reader.has_value());
  auto f = reader->next_view();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->bytes.size(), 64u);
  EXPECT_EQ(f->wire_length, 1500u);
  EXPECT_LT(f->bytes.size(), f->wire_length);
}

TEST(Pcap, NanosecondResolution) {
  PcapWriter writer(65535, TimestampResolution::kNano);
  write_test_frame(writer, 100, 123456789);
  auto reader = PcapReader::open(writer.take_buffer());
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->info().resolution, TimestampResolution::kNano);
  auto f = reader->next_view();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->timestamp, 123456789u);
}

TEST(Pcap, MicroResolutionRoundsDown) {
  PcapWriter writer(65535, TimestampResolution::kMicro);
  write_test_frame(writer, 100, 123456789);  // 123456.789 us.
  auto reader = PcapReader::open(writer.take_buffer());
  auto f = reader->next_view();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->timestamp, 123456000u);
}

TEST(Pcap, OpenRejectsBadMagic) {
  std::vector<std::uint8_t> junk(kGlobalHeaderSize, 0xaa);
  EXPECT_FALSE(PcapReader::open(junk).has_value());
}

TEST(Pcap, OpenRejectsShortBuffer) {
  EXPECT_FALSE(PcapReader::open({1, 2, 3}).has_value());
}

TEST(Pcap, CorruptRecordCountsAsBad) {
  PcapWriter writer(65535);
  write_test_frame(writer, 100, 0);
  std::vector<std::uint8_t> bytes = writer.take_buffer();
  // Lie about the record's captured length so it overruns the buffer.
  bytes[kGlobalHeaderSize + 8] = 0xff;
  bytes[kGlobalHeaderSize + 9] = 0xff;
  auto reader = PcapReader::open(std::move(bytes));
  ASSERT_TRUE(reader.has_value());
  EXPECT_FALSE(reader->next_view().has_value());
  EXPECT_EQ(reader->bad_records(), 1u);
}

TEST(Pcap, InconsistentLengthsSkipJustTheBadRecord) {
  PcapWriter writer(65535);
  write_test_frame(writer, 100, 1 * util::kSecond);
  write_test_frame(writer, 120, 2 * util::kSecond);
  write_test_frame(writer, 140, 3 * util::kSecond);
  std::vector<std::uint8_t> bytes = writer.take_buffer();
  // Corrupt the middle record's orig_len so incl > orig while the body
  // still fits — the reader should resync at the third record.
  const std::size_t second_record = kGlobalHeaderSize + kRecordHeaderSize + 100;
  bytes[second_record + 12] = 50;  // orig_len = 50 (LE), below incl of 120.
  bytes[second_record + 13] = 0;
  bytes[second_record + 14] = 0;
  bytes[second_record + 15] = 0;
  auto reader = PcapReader::open(std::move(bytes));
  ASSERT_TRUE(reader.has_value());
  auto f1 = reader->next_view();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->wire_length, 100u);
  auto f3 = reader->next_view();
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->wire_length, 140u);
  EXPECT_EQ(f3->timestamp, 3 * util::kSecond);
  EXPECT_FALSE(reader->next_view().has_value());
  EXPECT_EQ(reader->frames_read(), 2u);
  EXPECT_EQ(reader->bad_records(), 1u);
}

TEST(Pcap, NextViewIsZeroCopyIntoReaderBuffer) {
  PcapWriter writer(65535);
  write_test_frame(writer, 100, 5 * util::kSecond);
  write_test_frame(writer, 200, 6 * util::kSecond);
  auto reader = PcapReader::open(writer.take_buffer());
  ASSERT_TRUE(reader.has_value());

  auto v1 = reader->next_view();
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->bytes.size(), 100u);
  EXPECT_EQ(v1->wire_length, 100u);
  EXPECT_EQ(v1->timestamp, 5 * util::kSecond);
  EXPECT_EQ(v1->bytes.size(), v1->wire_length);

  auto v2 = reader->next_view();
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->bytes.size(), 200u);
  // Consecutive views are adjacent slices of one buffer, record header
  // apart — i.e. no per-record copies were made.
  EXPECT_EQ(v2->bytes.data(),
            v1->bytes.data() + v1->bytes.size() + kRecordHeaderSize);
  EXPECT_FALSE(reader->next_view().has_value());
  EXPECT_EQ(reader->frames_read(), 2u);
}

TEST(Pcap, ViewAndFrameAgreeOnTruncatedRecords) {
  PcapWriter writer(64);
  const net::FrameStore frames = test_frame(1500, 7 * util::kSecond);
  const net::FrameView f = frames.view(0);
  writer.write_record(f.bytes, f.wire_length, f.timestamp);

  auto views = PcapReader::open(writer.take_buffer());
  auto v = views->next_view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->bytes.size(), 64u);
  EXPECT_EQ(v->wire_length, f.wire_length);
  EXPECT_EQ(v->timestamp, f.timestamp);
  EXPECT_LT(v->bytes.size(), v->wire_length);
  EXPECT_TRUE(std::equal(v->bytes.begin(), v->bytes.end(), f.bytes.begin()));
}

TEST(Pcap, StreamSizeFormula) {
  PcapWriter writer(64);
  const std::size_t n = 10;
  for (std::size_t i = 0; i < n; ++i) write_test_frame(writer, 64, 0);
  EXPECT_EQ(writer.bytes_written(), pcap_stream_size(n, 64));
}

TEST(Pcap, WriteRecordReturnsMutableSpanOverStream) {
  // In-place post-write edits (anonymization) must land in the stream.
  PcapWriter writer(65535);
  const net::FrameStore frames = test_frame(100, util::kSecond);
  const net::FrameView f = frames.view(0);
  std::span<std::uint8_t> record =
      writer.write_record(f.bytes, f.wire_length, f.timestamp);
  ASSERT_EQ(record.size(), 100u);
  EXPECT_TRUE(std::equal(record.begin(), record.end(), f.bytes.begin()));
  std::fill(record.begin(), record.begin() + 6, std::uint8_t{0xEE});

  auto reader = PcapReader::open(writer.take_buffer());
  ASSERT_TRUE(reader.has_value());
  auto back = reader->next_view();
  ASSERT_TRUE(back.has_value());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(back->bytes[i], 0xEE);
  EXPECT_TRUE(std::equal(back->bytes.begin() + 6, back->bytes.end(),
                         f.bytes.begin() + 6));
}

TEST(Pcap, WriteRecordSpanCoversOnlySnapLength) {
  // With truncation, the returned span is the captured prefix actually in
  // the stream, not the full wire frame.
  PcapWriter writer(64);
  const net::FrameStore frames = test_frame(1500, 0);
  const net::FrameView f = frames.view(0);
  std::span<std::uint8_t> record =
      writer.write_record(f.bytes, f.wire_length, f.timestamp);
  EXPECT_EQ(record.size(), 64u);
  auto reader = PcapReader::open(writer.take_buffer());
  auto back = reader->next_view();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bytes.size(), 64u);
  EXPECT_EQ(back->wire_length, 1500u);
}

}  // namespace
}  // namespace patchwork::pcap
