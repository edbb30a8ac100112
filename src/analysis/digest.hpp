// The Digest step (Section 6.2.4): raw pcap -> abstract capture.
//
// "The Digest step takes raw pcap files and applies the protocol
// dissectors ... to extract information about each header, discarding
// unneeded information." Here the dissector is net::parse_bytes, the
// repository's Wireshark-dissector counterpart. Digest hands each record
// to its caller as it is dissected; nothing holds a capture's records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/acap.hpp"
#include "net/parser.hpp"
#include "pcap/pcap.hpp"
#include "util/logging.hpp"
#include "util/units.hpp"

namespace patchwork::analysis {

/// What the gathering phase ships to the coordinator for one sample: the
/// pcap plus the instance's logs and sample metadata (Fig. 7 step 4).
struct RawCapture {
  std::string site;
  std::uint32_t port = 0;
  util::Nanos start = 0;
  util::Nanos duration = 0;
  std::uint64_t switch_drops_suspected = 0;
  std::vector<std::uint8_t> pcap;
  util::Logger logs;
};

struct DigestStats {
  std::uint64_t frames = 0;
  std::uint64_t bad_records = 0;
  std::uint64_t truncated_frames = 0;   ///< Snaplen cut into a header.
  std::uint64_t malformed_frames = 0;

  /// Fold another chunk's counters in. All fields are sums, so merging is
  /// order-independent; the Analyze fold still merges in chunk order.
  DigestStats& operator+=(const DigestStats& other);
};

/// Digest one capture: dissect each pcap record in place in the reader's
/// buffer and pass its abstract record to `on_record(const AcapRecord&)`,
/// in capture order, before reading the next. Counters go to `stats` when
/// it is non-null; a pcap that does not open counts one bad record and
/// yields no records.
template <typename OnRecord>
void digest(const RawCapture& capture, DigestStats* stats,
            OnRecord&& on_record) {
  auto reader = pcap::PcapReader::open(capture.pcap);
  if (!reader) {
    if (stats) ++stats->bad_records;
    return;
  }
  while (auto view = reader->next_view()) {
    const AcapRecord rec = abstract_frame(
        net::parse_bytes(view->bytes, view->wire_length, view->timestamp));
    if (stats) {
      ++stats->frames;
      if (rec.has(net::Protocol::kTruncated)) ++stats->truncated_frames;
      if (rec.has(net::Protocol::kMalformed)) ++stats->malformed_frames;
    }
    on_record(rec);
  }
  if (stats) stats->bad_records += reader->bad_records();
}

}  // namespace patchwork::analysis
