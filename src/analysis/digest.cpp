#include "analysis/digest.hpp"

#include "net/parser.hpp"
#include "pcap/pcap.hpp"
#include "util/parallel.hpp"

namespace patchwork::analysis {

DigestStats& DigestStats::operator+=(const DigestStats& other) {
  frames += other.frames;
  bad_records += other.bad_records;
  truncated_frames += other.truncated_frames;
  malformed_frames += other.malformed_frames;
  return *this;
}

AcapFile digest(const RawCapture& capture, DigestStats* stats) {
  AcapFile out;
  out.site = capture.site;
  out.port = capture.port;
  out.start = capture.start;
  out.duration = capture.duration;
  out.switch_drops_suspected = capture.switch_drops_suspected;
  out.pcap_bytes = capture.pcap.size();

  auto reader = pcap::PcapReader::open(capture.pcap);
  if (!reader) {
    if (stats) ++stats->bad_records;
    return out;
  }
  // Zero-copy hot loop: dissect each record in place in the reader's
  // buffer.
  while (auto view = reader->next_view()) {
    const net::ParsedFrame parsed =
        net::parse_bytes(view->bytes, view->wire_length, view->timestamp);
    AcapRecord rec = abstract_frame(parsed);
    if (stats) {
      ++stats->frames;
      if (rec.has(net::Protocol::kTruncated)) ++stats->truncated_frames;
      if (rec.has(net::Protocol::kMalformed)) ++stats->malformed_frames;
    }
    out.records.push_back(std::move(rec));
  }
  if (stats) stats->bad_records += reader->bad_records();
  return out;
}

std::vector<AcapFile> digest_all(const std::vector<RawCapture>& captures,
                                 DigestStats* stats) {
  // One task per capture; each writes its own output slot and its own
  // private DigestStats, merged below in input order.
  std::vector<AcapFile> out(captures.size());
  std::vector<DigestStats> per_capture(stats ? captures.size() : 0);
  util::parallel_for(captures.size(), [&](std::size_t i) {
    out[i] = digest(captures[i], stats ? &per_capture[i] : nullptr);
  });
  if (stats) {
    for (const DigestStats& s : per_capture) *stats += s;
  }
  return out;
}

}  // namespace patchwork::analysis
