#include "capture/fpga_pipeline.hpp"

namespace patchwork::capture {

bool FpgaPipeline::admit(const net::FrameView& view) {
  ++stats_.seen;
  const Filter& filter = config_.filter;
  if (!filter.matches_all() &&
      !filter.matches(net::parse_bytes(view.bytes, view.wire_length,
                                       view.timestamp))) {
    ++stats_.filtered_out;
    return false;
  }
  if (config_.sample_1_in_n > 1) {
    if (sample_counter_++ % config_.sample_1_in_n != 0) {
      ++stats_.sampled_out;
      return false;
    }
  }
  return true;
}

void FpgaPipeline::edit_in_place(std::span<std::uint8_t> bytes,
                                 std::size_t wire_length,
                                 util::Nanos timestamp) {
  if (config_.anonymize) {
    // Dissect the (already truncated) bytes so rewrite offsets are in
    // bounds, then scrub them where they sit.
    const net::ParsedFrame parsed =
        net::parse_bytes(bytes, wire_length, timestamp);
    anonymizer_.scrub(bytes, parsed);
  }
  ++stats_.emitted;
}

}  // namespace patchwork::capture
