// Arena-backed frame storage for the batched synthesis path.
//
// The render hot loop used to materialize every frame as an owning
// net::Frame (one heap vector per packet). A FrameStore instead packs a
// burst's frames back-to-back into one byte arena plus a small metadata
// row per frame, and hands out FrameView slices — the same zero-copy view
// pcap::PcapReader gives the read path. One allocation amortizes across
// the whole burst, and clear() keeps the capacity for the next one.
//
// Lifetime rule: views alias the arena, which may reallocate while frames
// are still being appended. Take views only after the store stops growing
// (the render path builds a whole burst, then reads).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/headers.hpp"
#include "util/units.hpp"

namespace patchwork::net {

/// Non-owning view of one frame: its captured (possibly truncated) bytes,
/// original wire length, and timestamp. Synthesis arenas and pcap readers
/// both hand these out, so capture and Digest share one view type.
struct FrameView {
  std::span<const std::uint8_t> bytes;
  std::size_t wire_length = 0;
  util::Nanos timestamp = 0;
};

class FrameStore {
 public:
  std::size_t size() const { return meta_.size(); }
  bool empty() const { return meta_.empty(); }
  std::size_t total_bytes() const { return bytes_.size(); }

  /// Drop all frames but keep both buffers' capacity (arena reuse).
  void clear() {
    bytes_.clear();
    meta_.clear();
  }

  void reserve(std::size_t frames, std::size_t bytes) {
    meta_.reserve(frames);
    bytes_.reserve(bytes);
  }

  /// The byte arena. Builders append a frame's serialization directly
  /// here, then commit() the appended range.
  Bytes& arena() { return bytes_; }

  /// Register the frame occupying [start, arena().size()) with the given
  /// timestamp. The wire length is the serialized length (synthesis emits
  /// untruncated frames).
  void commit(std::size_t start, util::Nanos timestamp) {
    meta_.push_back(Meta{start, bytes_.size() - start, timestamp});
  }

  FrameView view(std::size_t i) const {
    const Meta& m = meta_[i];
    return FrameView{
        std::span<const std::uint8_t>(bytes_).subspan(m.offset, m.length),
        m.length, m.timestamp};
  }

 private:
  struct Meta {
    std::size_t offset = 0;
    std::size_t length = 0;
    util::Nanos timestamp = 0;
  };
  Bytes bytes_;
  std::vector<Meta> meta_;
};

}  // namespace patchwork::net
