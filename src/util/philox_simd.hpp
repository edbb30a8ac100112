// Bulk Philox4x32-10 generation.
//
// Every data-plane draw is counter-addressed: draw j of a stream is
// philox(key, j), a pure function. philox_bulk() fills a buffer with a
// contiguous counter range of a stream, four independent blocks per step.
// It produces bytes identical to PhiloxEngine::at(), and the golden-vector
// tests (tests/util/philox_simd_test.cpp) pin it against the Random123
// known answers.
//
// There is one kernel and no dispatch, so every host runs the same code.
// A `testbed_epoch` pass draws about one timestamp per offered frame, a few
// milliseconds of this loop against more than a second of CPU, which is
// why wider kernels bought no end-to-end time (DESIGN.md §5b).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace patchwork::util {

/// The draw kernel's name in perfbench's host report. There is one kernel.
enum class SimdTier : std::uint8_t {
  kScalar = 0,
};

inline std::string_view to_string(SimdTier /*tier*/) { return "scalar"; }

/// The kernel philox_bulk() runs: always kScalar.
inline SimdTier simd_tier() { return SimdTier::kScalar; }

/// Fill out[0..n) with raw draws at(j0) .. at(j0+n-1) of the Philox stream
/// keyed by `key` — the same draw table util::PhiloxEngine(seed=key)
/// exposes (draw j = 64-bit word (j&1) of block (j>>1)). j0 may be odd and
/// n arbitrary; the counter range may cross the 2^32 block-counter carry.
void philox_bulk(std::uint64_t key, std::uint64_t j0, std::size_t n,
                 std::uint64_t* out);

}  // namespace patchwork::util
