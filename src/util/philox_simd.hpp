// Vectorized Philox4x32-10 bulk generation with runtime CPU dispatch.
//
// PR 6 made every data-plane draw counter-addressed: draw j of a stream is
// philox(key, j), a pure function. That shape is exactly what SIMD wants —
// N independent counters are N independent lanes, with no cross-lane state
// to carry. philox_bulk() fills a buffer with a contiguous counter range of
// a stream, computing 4-8 blocks per step on AVX2, 2-4 on SSE4.2, and a
// scalar-unrolled fallback everywhere else. Every tier produces bytes
// identical to PhiloxEngine::at(): Philox is exact 32-bit integer
// arithmetic, so lane width cannot change a single output bit, and the
// golden-vector tests (tests/util/philox_simd_test.cpp) pin each tier
// against the Random123 known answers.
//
// Dispatch is per-call, not per-build: one binary carries all compiled
// tiers, picks the widest one the CPU reports at runtime, and can be
// overridden by the PATCHWORK_SIMD env knob (or set_simd_tier(), which
// patchwork_cli's --simd calls). A per-call relaxed atomic load costs
// nothing next to ten Philox rounds, and it keeps the override testable:
// the determinism suites force each tier in one process and assert the
// rendered bytes never move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace patchwork::util {

/// Instruction-set tiers for the bulk Philox kernels, narrowest first.
/// Which tiers exist in a binary depends on the build
/// (PATCHWORK_SIMD_KERNELS + compiler support, see src/util/CMakeLists.txt);
/// which of those run depends on the host CPU.
enum class SimdTier : std::uint8_t {
  kScalar = 0,  ///< Portable unrolled fallback; always available.
  kSse4 = 1,    ///< 128-bit lanes: 2 blocks per register, 4 per step.
  kAvx2 = 2,    ///< 256-bit lanes: 4 blocks per register, 8 per step.
};

/// Stable lowercase names: "scalar", "sse4", "avx2" — the PATCHWORK_SIMD
/// knob's vocabulary.
std::string_view to_string(SimdTier tier);

/// Parse a knob value ("scalar" | "sse4" | "avx2"); nullopt on anything
/// else.
std::optional<SimdTier> parse_simd_tier(std::string_view name);

/// True when `tier` was compiled in AND the host CPU can execute it.
/// kScalar is always supported.
bool simd_tier_supported(SimdTier tier);

/// The widest supported tier on this host/build.
SimdTier best_simd_tier();

/// The tier philox_bulk() dispatches to right now. Resolution order:
/// explicit set_simd_tier() > PATCHWORK_SIMD env var > best_simd_tier().
/// An env value naming an unsupported or unknown tier is ignored.
SimdTier simd_tier();

/// Force the active tier. Returns false (and changes nothing) if the tier
/// is not supported on this host/build.
bool set_simd_tier(SimdTier tier);

/// Drop any explicit override and re-resolve from the environment.
void reset_simd_tier();

/// Fill out[0..n) with raw draws at(j0) .. at(j0+n-1) of the Philox stream
/// keyed by `key` — the same draw table util::PhiloxEngine(seed=key)
/// exposes (draw j = 64-bit word (j&1) of block (j>>1)). Dispatches on the
/// active tier per call; all tiers are byte-identical. j0 may be odd and n
/// arbitrary; the counter range may cross the 2^32 block-counter carry.
void philox_bulk(std::uint64_t key, std::uint64_t j0, std::size_t n,
                 std::uint64_t* out);

}  // namespace patchwork::util
