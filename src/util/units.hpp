// Time, size, and rate units used throughout the Patchwork codebase.
//
// All simulated time is kept in integer nanoseconds (see sim::Clock); all
// sizes in bytes; all rates in bits per second carried in doubles. These
// helpers exist so call sites read as "5 * kMillisecond" or "Gbps(100)"
// rather than bare magic numbers.
#pragma once

#include <cstdint>

namespace patchwork::util {

// --- Time (nanoseconds) ------------------------------------------------
using Nanos = std::uint64_t;

inline constexpr Nanos kNanosecond = 1;
inline constexpr Nanos kMicrosecond = 1'000;
inline constexpr Nanos kMillisecond = 1'000'000;
inline constexpr Nanos kSecond = 1'000'000'000;
inline constexpr Nanos kMinute = 60 * kSecond;
inline constexpr Nanos kHour = 60 * kMinute;
inline constexpr Nanos kDay = 24 * kHour;

/// Convert nanoseconds to fractional seconds.
constexpr double to_seconds(Nanos ns) { return static_cast<double>(ns) / 1e9; }

/// Convert fractional seconds to nanoseconds (saturating at 0 for negatives).
constexpr Nanos from_seconds(double s) {
  return s <= 0.0 ? 0 : static_cast<Nanos>(s * 1e9);
}

// --- Sizes (bytes) ------------------------------------------------------
inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

// --- Rates (bits per second) -------------------------------------------
constexpr double Kbps(double v) { return v * 1e3; }
constexpr double Mbps(double v) { return v * 1e6; }
constexpr double Gbps(double v) { return v * 1e9; }
constexpr double Tbps(double v) { return v * 1e12; }

}  // namespace patchwork::util
