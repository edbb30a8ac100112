// RAII stage spans: scoped timers that record how long a named stage ran,
// in wall-clock nanoseconds always and in simulated nanoseconds when the
// caller passes the driving sim::Clock.
//
// Determinism split (see metrics.hpp): the run count and the simulated-time
// histogram are kDeterministic — they depend only on the seeded work — while
// the wall-clock histogram is kWallClock and therefore excluded from the
// byte-comparable exposition and from the manifest's deterministic section.
//
// Spans nest freely: each instance resolves its own handles and records on
// destruction, so a span open on a caller thread coexists with spans opened
// inside parallel_for workers (handles are updated with sharded relaxed
// atomics, never a shared lock).
#pragma once

#include <chrono>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "util/units.hpp"

namespace patchwork::obs {

class StageSpan {
 public:
  /// Opens a span for `stage`. With a clock, the simulated duration
  /// (clock->now() delta between construction and destruction) is recorded
  /// into the deterministic patchwork_stage_sim_ns histogram as well.
  /// When the flight recorder is armed (obs/trace.hpp) the span also
  /// records a begin/end timeline event carrying `args` on the recording
  /// thread's lane; disarmed, that costs one relaxed flag load.
  explicit StageSpan(std::string_view stage,
                     const sim::Clock* clock = nullptr,
                     trace::SpanArgs args = {});
  ~StageSpan();

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Counter& runs_;
  LatencyHistogram& wall_ns_;
  LatencyHistogram* sim_ns_ = nullptr;
  const sim::Clock* clock_ = nullptr;
  util::Nanos sim_start_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
  std::string_view stage_;  ///< Callers pass literals; spans are scoped.
  trace::SpanArgs trace_args_;
  bool traced_ = false;
  std::uint64_t trace_begin_ns_ = 0;
};

#define OBS_SPAN_CONCAT_INNER(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT_INNER(a, b)

/// OBS_SPAN("pipeline/analyze"); — times the enclosing scope as one stage run.
#define OBS_SPAN(stage) \
  ::patchwork::obs::StageSpan OBS_SPAN_CONCAT(obs_span_, __LINE__)(stage)

/// OBS_SPAN_SIM("run_sites", &clock); — also records simulated duration.
#define OBS_SPAN_SIM(stage, clock)                                  \
  ::patchwork::obs::StageSpan OBS_SPAN_CONCAT(obs_span_, __LINE__)( \
      stage, clock)

/// OBS_SPAN_ARGS("profiler/render_sample", .site = 3, .sample = 1); —
/// same metrics as OBS_SPAN, plus site/sample/burst args on the trace
/// timeline event when the flight recorder is armed.
#define OBS_SPAN_ARGS(stage, ...)                                   \
  ::patchwork::obs::StageSpan OBS_SPAN_CONCAT(obs_span_, __LINE__)( \
      stage, nullptr, ::patchwork::obs::trace::SpanArgs{__VA_ARGS__})

}  // namespace patchwork::obs
