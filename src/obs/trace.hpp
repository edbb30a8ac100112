// Flight-recorder trace timeline: per-thread fixed-capacity event rings
// that make the data plane's fan-out visible per worker lane.
//
// Every OBS_SPAN-covered stage (and trace-only scopes like render_unit,
// one per burst of more than one frame) records one complete event —
// name, lane (thread), begin/end wall ns, optional site/sample/burst args —
// into a ring owned by the recording thread. TaskGroup steals surface as
// instant events via the util::set_task_steal_observer hook. At run end
// the rings drain into Chrome trace-event JSON (catapult format), loadable
// in Perfetto or chrome://tracing, so Coordinator Phase-2 scheduling, work
// stealing, per-burst render_unit latency, and compression scratch reuse
// are directly inspectable per worker.
//
// Hot-path rules:
//   1. Tracing off => one relaxed flag load per span, nothing else: no
//      shared-cache-line writes, no allocation, no lock.
//   2. Tracing on  => the recording thread writes only its own ring (plain
//      stores; the ring is allocated once on the thread's first event).
//      Overflow overwrites the oldest slot — flight-recorder semantics —
//      and is counted in patchwork_trace_dropped_events_total (kWallClock:
//      which thread overflows is schedule-dependent). Recording never
//      blocks.
//   3. Determinism survives tracing. The trace layer registers no
//      deterministic metric families, so the deterministic exposition and
//      ProfileRun bytes are identical with tracing on or off, at any
//      worker count. The *set* of complete events (names and counts) is a
//      pure function of the seeded work; only lane assignment, timestamps,
//      and steal events are schedule-dependent.
//
// Lifecycle contract: start()/stop()/reset()/drain run from a control
// thread while no spans are in flight (between runs). Worker-side writes
// are ordered before the drain by the pool's own synchronization
// (TaskGroup::wait / the pool mutex), so draining after a run needs no
// extra locking on the rings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace patchwork::obs::trace {

/// Optional arguments attached to an event; -1 means "absent" and is
/// omitted from the rendered JSON.
struct SpanArgs {
  std::int64_t site = -1;
  std::int64_t sample = -1;
  std::int64_t burst = -1;
};

/// One recorded event. `phase` is the Chrome trace phase: 'X' (complete,
/// begin/end pair) or 'i' (instant, begin only).
struct Event {
  static constexpr std::size_t kNameCapacity = 48;
  char name[kNameCapacity] = {};
  std::uint64_t begin_ns = 0;  ///< Nanoseconds since trace start().
  std::uint64_t end_ns = 0;
  SpanArgs args;
  char phase = 'X';
};

/// An event with the lane (per-thread track) it was recorded on, as the
/// drain sees it. Lane ids are registration order, schedule-dependent.
struct LaneEvent {
  std::uint32_t lane = 0;
  Event event;
};

/// Default per-thread ring capacity (events) when none is given.
inline constexpr std::size_t kDefaultCapacity = 1 << 15;

/// True while the recorder accepts events. One relaxed atomic load — the
/// whole cost of an untraced span beyond its existing metrics updates.
bool enabled();

/// Nanoseconds since start() on the steady clock (0 when never started).
std::uint64_t now_ns();

/// Arm the recorder: fix the per-thread ring capacity, re-zero every
/// already-registered lane, set the time origin, and install the
/// TaskGroup steal observer. Call only while no spans are in flight.
void start(std::size_t capacity_per_thread = kDefaultCapacity);

/// Disarm recording (rings are kept for draining). Idempotent.
void stop();

/// stop() plus clear every lane and the drop counts. The rings' memory is
/// retained for reuse — lanes are process-lifetime, like pool workers.
void reset();

/// Record one complete event ('X'). No-op when disabled. Never blocks;
/// on ring overflow the oldest event is overwritten and counted.
void record_complete(std::string_view name, std::uint64_t begin_ns,
                     std::uint64_t end_ns, const SpanArgs& args = {});

/// Record one instant event ('i') stamped at now_ns().
void record_instant(std::string_view name, const SpanArgs& args = {});

/// Trace-only RAII scope: records a complete event with no metrics-side
/// families, so per-burst instrumentation cannot perturb the
/// deterministic exposition. Cost when disabled: one relaxed load.
class ScopedEvent {
 public:
  explicit ScopedEvent(std::string_view name, const SpanArgs& args = {})
      : active_(enabled()) {
    if (active_) {
      name_ = name;
      args_ = args;
      begin_ns_ = now_ns();
    }
  }
  ~ScopedEvent() {
    if (active_) record_complete(name_, begin_ns_, now_ns(), args_);
  }
  ScopedEvent(const ScopedEvent&) = delete;
  ScopedEvent& operator=(const ScopedEvent&) = delete;

 private:
  const bool active_;
  std::string_view name_;
  SpanArgs args_;
  std::uint64_t begin_ns_ = 0;
};

/// Events overwritten by ring overflow across all lanes so far (also
/// exposed as patchwork_trace_dropped_events_total).
std::uint64_t dropped_events();

/// Drain every lane, oldest event first per lane. Safe once the traced
/// work has quiesced (see the lifecycle contract above).
std::vector<LaneEvent> snapshot_events();

/// Render the drained events as Chrome trace-event JSON
/// ({"traceEvents": [...]}, timestamps in microseconds), one pid, one tid
/// per lane. Loadable in Perfetto / chrome://tracing.
std::string render_chrome_json();

/// Write render_chrome_json() to `path`. Returns false on I/O failure.
bool write_chrome_json(const std::string& path);

/// PATCHWORK_TRACE=path[:capacity] — arm the recorder and remember the
/// output path. Returns true when the variable was set and parsed.
bool configure_from_env();

/// The path configure_from_env() latched ("" when unset).
std::string env_configured_path();

/// When configure_from_env() armed the recorder, stop and write the JSON
/// to the latched path. Returns true when a file was written.
bool write_env_configured();

}  // namespace patchwork::obs::trace
