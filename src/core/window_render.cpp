#include "core/window_render.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "obs/span.hpp"
#include "util/parallel.hpp"

namespace patchwork::core {

RenderedWindow render_window(const traffic::WindowPlan& plan,
                             const util::Rng& rng, util::Nanos duration,
                             double delivery, obs::trace::SpanArgs args) {
  // Synthesis: decompose units into fixed-size bursts, each rendering a
  // counter range of its unit into a private arena. Bursts are the indices
  // of a parallel_for; the decomposition depends only on the plan.
  struct Burst {
    std::size_t unit = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  std::vector<Burst> bursts;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    for (std::uint64_t b = 0; b < plan.units[u].frames;
         b += kRenderBurstFrames) {
      bursts.push_back(Burst{
          u, b, std::min(plan.units[u].frames, b + kRenderBurstFrames)});
    }
  }
  std::vector<util::RngBlock> unit_draws;
  unit_draws.reserve(plan.units.size());
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    unit_draws.emplace_back(
        rng.split(traffic::kWindowUnitStreamBase + std::uint64_t{u}));
  }
  RenderedWindow out;
  out.stores.resize(bursts.size());
  {
    const obs::StageSpan synthesis("render/synthesis", nullptr, args);
    // Burst index for the trace timeline: position in the decomposition,
    // itself deterministic (plan only). The event is trace-only
    // (obs::trace::ScopedEvent) so per-burst instrumentation registers no
    // metric families — the deterministic exposition is byte-identical
    // with tracing on or off. One-frame bursts record no event:
    // event-model windows hold so many that they would overflow the rings.
    // Burst sizes come from the plan, so the recorded set stays independent
    // of scheduling.
    util::parallel_for(bursts.size(), [&](std::size_t b) {
      const Burst& burst = bursts[b];
      std::optional<obs::trace::ScopedEvent> trace_burst;
      if (burst.end - burst.begin > 1) {
        obs::trace::SpanArgs burst_args = args;
        burst_args.burst = static_cast<std::int64_t>(b);
        trace_burst.emplace("render_unit", burst_args);
      }
      // One builder per worker, reused across bursts: render_unit resets it
      // and starts no nested parallel work, so no burst re-enters it.
      thread_local net::FrameBuilder builder;
      traffic::render_unit(plan.units[burst.unit], unit_draws[burst.unit],
                           duration, burst.begin, burst.end, builder,
                           out.stores[b]);
    });
  }

  // Merge to the window's total order (timestamp, unit, counter) — fully
  // determined by the plan, so identical for every decomposition.
  struct Ref {
    const net::FrameStore* store;
    std::size_t local;
    util::Nanos ts;
    std::size_t unit;
    std::uint64_t j;
  };
  std::vector<Ref> refs;
  refs.reserve(plan.planned_frames);
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    const net::FrameStore& store = out.stores[b];
    for (std::size_t i = 0; i < store.size(); ++i) {
      refs.push_back(Ref{&store, i, store.view(i).timestamp, bursts[b].unit,
                         bursts[b].begin + i});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.unit != b.unit) return a.unit < b.unit;
    return a.j < b.j;
  });

  // Switch egress-capacity rule: oversubscribed mirrors silently lose
  // frames. Decided per frame by its position in the merged order, on the
  // delivery substream.
  out.offered_pps = plan.offered_pps;
  out.frames.reserve(refs.size());
  if (delivery < 1.0) {
    const util::RngBlock delivery_draws(
        rng.split(traffic::kWindowDeliveryStream));
    // Bulk Bernoulli keep/drop decisions (draw j == merged position j,
    // matching the scalar chance_at contract), then a branch-light scan.
    std::vector<std::uint8_t> keep(refs.size());
    delivery_draws.chance_fill(0, delivery, keep);
    for (std::size_t j = 0; j < refs.size(); ++j) {
      if (keep[j] != 0) {
        out.frames.push_back(refs[j].store->view(refs[j].local));
      }
    }
    out.offered_pps *= delivery;
  } else {
    for (const Ref& ref : refs) {
      out.frames.push_back(ref.store->view(ref.local));
    }
  }
  return out;
}

}  // namespace patchwork::core
