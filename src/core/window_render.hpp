// One sample window's data plane, from its plan to the frames a capture
// session sees (Fig. 8's mirrored window before it becomes a pcap).
//
// SiteProfiler::render_sample and the simulated TestbedBackend both render
// through render_window, so every testbed behind the abstraction layer
// samples with the same bursts, merge order and mirror-delivery rule.
#pragma once

#include <cstddef>
#include <vector>

#include "net/frame_store.hpp"
#include "obs/trace.hpp"
#include "traffic/flowgen.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace patchwork::core {

/// A rendered window. `frames` alias the arenas in `stores`, which keep
/// their addresses when the struct moves: move it, never copy it.
struct RenderedWindow {
  std::vector<net::FrameStore> stores;  ///< One arena per burst.
  std::vector<net::FrameView> frames;   ///< Merged, delivery-thinned.
  double offered_pps = 0.0;             ///< The plan's rate x delivery.
};

/// Render `plan` under the window root `rng`:
///  - each unit is cut into bursts of at most `batch_frames` frames
///    (0 = 1024), rendered by one parallel_for into private arenas, unit u
///    drawing from rng.split(kWindowUnitStreamBase + u);
///  - the bursts merge into the window's total order (timestamp, unit,
///    frame index);
///  - with `delivery` < 1, merged frame j survives the mirror's egress
///    capacity by draw j of rng.split(kWindowDeliveryStream).
/// The result is byte-identical for any batch size and worker count.
/// `args` tag the render/synthesis span, and the render_unit trace event
/// of each burst of more than one frame, with the burst index added.
RenderedWindow render_window(const traffic::WindowPlan& plan,
                             const util::Rng& rng, util::Nanos duration,
                             double delivery, std::size_t batch_frames,
                             obs::trace::SpanArgs args);

}  // namespace patchwork::core
