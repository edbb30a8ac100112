// Flow specification and frame synthesis.
//
// A FlowSpec pins down everything needed to render a flow's frames on the
// wire: the underlay encapsulation (VLAN / MPLS stack / pseudowire + inner
// Ethernet), addressing, the application archetype, and sizing.
// plan_window() then draws a sample window's flows and render_unit()
// renders their frames — both directions, since a mirrored port clones Tx
// and Rx (Section 3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/frame_builder.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace patchwork::traffic {

struct FlowSpec {
  FlowApp app = FlowApp::kIperfTcp;

  // Underlay encapsulation (outermost first).
  std::optional<std::uint16_t> vlan_id;
  std::vector<std::uint32_t> mpls_labels;
  bool pseudowire = false;  ///< Implies an inner Ethernet after the labels.

  bool ipv6 = false;
  net::MacAddress src_mac;
  net::MacAddress dst_mac;
  net::Ipv4Address src_ip;
  net::Ipv4Address dst_ip;
  net::Ipv6Address src_ip6;
  net::Ipv6Address dst_ip6;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  std::size_t data_frame_size = 1986;  ///< Wire bytes for full data frames.
  std::uint64_t total_bytes = 0;       ///< Intended flow volume.
  /// True for a high-rate stream of short messages (small-message sites):
  /// bulk byte share despite sub-MTU frames.
  bool message_stream = false;
};

/// Draw a flow consistent with a site's profile.
FlowSpec draw_flow(util::Rng& rng, const SiteWorkloadProfile& profile);

/// Describe one frame of `flow` on `builder`: a data frame (src -> dst)
/// carrying TCP seq / DNS id `value`, or with `ack`, a reverse-direction
/// pure ACK (TCP flows only) acknowledging `value`. The ACKs are the
/// minimum-size "Ethernet / VLAN / MPLS / IPv4 / TCP" frames the paper
/// observes filling the 65-127 B bucket. render_unit describes its unit's
/// stack once with value 0 and stamps frame j's value j * 1000.
void describe_frame(net::FrameBuilder& builder, const FlowSpec& flow,
                    bool ack, std::uint32_t value);

/// True when the app rides TCP (and therefore produces an ACK stream).
bool app_is_tcp(FlowApp app);

struct WindowParams {
  util::Nanos duration = 20 * util::kSecond;  ///< Paper's sample length.
  double target_bps = 0.0;      ///< Aggregate rate crossing the port.
  std::size_t max_frames = 20000;  ///< Rendering cap (scaled sampling).
};

// Substream layout of one sample window's counter-based render. All
// stochastic phases hang off a per-window root Rng via split(), so each
// phase reads an independent stream and no phase's consumption shifts
// another's draws — the precondition for decomposing a render into
// schedulable subtasks with byte-identical output.
inline constexpr std::uint64_t kWindowPlanStream = 0;      ///< plan_window().
inline constexpr std::uint64_t kWindowDeliveryStream = 1;  ///< Loss thinning.
inline constexpr std::uint64_t kWindowCaptureStream = 2;   ///< CaptureSession.
/// Render unit u draws timestamps from split(kWindowUnitStreamBase + u).
inline constexpr std::uint64_t kWindowUnitStreamBase = 16;

/// One independently renderable slice of a window: every frame of one
/// flow in one direction (data or ACK). Frame j of a unit is a pure
/// function of (unit stream, j), so units can be rendered whole, split
/// into bursts, or re-rendered — always producing the same bytes.
struct RenderUnit {
  std::uint32_t flow = 0;     ///< Index into WindowPlan::flows.
  bool acks = false;          ///< Reverse-direction pure-ACK frames.
  std::uint64_t frames = 0;   ///< Rendered frame count for this unit.
  /// Inclusive timestamp bounds for the unit's frames, clamped to the
  /// window by render_unit(). The defaults span the whole window (the mix
  /// model's shape); the event-driven planner narrows them to each flow's
  /// active interval. Still pure counter addressing: the bounds only
  /// change the range draw j maps into, never which draw a frame reads.
  util::Nanos ts_lo = 0;
  util::Nanos ts_hi = ~std::uint64_t{0};
};

/// The deterministic plan for one window: the flows it draws, each stored
/// once, how many frames each unit renders, and the true offered rates
/// they represent.
struct WindowPlan {
  std::vector<FlowSpec> flows;
  std::vector<RenderUnit> units;
  double offered_pps = 0.0;
  double offered_bps = 0.0;
  std::size_t flow_count = 0;        ///< Flow activations in the window.
  std::uint64_t planned_frames = 0;  ///< Sum of units[*].frames.
};

/// One flow activation as a planner hands it to plan_units: the flow, its
/// true data-frame count before any cap, and its active interval (the
/// RenderUnit bounds its units get).
struct FlowActivity {
  std::uint32_t flow = 0;    ///< Index into WindowPlan::flows.
  double data_frames = 0.0;  ///< True count in the window, uncapped.
  util::Nanos ts_lo = 0;
  util::Nanos ts_hi = ~std::uint64_t{0};
};

/// Draw the window plan (flow population, shares, per-unit frame counts)
/// from `rng` — the kWindowPlanStream substream. Consumes rng sequentially;
/// everything downstream of the returned plan is counter-addressed.
WindowPlan plan_window(util::Rng& rng, const SiteWorkloadProfile& profile,
                       const WindowParams& params);

/// Both planners' tail: turn each activity into plan.units, in order, and
/// set plan.flow_count, offered_pps and planned_frames. Every flow sends
/// at least one data frame and a non-bulk flow at most 50; a TCP flow adds
/// one ACK per five data frames. When the true total exceeds
/// params.max_frames, every count is scaled by max_frames / total. Each
/// unit's fractional frame is then a coin drawn from `rng` (data, then
/// ACK, in activity order), and a unit left with no frame is dropped.
void plan_units(util::Rng& rng, const std::vector<FlowActivity>& activity,
                const WindowParams& params, WindowPlan& plan);

/// Render frames [begin, end) of `unit`, whose flow is `flow`, into
/// `store`, drawing timestamp j from `draws.bounded_at(j, ...)`. `builder`
/// is reused scratch; the bytes appended depend only on (flow, unit,
/// draws, j) — not on the [begin, end) batching.
void render_unit(const FlowSpec& flow, const RenderUnit& unit,
                 const util::RngBlock& draws, util::Nanos duration,
                 std::uint64_t begin, std::uint64_t end,
                 net::FrameBuilder& builder, net::FrameStore& store);

}  // namespace patchwork::traffic
