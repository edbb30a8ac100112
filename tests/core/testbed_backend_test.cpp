// Contract tests for the testbed abstraction layer: the same expectations
// run over the FABRIC-like and Emulab-like backends, demonstrating the
// Section 9 portability claim.
#include "core/testbed_backend.hpp"

#include <gtest/gtest.h>

#include "net/parser.hpp"
#include "pcap/pcap.hpp"

namespace patchwork::core {
namespace {

enum class Flavor { kFabric, kEmulab };

class BackendContract : public ::testing::TestWithParam<Flavor> {
 protected:
  std::unique_ptr<TestbedBackend> make() {
    return GetParam() == Flavor::kFabric ? make_fabric_like_backend(5)
                                         : make_emulab_like_backend(5);
  }
};

TEST_P(BackendContract, LeaseAcquireReleaseRestoresInventory) {
  auto backend = make();
  const std::size_t before = backend->available_capture_nics();
  ASSERT_GT(before, 0u);
  auto result = backend->acquire_capture_node();
  ASSERT_TRUE(std::holds_alternative<TestbedBackend::CaptureLease>(result));
  const auto lease = std::get<TestbedBackend::CaptureLease>(result);
  EXPECT_FALSE(lease.destinations.empty());
  EXPECT_EQ(backend->available_capture_nics(), before - 1);
  backend->release(lease);
  EXPECT_EQ(backend->available_capture_nics(), before);
}

TEST_P(BackendContract, ExhaustionReportsError) {
  auto backend = make();
  std::vector<TestbedBackend::CaptureLease> held;
  for (int i = 0; i < 32; ++i) {
    auto result = backend->acquire_capture_node();
    if (std::holds_alternative<testbed::AllocError>(result)) {
      EXPECT_EQ(std::get<testbed::AllocError>(result),
                testbed::AllocError::kNoDedicatedNic);
      for (const auto& lease : held) backend->release(lease);
      return;
    }
    held.push_back(std::get<TestbedBackend::CaptureLease>(result));
  }
  FAIL() << "backend never ran out of capture NICs";
}

TEST_P(BackendContract, MirrorLifecycle) {
  auto backend = make();
  auto result = backend->acquire_capture_node();
  ASSERT_TRUE(std::holds_alternative<TestbedBackend::CaptureLease>(result));
  const auto lease = std::get<TestbedBackend::CaptureLease>(result);
  const testbed::PortId dest = lease.destinations.front();

  // Choose a source from telemetry, excluding our own destinations.
  const auto rates = backend->port_rates(15 * util::kMinute);
  ASSERT_FALSE(rates.empty());
  testbed::PortId source = rates.front().port.port;
  for (const auto& r : rates) {
    if (std::find(lease.destinations.begin(), lease.destinations.end(),
                  r.port.port) == lease.destinations.end()) {
      source = r.port.port;
      break;
    }
  }
  EXPECT_TRUE(backend->mirror(source, dest));
  // Retarget to another candidate, then tear down.
  for (const auto& r : rates) {
    if (r.port.port == source || r.port.port == dest) continue;
    if (std::find(lease.destinations.begin(), lease.destinations.end(),
                  r.port.port) != lease.destinations.end()) {
      continue;
    }
    EXPECT_TRUE(backend->retarget(source, r.port.port));
    source = r.port.port;
    break;
  }
  EXPECT_TRUE(backend->unmirror(source));
  EXPECT_FALSE(backend->unmirror(source));
  backend->release(lease);
}

TEST_P(BackendContract, SampleProducesParsableTraffic) {
  auto backend = make();
  const auto rates = backend->port_rates(15 * util::kMinute);
  ASSERT_FALSE(rates.empty());
  const util::Nanos start = backend->now();
  const analysis::RawCapture capture =
      backend->sample(rates.front().port.port, 20 * util::kSecond, 500);
  EXPECT_EQ(capture.port, rates.front().port.port.value);
  EXPECT_EQ(capture.start, start);
  EXPECT_EQ(capture.duration, 20 * util::kSecond);
  EXPECT_EQ(backend->now(), start + 20 * util::kSecond);
  auto reader = pcap::PcapReader::open(capture.pcap);
  ASSERT_TRUE(reader.has_value());
  std::size_t frames = 0;
  while (const auto view = reader->next_view()) {
    ++frames;
    const net::ParsedFrame parsed =
        net::parse_bytes(view->bytes, view->wire_length, view->timestamp);
    EXPECT_FALSE(parsed.has(net::Protocol::kMalformed));
  }
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(reader->bad_records(), 0u);
}

TEST_P(BackendContract, TimeAdvances) {
  auto backend = make();
  const util::Nanos t0 = backend->now();
  backend->advance(util::kMinute);
  EXPECT_EQ(backend->now(), t0 + util::kMinute);
}

INSTANTIATE_TEST_SUITE_P(Flavors, BackendContract,
                         ::testing::Values(Flavor::kFabric, Flavor::kEmulab),
                         [](const auto& info) {
                           return info.param == Flavor::kFabric
                                      ? "FabricSim"
                                      : "EmulabSim";
                         });

// --- Flavor-specific expectations ------------------------------------------

TEST(BackendFlavors, FabricOffloadsEmulabDoesNot) {
  EXPECT_TRUE(make_fabric_like_backend(5)->supports_offload());
  EXPECT_FALSE(make_emulab_like_backend(5)->supports_offload());
}

TEST(BackendFlavors, UnderlayTaggingDiffers) {
  auto sample_stacks = [](TestbedBackend& backend) {
    std::size_t mpls = 0, frames = 0;
    const auto rates = backend.port_rates(15 * util::kMinute);
    for (std::size_t i = 0; i < std::min<std::size_t>(3, rates.size()); ++i) {
      const analysis::RawCapture capture =
          backend.sample(rates[i].port.port, 20 * util::kSecond, 400);
      auto reader = pcap::PcapReader::open(capture.pcap);
      while (const auto view = reader->next_view()) {
        ++frames;
        if (net::parse_bytes(view->bytes, view->wire_length, view->timestamp)
                .has(net::Protocol::kMpls)) {
          ++mpls;
        }
      }
    }
    // A real share, not an empty capture's zero.
    EXPECT_GT(frames, 100u) << backend.name();
    return frames ? static_cast<double>(mpls) / static_cast<double>(frames)
                  : 0.0;
  };
  auto fabric = make_fabric_like_backend(5);
  auto emulab = make_emulab_like_backend(5);
  EXPECT_GT(sample_stacks(*fabric), 0.5);   // MPLS underlay everywhere.
  EXPECT_EQ(sample_stacks(*emulab), 0.0);   // VLAN-only isolation.
}

TEST(BackendFlavors, EmulabHasFewerCaptureNics) {
  auto fabric = make_fabric_like_backend(5);
  auto emulab = make_emulab_like_backend(5);
  EXPECT_LT(emulab->available_capture_nics(),
            fabric->available_capture_nics());
}

TEST(BackendFlavors, EmulabHasCaptureNicAtEverySeed) {
  // Every worker's shared NIC takes a downlink first; the spec must leave
  // room for at least one dual-port capture NIC after them.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_GE(make_emulab_like_backend(seed)->available_capture_nics(), 1u)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace patchwork::core
