// Live Prometheus scrape endpoint: a dependency-free HTTP/1.1 server on a
// dedicated thread, the "always-on operation" counterpart to the file
// exporter. The paper's deployment is scraped over TCP through an SNMP ->
// Prometheus -> Grafana chain; this gives the reproduction the same
// pull-based liveness (fs123's exportd is the idiom exemplar: a plain
// socket loop serving a read-mostly exposition).
//
// Served routes (GET only):
//   /metrics                  full exposition (obs::expose_text(false))
//   /metrics?deterministic=1  byte-comparable view (kWallClock omitted)
//   /healthz                  JSON: status, uptime, run-phase gauge, build
//   /manifest.json            the per-run manifest, rebuilt on demand
//
// Design: POSIX sockets only, loopback bind, bounded accept backlog,
// per-request read/write timeouts (SO_RCVTIMEO/SO_SNDTIMEO), and one
// serving thread that handles connections serially — an exposition render
// is microseconds, so concurrent scrapers queue in the backlog rather
// than spawning threads; a stalled client costs at most one timeout.
// stop() unblocks the accept loop via a self-pipe poll()ed next to the
// listening socket and is idempotent. Serving touches only wall-clock
// metric families, so a live scrape can never perturb the deterministic
// exposition contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace patchwork::obs {

struct ScrapeServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read the
  /// result back with port()).
  std::uint16_t port = 0;
  /// Renders /manifest.json on demand; unset => 404 for that route.
  std::function<std::string()> manifest;
};

class ScrapeServer {
 public:
  /// Binds and starts the serving thread. On bind/listen failure the
  /// server is inert: ok() is false and port() is 0.
  explicit ScrapeServer(ScrapeServerOptions options);
  ~ScrapeServer();  // stop()s.

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// True when the listening socket is (or was) live.
  bool ok() const { return listen_fd_ >= 0; }

  /// The bound port (the ephemeral pick when options.port was 0).
  std::uint16_t port() const { return port_; }

  /// Close the listener and join the serving thread. Idempotent; safe to
  /// call concurrently with in-flight requests (they finish or time out).
  void stop();

  /// Requests answered so far, any status.
  std::uint64_t requests_served() const;

 private:
  void serve();
  void handle_connection(int fd);

  ScrapeServerOptions options_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< Self-pipe: [0] polled, [1] written.
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

/// PATCHWORK_SCRAPE=port — start a server when the variable holds a valid
/// port (0 = ephemeral), else return nullptr. The manifest callback is
/// optional, as in ScrapeServerOptions.
std::unique_ptr<ScrapeServer> maybe_start_scrape_server_from_env(
    std::function<std::string()> manifest = {});

/// The coordinator's run-phase gauge (0 idle, 1 control, 2 render,
/// 3 merge), surfaced by /healthz. kWallClock: a point-in-time reading is
/// schedule-dependent by nature.
Gauge& run_phase_gauge();

}  // namespace patchwork::obs
