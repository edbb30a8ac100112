// File-snapshot metrics exporter for long runs.
//
// The paper's deployment scrapes Patchwork through Prometheus; this
// reproduction has no listening socket, so long-running examples (the
// weekly community profile) instead keep a metrics file fresh on disk:
// a background thread rewrites the Prometheus exposition every `period`,
// atomically (write-temp + rename via util::write_file_atomic), so a
// tail -f / file-watcher style consumer never sees a torn snapshot.
//
// The exporter is deliberately dumb: it samples obs::expose_text() — the
// same bytes expose_to_file() writes once — and owns nothing but its
// thread. Destruction (or stop()) writes one final snapshot so the file
// always ends on the run's last state.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace patchwork::obs {

class FileExporter {
 public:
  /// Starts the background thread. `deterministic_only` selects the
  /// byte-comparable view (kWallClock families omitted), matching
  /// expose_text()'s flag.
  FileExporter(std::string path, std::chrono::milliseconds period,
               bool deterministic_only = false);
  ~FileExporter();  // stop()s.

  FileExporter(const FileExporter&) = delete;
  FileExporter& operator=(const FileExporter&) = delete;

  /// Stop the thread and write one final snapshot after it is quiet, so
  /// registry updates from the last period are never lost (the periodic
  /// thread may exit mid-interval without ever observing them).
  /// Idempotent; returns whether the shutdown flush (or, on repeat calls,
  /// the first one) hit the disk.
  bool stop();

  /// Whether the shutdown flush succeeded (meaningful after stop()).
  bool final_flush_ok() const {
    return final_flush_ok_.load(std::memory_order_relaxed);
  }

  /// Write a snapshot right now (also called by the background thread).
  /// Returns false on IO failure.
  bool write_now();

  /// Snapshots successfully written so far (including the final one). A
  /// snapshot is counted just before it replaces the file, so one in
  /// flight may already be counted; one whose write fails is not.
  std::uint64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }

 private:
  void run();

  const std::string path_;
  const std::chrono::milliseconds period_;
  const bool deterministic_only_;
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<bool> final_flush_ok_{false};
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

/// Convenience factory used by the examples: start an exporter that keeps
/// `path` fresh every `period`.
std::unique_ptr<FileExporter> start_file_exporter(
    std::string path, std::chrono::milliseconds period,
    bool deterministic_only = false);

}  // namespace patchwork::obs
