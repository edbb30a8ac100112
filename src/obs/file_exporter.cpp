#include "obs/file_exporter.hpp"

#include "obs/metrics.hpp"
#include "util/file_io.hpp"

namespace patchwork::obs {

FileExporter::FileExporter(std::string path, std::chrono::milliseconds period,
                           bool deterministic_only)
    : path_(std::move(path)),
      period_(period),
      deterministic_only_(deterministic_only) {
  thread_ = std::thread([this] { run(); });
}

FileExporter::~FileExporter() { stop(); }

bool FileExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return final_flush_ok();
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  // Shutdown flush, after the thread is quiet: the periodic loop may have
  // exited mid-interval, before observing the run's final registry state.
  const bool ok = write_now();
  final_flush_ok_.store(ok, std::memory_order_relaxed);
  return ok;
}

bool FileExporter::write_now() {
  const std::string text = expose_text(deterministic_only_);
  // Count the snapshot before the rename makes it visible, so a reader that
  // sees its bytes in the file also sees it counted; a failed write is
  // taken back.
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  if (util::write_file_atomic(path_, text)) return true;
  snapshots_.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

void FileExporter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // Snapshot with the lock dropped: exposition folds every shard and the
    // write hits the filesystem — neither should block stop().
    lock.unlock();
    write_now();
    lock.lock();
    wake_.wait_for(lock, period_, [this] { return stopping_; });
  }
}

std::unique_ptr<FileExporter> start_file_exporter(
    std::string path, std::chrono::milliseconds period,
    bool deterministic_only) {
  return std::make_unique<FileExporter>(std::move(path), period,
                                        deterministic_only);
}

}  // namespace patchwork::obs
