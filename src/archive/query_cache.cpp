#include "archive/query_cache.hpp"

#include "obs/metrics.hpp"
#include "util/file_io.hpp"

namespace patchwork::archive {

namespace {

obs::Counter& cache_counter(const char* name, const char* help) {
  // kWallClock: hit/miss behavior depends on call order and filesystem
  // state, so it stays out of the byte-comparable metrics view.
  return obs::registry().counter(name, help, {},
                                 obs::Determinism::kWallClock);
}

}  // namespace

QueryCache::QueryCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

QueryCache& QueryCache::instance() {
  static QueryCache cache;
  return cache;
}

std::shared_ptr<const ArchiveQuery> QueryCache::get(const std::string& path,
                                                    const QueryWindow& window,
                                                    OpenStatus* status) {
  auto& hits = cache_counter("patchwork_archive_query_cache_hits_total",
                             "Archive queries served from the cache");
  auto& misses = cache_counter("patchwork_archive_query_cache_misses_total",
                               "Archive queries that had to load the file");
  auto& invalidations =
      cache_counter("patchwork_archive_query_cache_invalidations_total",
                    "Cache entries dropped because the file changed");

  const auto size_now = util::file_size_bytes(path);
  const auto mtime_now = util::file_mtime_nanos(path);

  // The load of this file version, when another window of it is cached.
  std::shared_ptr<const std::vector<EpochRecord>> records;
  OpenStatus loaded_status;
  if (size_now && mtime_now) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto hit = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->path != path) {
        ++it;
      } else if (it->file_size != *size_now ||
                 it->file_mtime_nanos != *mtime_now) {
        // Stale: the file was appended to or rewritten since.
        it = entries_.erase(it);
        invalidations.add(1);
      } else {
        if (it->window == window && hit == entries_.end()) hit = it;
        if (!records) {
          records = it->records;
          loaded_status = it->status;
        }
        ++it;
      }
    }
    if (hit != entries_.end()) {
      entries_.splice(entries_.begin(), entries_, hit);  // LRU touch.
      hits.add(1);
      if (status != nullptr) *status = hit->status;
      return hit->query;
    }
  }

  // Load outside the lock; concurrent misses for the same version may load
  // twice, which is benign (both results are equally fresh).
  misses.add(1);
  const bool shared = records != nullptr;
  if (!shared) {
    auto loaded = load_records(path, &loaded_status);
    if (loaded) {
      records = std::make_shared<const std::vector<EpochRecord>>(
          std::move(*loaded));
    }
  }
  if (status != nullptr) *status = loaded_status;
  if (!records) {
    return std::make_shared<const ArchiveQuery>(  // Don't cache failures.
        std::vector<EpochRecord>{});
  }
  auto query = std::make_shared<const ArchiveQuery>(*records, window);

  // Re-stat *after* a load: if the file changed while we read it, the
  // recorded identity must not validate a torn read on the next lookup. A
  // shared load passed this check when it was cached.
  if (!shared) {
    const auto size_after = util::file_size_bytes(path);
    const auto mtime_after = util::file_mtime_nanos(path);
    if (!size_after || !mtime_after || size_after != size_now ||
        mtime_after != mtime_now) {
      return query;  // Unstable while reading; serve it but don't cache it.
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_front(Entry{path, window, *size_now, *mtime_now,
                            loaded_status, std::move(records), query});
  while (entries_.size() > capacity_) entries_.pop_back();
  return query;
}

void QueryCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace patchwork::archive
