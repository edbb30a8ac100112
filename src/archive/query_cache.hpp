// Read-path response cache for archive queries.
//
// Federation turns "open the archive, fold every record" from a once-a-week
// operation into something dashboards and the live endpoint hit repeatedly,
// often with the same window. QueryCache fronts ArchiveQuery::from_file
// with validation-based caching: entries are keyed by (path, window) and
// carry the file identity (size + mtime nanos) observed at load time. A
// lookup revalidates by stat — if the file changed (archive append, a
// compaction commit, GC), the entry is invalid and the query reloads.
// stat-per-hit keeps the cache coherent without any write-path hooks.
//
// Queries are returned as shared_ptr-to-const so a hit costs one stat and
// one refcount, never a record copy, and an entry evicted mid-use stays
// alive for its holders.
//
// A dashboard asks several windows of one file version, so each entry also
// holds every live record of the version it was built from, shared by all
// entries of that version, with the version's OpenStatus. A window that
// misses first looks for an entry of the same path whose identity equals
// the stat this lookup just took; it then copies that load's in-window
// records into its own query, and only without one does it open the file
// (load_records).
// Such a window still counts as a miss; the opens it saved show in
// patchwork_archive_records_read_total. A lookup that finds the file
// changed drops every entry of the old version, so no stale load stays
// alive, and a load is re-stat'ed before it is cached: a version that
// changed during the read is neither cached nor shared, nor is a failed
// open.
//
// Hit/miss/invalidation counters are registered kWallClock: cache behavior
// depends on call timing and file system state, not the seeded work, so
// it must not leak into the byte-comparable metrics view.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "archive/query.hpp"
#include "archive/record.hpp"

namespace patchwork::archive {

class QueryCache {
 public:
  /// `capacity` bounds the number of cached (path, window) entries; least
  /// recently used entries are evicted first.
  explicit QueryCache(std::size_t capacity = 16);

  /// Process-wide instance the CLI and services share.
  static QueryCache& instance();

  /// Cached equivalent of ArchiveQuery::from_file(path, window, status).
  /// A miss reuses a cached load of the same file version when there is
  /// one. Failed opens are not cached (the next call retries the file).
  std::shared_ptr<const ArchiveQuery> get(const std::string& path,
                                          const QueryWindow& window = {},
                                          OpenStatus* status = nullptr);

  void clear();
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string path;
    QueryWindow window;
    std::uint64_t file_size = 0;
    std::uint64_t file_mtime_nanos = 0;
    OpenStatus status;  ///< Of the file version, shared by its windows.
    /// Every live record of the file version, shared by its windows.
    std::shared_ptr<const std::vector<EpochRecord>> records;
    std::shared_ptr<const ArchiveQuery> query;
  };

  // LRU list, most recent first. Linear scan is fine at dashboard-scale
  // capacities; correctness lives in the validation, not the lookup.
  mutable std::mutex mutex_;
  std::list<Entry> entries_;
  std::size_t capacity_;
};

}  // namespace patchwork::archive
