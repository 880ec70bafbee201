// CLOCK page cache with byte-budget capacity. The paper's Section 9
// ("Caching in DPU-backed file system") asks how to split cache capacity
// between host memory (best for host applications) and DPU memory (best
// for offloaded remote requests); the Storage Engine instantiates one of
// these on each side and the abl_cache_split benchmark sweeps the split.

#ifndef DPDPU_FSSUB_PAGE_CACHE_H_
#define DPDPU_FSSUB_PAGE_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "sim/simrace.h"

namespace dpdpu::fssub {

/// Cache key: (file, page index).
struct PageKey {
  uint32_t file = 0;
  uint64_t page = 0;

  bool operator==(const PageKey& other) const {
    return file == other.file && page == other.page;
  }

  /// Deterministic total order (file, then page) for sorted listings.
  bool operator<(const PageKey& other) const {
    if (file != other.file) return file < other.file;
    return page < other.page;
  }
};

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    return std::hash<uint64_t>()((uint64_t(k.file) << 40) ^ k.page);
  }
};

struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

/// CLOCK (second-chance) eviction over a byte budget. Capacity 0 disables
/// caching entirely (every lookup misses, nothing is stored).
class PageCache {
 public:
  /// Page size of the byte-range operations: page p of a file holds
  /// bytes [p * kPageBytes, (p + 1) * kPageBytes).
  static constexpr uint32_t kPageBytes = 4096;

  explicit PageCache(uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  uint64_t capacity() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t page_count() const { return entries_.size(); }
  const PageCacheStats& stats() const { return stats_; }

  /// Looks up a page; sets the reference bit on hit.
  const Buffer* Get(const PageKey& key);

  /// Inserts or replaces a page, evicting via CLOCK to fit.
  void Put(const PageKey& key, Buffer page);

  /// Drops one page (e.g. on invalidation by a write).
  void Erase(const PageKey& key);

  // Byte-range operations over kPageBytes pages.

  /// Assembles [offset, offset + length) from resident pages into `out`.
  /// Looks the pages up in order and returns false at the first miss or
  /// short page (so a partial hit counts exactly one miss); false for
  /// length 0 without a lookup.
  bool ReadRange(uint32_t file, uint64_t offset, uint32_t length,
                 Buffer* out);

  /// Caches every whole page of `data`, which holds the bytes starting
  /// at `offset`. Partial pages at either end stay out: they would
  /// serve truncated reads.
  void PutRange(uint32_t file, uint64_t offset, ByteSpan data);

  /// Drops every page overlapping [offset, offset + length).
  void EraseRange(uint32_t file, uint64_t offset, uint64_t length);

  /// Resident page keys sorted by (file, page). The clock arena's
  /// physical order depends on the eviction/erase history (swap-with-back
  /// compaction), so any log or metric derived from cache contents must
  /// go through this accessor to stay deterministic (simlint rule R2).
  std::vector<PageKey> ResidentPages() const;

 private:
  struct Entry {
    PageKey key;
    Buffer page;
    bool referenced = false;
  };

  void EvictOne();

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::vector<Entry> entries_;  // clock arena
  size_t hand_ = 0;
  std::unordered_map<PageKey, size_t, PageKeyHash> index_;
  PageCacheStats stats_;
  /// simrace identity, keyed per (file, page): a same-timestamp unordered
  /// Get racing a Put/Erase of the same page is exactly the PR-4
  /// cache-coherence bug shape.
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::fssub

#endif  // DPDPU_FSSUB_PAGE_CACHE_H_
