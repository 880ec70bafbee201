#include "fssub/page_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace dpdpu::fssub {

const Buffer* PageCache::Get(const PageKey& key) {
  DPDPU_SIM_ACCESS(race_tag_, "PageCache", sim::RaceKey(key.file, key.page),
                   sim::AccessKind::kRead);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  entries_[it->second].referenced = true;
  return &entries_[it->second].page;
}

void PageCache::EvictOne() {
  DPDPU_CHECK(!entries_.empty());
  for (;;) {
    if (hand_ >= entries_.size()) hand_ = 0;
    Entry& e = entries_[hand_];
    if (e.referenced) {
      e.referenced = false;  // second chance
      ++hand_;
      continue;
    }
    // Evict: swap-with-back removal keeps the arena dense.
    used_ -= e.page.size();
    ++stats_.evictions;
    index_.erase(e.key);
    size_t last = entries_.size() - 1;
    if (hand_ != last) {
      entries_[hand_] = std::move(entries_[last]);
      index_[entries_[hand_].key] = hand_;
    }
    entries_.pop_back();
    return;
  }
}

void PageCache::Put(const PageKey& key, Buffer page) {
  DPDPU_SIM_ACCESS(race_tag_, "PageCache", sim::RaceKey(key.file, key.page),
                   sim::AccessKind::kWrite);
  if (page.size() > capacity_) return;  // cannot fit (incl. capacity 0)
  auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    used_ -= e.page.size();
    used_ += page.size();
    e.page = std::move(page);
    e.referenced = true;
    while (used_ > capacity_) EvictOne();
    return;
  }
  while (used_ + page.size() > capacity_) EvictOne();
  used_ += page.size();
  // New pages enter unreferenced (inactive-list style): a page must be
  // *re*-accessed to earn its second chance, so scans cannot flush pages
  // the workload is actively re-reading.
  entries_.push_back(Entry{key, std::move(page), false});
  index_[key] = entries_.size() - 1;
}

void PageCache::Erase(const PageKey& key) {
  DPDPU_SIM_ACCESS(race_tag_, "PageCache", sim::RaceKey(key.file, key.page),
                   sim::AccessKind::kWrite);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  size_t pos = it->second;
  used_ -= entries_[pos].page.size();
  index_.erase(it);
  size_t last = entries_.size() - 1;
  if (pos != last) {
    entries_[pos] = std::move(entries_[last]);
    index_[entries_[pos].key] = pos;
  }
  entries_.pop_back();
  if (hand_ > entries_.size()) hand_ = 0;
}

bool PageCache::ReadRange(uint32_t file, uint64_t offset, uint32_t length,
                          Buffer* out) {
  if (length == 0) return false;
  uint64_t first = offset / kPageBytes;
  uint64_t last = (offset + length - 1) / kPageBytes;
  Buffer assembled;
  assembled.reserve(length);
  for (uint64_t p = first; p <= last; ++p) {
    const Buffer* page = Get({file, p});
    if (page == nullptr) return false;
    uint64_t base = p * kPageBytes;
    size_t begin = p == first ? size_t(offset - base) : 0;
    size_t end = p == last ? size_t(offset + length - base) : page->size();
    if (end > page->size()) return false;
    assembled.Append(page->span().subspan(begin, end - begin));
  }
  *out = std::move(assembled);
  return true;
}

void PageCache::PutRange(uint32_t file, uint64_t offset, ByteSpan data) {
  uint64_t page = (offset + kPageBytes - 1) / kPageBytes;
  size_t pos = size_t(page * kPageBytes - offset);
  while (pos + kPageBytes <= data.size()) {
    Put({file, page}, Buffer(data.data() + pos, kPageBytes));
    ++page;
    pos += kPageBytes;
  }
}

void PageCache::EraseRange(uint32_t file, uint64_t offset, uint64_t length) {
  if (length == 0) return;
  uint64_t last = (offset + length - 1) / kPageBytes;
  for (uint64_t p = offset / kPageBytes; p <= last; ++p) Erase({file, p});
}

std::vector<PageKey> PageCache::ResidentPages() const {
  std::vector<PageKey> keys;
  keys.reserve(entries_.size());
  for (const Entry& e : entries_) keys.push_back(e.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace dpdpu::fssub
