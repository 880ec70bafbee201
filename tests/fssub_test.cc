// Tests for the storage substrate: block device (with crash injection),
// journal replay semantics, DpuFs correctness and crash recovery, and the
// CLOCK page cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fssub/block_device.h"
#include "fssub/dpufs.h"
#include "fssub/journal.h"
#include "fssub/page_cache.h"
#include "kern/crc32.h"
#include "kern/textgen.h"
#include "mutate.h"

namespace dpdpu::fssub {
namespace {

constexpr uint32_t kBs = 4096;

// --------------------------------------------------------------------------
// MemBlockDevice.
// --------------------------------------------------------------------------

TEST(BlockDeviceTest, ReadBackWrites) {
  MemBlockDevice dev(kBs, 16);
  Buffer data(size_t{kBs});
  for (size_t i = 0; i < kBs; ++i) data[i] = uint8_t(i);
  ASSERT_TRUE(dev.WriteBlock(3, data.span()).ok());
  Buffer out(size_t{kBs});
  ASSERT_TRUE(dev.ReadBlock(3, out.mutable_span()).ok());
  EXPECT_EQ(out, data);
}

TEST(BlockDeviceTest, BoundsAndSizeChecks) {
  MemBlockDevice dev(kBs, 4);
  Buffer data(size_t{kBs});
  EXPECT_TRUE(dev.WriteBlock(4, data.span()).IsOutOfRange());
  Buffer small(size_t{100});
  EXPECT_TRUE(dev.WriteBlock(0, small.span()).IsInvalidArgument());
  Buffer out(size_t{100});
  EXPECT_TRUE(dev.ReadBlock(0, out.mutable_span()).IsInvalidArgument());
}

TEST(BlockDeviceTest, WriteLimitSilentlyDrops) {
  MemBlockDevice dev(kBs, 4);
  Buffer ones(size_t{kBs});
  for (size_t i = 0; i < kBs; ++i) ones[i] = 1;
  dev.SetWriteLimit(1);
  ASSERT_TRUE(dev.WriteBlock(0, ones.span()).ok());
  ASSERT_TRUE(dev.WriteBlock(1, ones.span()).ok());  // dropped, still "ok"
  EXPECT_EQ(dev.dropped_writes(), 1u);
  Buffer out(size_t{kBs});
  ASSERT_TRUE(dev.ReadBlock(1, out.mutable_span()).ok());
  EXPECT_EQ(out[0], 0);  // the drop left old contents
}

TEST(BlockDeviceTest, UnwrittenBlocksReadZeroOnLargeDevice) {
  // The platform default: 256 MB, zeroed lazily by the allocator.
  constexpr uint64_t kBlocks = 64 * 1024;
  MemBlockDevice dev(kBs, kBlocks);
  Buffer ones(size_t{kBs});
  for (size_t i = 0; i < kBs; ++i) ones[i] = 1;
  ASSERT_TRUE(dev.WriteBlock(0, ones.span()).ok());
  ASSERT_TRUE(dev.WriteBlock(kBlocks - 1, ones.span()).ok());
  EXPECT_EQ(dev.writes(), 2u);
  const Buffer zeros(size_t{kBs});
  Buffer out(size_t{kBs});
  for (uint64_t block : {uint64_t{1}, kBlocks / 2, kBlocks - 2}) {
    ASSERT_TRUE(dev.ReadBlock(block, out.mutable_span()).ok());
    EXPECT_EQ(out, zeros) << "block " << block;
  }
  ASSERT_TRUE(dev.ReadBlock(kBlocks - 1, out.mutable_span()).ok());
  EXPECT_EQ(out, ones);
}

// --------------------------------------------------------------------------
// Journal.
// --------------------------------------------------------------------------

TEST(JournalTest, AppendAndReplay) {
  MemBlockDevice dev(kBs, 64);
  Journal j(&dev, 0, 64);
  ASSERT_TRUE(j.Reset().ok());
  ASSERT_TRUE(j.Append(1, Buffer("alpha").span()).ok());
  ASSERT_TRUE(j.Append(2, Buffer("beta").span()).ok());

  Journal reader(&dev, 0, 64);
  std::vector<std::string> seen;
  auto n = reader.Replay(1, [&](uint64_t seq, ByteSpan p) {
    seen.push_back(std::to_string(seq) + ":" +
                   std::string(reinterpret_cast<const char*>(p.data()),
                               p.size()));
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{"1:alpha", "2:beta"}));
}

TEST(JournalTest, ReplayStopsAtTornWrite) {
  MemBlockDevice dev(kBs, 64);
  Journal j(&dev, 0, 64);
  ASSERT_TRUE(j.Reset().ok());
  ASSERT_TRUE(j.Append(1, Buffer("first").span()).ok());
  // Crash during the second append: its block write is dropped.
  dev.SetWriteLimit(0);
  ASSERT_TRUE(j.Append(2, Buffer("second").span()).ok());
  dev.ClearWriteLimit();

  Journal reader(&dev, 0, 64);
  int replayed = 0;
  auto n = reader.Replay(1, [&](uint64_t, ByteSpan) { ++replayed; });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

TEST(JournalTest, StaleRecordsFencedBySequence) {
  MemBlockDevice dev(kBs, 64);
  Journal j(&dev, 0, 64);
  ASSERT_TRUE(j.Reset().ok());
  // Epoch 1: records 1..3.
  for (uint64_t s = 1; s <= 3; ++s) {
    ASSERT_TRUE(j.Append(s, Buffer("old").span()).ok());
  }
  // Checkpoint: reset, then epoch 2 writes one shorter record (4).
  ASSERT_TRUE(j.Reset().ok());
  ASSERT_TRUE(j.Append(4, Buffer("new").span()).ok());

  Journal reader(&dev, 0, 64);
  std::vector<uint64_t> seqs;
  auto n = reader.Replay(4, [&](uint64_t seq, ByteSpan) {
    seqs.push_back(seq);
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{4}));
}

// Seeded mutations (bit flips, truncation, overwritten windows) of a
// journal region on the device: Replay returns a Status and applies
// exactly a prefix of the appended records, stopping at the damage.
TEST(JournalTest, CorruptedRegionReplaysAPrefix) {
  Pcg32 rng(31);
  int partial = 0;
  for (int trial = 0; trial < 500; ++trial) {
    MemBlockDevice dev(kBs, 1);
    Journal j(&dev, 0, 1);
    ASSERT_TRUE(j.Reset().ok());
    std::vector<Buffer> records;
    while (true) {
      Buffer payload = kern::GenerateRandomBytes(rng.NextBounded(300),
                                                 rng.Next64());
      if (!j.Append(records.size() + 1, payload.span()).ok()) break;
      records.push_back(std::move(payload));
    }
    // Mutate the used bytes and the terminator after them; truncation
    // zeroes everything past the cut.
    Buffer block(size_t{kBs});
    ASSERT_TRUE(dev.ReadBlock(0, block.mutable_span()).ok());
    Buffer used(block.data(), j.bytes_used() + 4);
    Mutate(rng, &used);
    Buffer mutated(size_t{kBs});
    std::copy(used.data(), used.data() + used.size(), mutated.data());
    ASSERT_TRUE(dev.WriteBlock(0, mutated.span()).ok());

    Journal reader(&dev, 0, 1);
    size_t applied = 0;
    auto n = reader.Replay(1, [&](uint64_t seq, ByteSpan p) {
      ASSERT_LT(applied, records.size());
      EXPECT_EQ(seq, applied + 1);
      EXPECT_EQ(Buffer(p.data(), p.size()), records[applied]);
      ++applied;
    });
    ASSERT_TRUE(n.ok()) << n.status();
    EXPECT_EQ(*n, applied);
    if (applied < records.size()) ++partial;
  }
  EXPECT_GT(partial, 0);
}

TEST(JournalTest, FullJournalRejectsAppend) {
  MemBlockDevice dev(kBs, 8);
  Journal j(&dev, 0, 1);  // one block = 4096 bytes
  ASSERT_TRUE(j.Reset().ok());
  Buffer big(size_t{3000});
  ASSERT_TRUE(j.Append(1, big.span()).ok());
  EXPECT_TRUE(j.Append(2, big.span()).IsResourceExhausted());
}

// --------------------------------------------------------------------------
// DpuFs basics.
// --------------------------------------------------------------------------

std::unique_ptr<MemBlockDevice> MakeDevice(uint64_t blocks = 4096) {
  return std::make_unique<MemBlockDevice>(kBs, blocks);
}

TEST(DpuFsTest, FormatCreatesEmptyFs) {
  auto dev = MakeDevice();
  auto fs = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs.ok()) << fs.status();
  EXPECT_TRUE((*fs)->List().empty());
  EXPECT_GT((*fs)->free_blocks(), 0u);
}

TEST(DpuFsTest, CreateWriteRead) {
  auto dev = MakeDevice();
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;

  auto file = fs.Create("table.db");
  ASSERT_TRUE(file.ok());
  Buffer data = kern::GenerateText(100000, {});
  ASSERT_TRUE(fs.Write(*file, 0, data.span()).ok());
  EXPECT_EQ(*fs.FileSize(*file), data.size());

  auto back = fs.Read(*file, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(DpuFsTest, SparseOffsetsAndPartialBlocks) {
  auto dev = MakeDevice();
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;
  auto file = fs.Create("f");
  ASSERT_TRUE(file.ok());

  // Unaligned write in the middle of block 2.
  Buffer payload("unaligned payload");
  ASSERT_TRUE(fs.Write(*file, 2 * kBs + 77, payload.span()).ok());
  EXPECT_EQ(*fs.FileSize(*file), 2 * kBs + 77 + payload.size());

  auto back = fs.Read(*file, 2 * kBs + 77, payload.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToString(), "unaligned payload");

  // Overwrite a few bytes inside the same block.
  ASSERT_TRUE(fs.Write(*file, 2 * kBs + 79, Buffer("XY").span()).ok());
  back = fs.Read(*file, 2 * kBs + 77, payload.size());
  EXPECT_EQ(back->ToString(), "unXYigned payload");
}

TEST(DpuFsTest, ReadPastEofIsShort) {
  auto dev = MakeDevice();
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;
  auto file = fs.Create("f");
  ASSERT_TRUE(fs.Write(*file, 0, Buffer("12345").span()).ok());
  auto back = fs.Read(*file, 3, 100);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToString(), "45");
  back = fs.Read(*file, 10, 10);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(DpuFsTest, NamespaceOperations) {
  auto dev = MakeDevice();
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;

  ASSERT_TRUE(fs.Create("a").ok());
  ASSERT_TRUE(fs.Create("b").ok());
  EXPECT_TRUE(fs.Create("a").status().IsAlreadyExists());
  EXPECT_TRUE(fs.Lookup("a").ok());
  EXPECT_TRUE(fs.Lookup("c").status().IsNotFound());
  EXPECT_EQ(fs.List().size(), 2u);
  ASSERT_TRUE(fs.Delete("a").ok());
  EXPECT_TRUE(fs.Lookup("a").status().IsNotFound());
  EXPECT_TRUE(fs.Delete("a").IsNotFound());
  EXPECT_EQ(fs.List().size(), 1u);
}

TEST(DpuFsTest, DeleteFreesBlocks) {
  auto dev = MakeDevice(1024);
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;
  uint64_t initial_free = fs.free_blocks();

  auto file = fs.Create("big");
  Buffer data = kern::GenerateRandomBytes(50 * kBs, 3);
  ASSERT_TRUE(fs.Write(*file, 0, data.span()).ok());
  EXPECT_EQ(fs.free_blocks(), initial_free - 50);
  ASSERT_TRUE(fs.Delete("big").ok());
  EXPECT_EQ(fs.free_blocks(), initial_free);
}

TEST(DpuFsTest, OutOfSpaceFailsCleanly) {
  auto dev = MakeDevice(900);  // small device
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;
  auto file = fs.Create("huge");
  Buffer chunk = kern::GenerateRandomBytes(64 * kBs, 5);
  Status last = Status::Ok();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    last = fs.Write(*file, uint64_t(i) * chunk.size(), chunk.span());
  }
  EXPECT_TRUE(last.IsResourceExhausted());
  // The failed write must not have leaked its partial allocation beyond
  // what the extents claim.
  auto extents = fs.FileExtents(*file);
  ASSERT_TRUE(extents.ok());
}

TEST(DpuFsTest, ExtentsAreCoalesced) {
  auto dev = MakeDevice();
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;
  auto file = fs.Create("seq");
  // Sequential appends on an empty FS should stay contiguous.
  Buffer chunk = kern::GenerateRandomBytes(kBs, 1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs.Write(*file, uint64_t(i) * kBs, chunk.span()).ok());
  }
  auto extents = fs.FileExtents(*file);
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(extents->size(), 1u);
  EXPECT_EQ((*extents)[0].length, 20u);
}

TEST(DpuFsTest, ManyFilesRoundTrip) {
  auto dev = MakeDevice(8192);
  auto fs_or = DpuFs::Format(dev.get());
  ASSERT_TRUE(fs_or.ok());
  DpuFs& fs = **fs_or;
  std::map<std::string, Buffer> contents;
  Pcg32 rng(9);
  for (int i = 0; i < 50; ++i) {
    std::string name = "file" + std::to_string(i);
    auto file = fs.Create(name);
    ASSERT_TRUE(file.ok());
    Buffer data =
        kern::GenerateRandomBytes(100 + rng.NextBounded(40000), i + 1);
    ASSERT_TRUE(fs.Write(*file, 0, data.span()).ok());
    contents[name] = std::move(data);
  }
  for (const auto& [name, data] : contents) {
    auto file = fs.Lookup(name);
    ASSERT_TRUE(file.ok());
    auto back = fs.Read(*file, 0, data.size());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data) << name;
  }
}

// --------------------------------------------------------------------------
// DpuFs mount and crash recovery.
// --------------------------------------------------------------------------

TEST(DpuFsRecoveryTest, CleanRemountPreservesEverything) {
  auto dev = MakeDevice();
  Buffer data = kern::GenerateText(80000, {});
  {
    auto fs_or = DpuFs::Format(dev.get());
    ASSERT_TRUE(fs_or.ok());
    DpuFs& fs = **fs_or;
    auto file = fs.Create("persistent");
    ASSERT_TRUE(fs.Write(*file, 0, data.span()).ok());
    ASSERT_TRUE(fs.Checkpoint().ok());
  }
  auto fs_or = DpuFs::Mount(dev.get());
  ASSERT_TRUE(fs_or.ok()) << fs_or.status();
  DpuFs& fs = **fs_or;
  auto file = fs.Lookup("persistent");
  ASSERT_TRUE(file.ok());
  auto back = fs.Read(*file, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(DpuFsRecoveryTest, JournaledOpsSurviveWithoutCheckpoint) {
  auto dev = MakeDevice();
  {
    auto fs_or = DpuFs::Format(dev.get());
    ASSERT_TRUE(fs_or.ok());
    DpuFs& fs = **fs_or;
    ASSERT_TRUE(fs.Create("a").ok());
    ASSERT_TRUE(fs.Create("b").ok());
    ASSERT_TRUE(fs.Delete("a").ok());
    auto f = fs.Create("c");
    ASSERT_TRUE(fs.Write(*f, 0, Buffer("journaled!").span()).ok());
    // No checkpoint: metadata lives only in the journal.
  }
  auto fs_or = DpuFs::Mount(dev.get());
  ASSERT_TRUE(fs_or.ok()) << fs_or.status();
  DpuFs& fs = **fs_or;
  EXPECT_GT(fs.stats().replayed_records, 0u);
  EXPECT_TRUE(fs.Lookup("a").status().IsNotFound());
  EXPECT_TRUE(fs.Lookup("b").ok());
  auto f = fs.Lookup("c");
  ASSERT_TRUE(f.ok());
  auto back = fs.Read(*f, 0, 10);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToString(), "journaled!");
}

TEST(DpuFsRecoveryTest, TornJournalWriteLosesOnlyTail) {
  auto dev = MakeDevice();
  {
    auto fs_or = DpuFs::Format(dev.get());
    ASSERT_TRUE(fs_or.ok());
    DpuFs& fs = **fs_or;
    ASSERT_TRUE(fs.Create("committed").ok());
    // Crash mid-way through the next operation's journal write.
    dev->SetWriteLimit(0);
    (void)fs.Create("lost");
    dev->ClearWriteLimit();
  }
  auto fs_or = DpuFs::Mount(dev.get());
  ASSERT_TRUE(fs_or.ok()) << fs_or.status();
  DpuFs& fs = **fs_or;
  EXPECT_TRUE(fs.Lookup("committed").ok());
  EXPECT_TRUE(fs.Lookup("lost").status().IsNotFound());
}

// The geometry is fixed, and the superblock records it: a superblock
// with a valid CRC whose inode count, journal size or checkpoint size
// differs is refused, not mounted with a layout it was not written in.
TEST(DpuFsRecoveryTest, MountRejectsAnotherGeometry) {
  // Superblock layout: magic, version (u32 each), max_inodes (u32),
  // journal_blocks, checkpoint_blocks, checkpoint_seq, metadata length
  // (u64 each), active slot (u8), then a CRC32 of the 45 bytes before it.
  constexpr size_t kCrcOffset = 45;
  for (size_t field : {size_t{8}, size_t{12}, size_t{20}}) {
    auto dev = MakeDevice();
    ASSERT_TRUE(DpuFs::Format(dev.get()).ok());
    Buffer sb(size_t{kBs});
    ASSERT_TRUE(dev->ReadBlock(0, sb.mutable_span()).ok());
    sb[field] ^= 1;
    uint32_t crc = kern::Crc32(sb.span().first(kCrcOffset));
    for (size_t i = 0; i < 4; ++i) {
      sb[kCrcOffset + i] = uint8_t(crc >> (8 * i));
    }
    ASSERT_TRUE(dev->WriteBlock(0, sb.span()).ok());
    EXPECT_TRUE(DpuFs::Mount(dev.get()).status().IsCorruption())
        << "field at byte " << field;
  }
}

// Property sweep: crash after K device writes, for K across the whole
// workload; every crash point must mount cleanly and contain a prefix of
// the committed operations.
class CrashPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointSweep, MountsAndHoldsPrefix) {
  const int crash_after = GetParam();
  auto dev = MakeDevice();
  {
    auto fs_or = DpuFs::Format(dev.get());
    ASSERT_TRUE(fs_or.ok());
    DpuFs& fs = **fs_or;
    dev->SetWriteLimit(crash_after);
    // A workload of creates, writes, deletes; ignore failures after the
    // simulated power cut (writes are silently dropped, not errored).
    for (int i = 0; i < 8; ++i) {
      auto f = fs.Create("f" + std::to_string(i));
      if (f.ok()) {
        Buffer data = kern::GenerateRandomBytes(3000 + i * 1000, i);
        (void)fs.Write(*f, 0, data.span());
      }
      if (i % 3 == 2) (void)fs.Delete("f" + std::to_string(i - 1));
    }
    dev->ClearWriteLimit();
  }
  auto fs_or = DpuFs::Mount(dev.get());
  ASSERT_TRUE(fs_or.ok()) << "crash_after=" << crash_after << ": "
                          << fs_or.status();
  DpuFs& fs = **fs_or;
  // Structural invariants: every directory entry resolves, extents are
  // within the device, sizes are consistent with allocations.
  for (const std::string& name : fs.List()) {
    auto f = fs.Lookup(name);
    ASSERT_TRUE(f.ok());
    auto size = fs.FileSize(*f);
    ASSERT_TRUE(size.ok());
    auto extents = fs.FileExtents(*f);
    ASSERT_TRUE(extents.ok());
    uint64_t blocks = 0;
    for (const Extent& e : *extents) {
      EXPECT_GE(e.start, fs.data_blocks() > 0 ? 1u : 0u);
      blocks += e.length;
    }
    EXPECT_GE(blocks * kBs, *size);
    // Reads must not crash or report corruption beyond size.
    auto back = fs.Read(*f, 0, static_cast<size_t>(*size));
    EXPECT_TRUE(back.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashPointSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 17, 23, 30, 40,
                                           55, 75, 100, 140, 200));

// --------------------------------------------------------------------------
// PageCache.
// --------------------------------------------------------------------------

Buffer PageOf(uint8_t fill, size_t size = 4096) {
  Buffer b(size);
  for (size_t i = 0; i < size; ++i) b[i] = fill;
  return b;
}

TEST(PageCacheTest, HitAndMiss) {
  PageCache cache(64 * 1024);
  EXPECT_EQ(cache.Get({1, 0}), nullptr);
  cache.Put({1, 0}, PageOf(7));
  const Buffer* page = cache.Get({1, 0});
  ASSERT_NE(page, nullptr);
  EXPECT_EQ((*page)[0], 7);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PageCacheTest, EvictsWhenOverBudget) {
  PageCache cache(4 * 4096);
  for (uint64_t p = 0; p < 8; ++p) cache.Put({1, p}, PageOf(uint8_t(p)));
  EXPECT_LE(cache.used_bytes(), 4u * 4096);
  EXPECT_EQ(cache.page_count(), 4u);
  EXPECT_EQ(cache.stats().evictions, 4u);
}

TEST(PageCacheTest, ClockPrefersKeepingReferencedPages) {
  PageCache cache(4 * 4096);
  for (uint64_t p = 0; p < 4; ++p) cache.Put({1, p}, PageOf(uint8_t(p)));
  // Touch page 0 repeatedly; insert new pages to force evictions.
  for (uint64_t p = 4; p < 12; ++p) {
    ASSERT_NE(cache.Get({1, 0}), nullptr) << "hot page evicted at p=" << p;
    cache.Put({1, p}, PageOf(uint8_t(p)));
  }
  EXPECT_NE(cache.Get({1, 0}), nullptr);
}

TEST(PageCacheTest, ReplaceUpdatesBytes) {
  PageCache cache(64 * 1024);
  cache.Put({1, 0}, PageOf(1, 4096));
  cache.Put({1, 0}, PageOf(2, 8192));
  EXPECT_EQ(cache.used_bytes(), 8192u);
  const Buffer* page = cache.Get({1, 0});
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->size(), 8192u);
  EXPECT_EQ((*page)[0], 2);
}

TEST(PageCacheTest, EraseDropsOnlyThatPage) {
  PageCache cache(1 << 20);
  cache.Put({1, 0}, PageOf(1));
  cache.Put({1, 1}, PageOf(2));
  cache.Put({2, 0}, PageOf(3));
  cache.Erase({1, 0});
  EXPECT_EQ(cache.Get({1, 0}), nullptr);
  EXPECT_NE(cache.Get({1, 1}), nullptr);
  EXPECT_NE(cache.Get({2, 0}), nullptr);
  EXPECT_EQ(cache.page_count(), 2u);
}

TEST(PageCacheTest, ZeroCapacityNeverStores) {
  PageCache cache(0);
  cache.Put({1, 0}, PageOf(1));
  EXPECT_EQ(cache.Get({1, 0}), nullptr);
  EXPECT_EQ(cache.page_count(), 0u);
}

TEST(PageCacheTest, ResidentPagesSortedRegardlessOfEvictionHistory) {
  // Two caches reach the same resident set along different histories:
  // the clock arena's physical order differs (swap-with-back erase), but
  // the sorted listing must be identical — that listing is the only
  // form cache contents may take in logs or metrics (simlint R2).
  PageCache a(4 * 4096);
  for (uint64_t p = 0; p < 4; ++p) a.Put({2, p}, PageOf(uint8_t(p)));
  a.Erase({2, 1});
  a.Put({1, 9}, PageOf(9));

  PageCache b(4 * 4096);
  b.Put({1, 9}, PageOf(9));
  for (uint64_t p = 0; p < 4; ++p) {
    if (p != 1) b.Put({2, p}, PageOf(uint8_t(p)));
  }

  std::vector<PageKey> expected = {{1, 9}, {2, 0}, {2, 2}, {2, 3}};
  EXPECT_EQ(a.ResidentPages(), expected);
  EXPECT_EQ(b.ResidentPages(), expected);
}

TEST(PageCacheTest, HitRateOnZipfWorkload) {
  PageCache cache(100 * 4096);  // caches 100 of 1000 pages
  Pcg32 rng(5);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 20000; ++i) {
    PageKey key{1, zipf.Next(rng)};
    if (cache.Get(key) == nullptr) {
      cache.Put(key, PageOf(uint8_t(key.page)));
    }
  }
  // Zipf 0.99 with 10% cache should hit well over half the accesses.
  EXPECT_GT(cache.stats().HitRate(), 0.5);
}

}  // namespace
}  // namespace dpdpu::fssub
