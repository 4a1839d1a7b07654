// Pages, the pager, and the set store: persistence, caching behavior,
// corruption detection (failure injection), and compaction.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "src/common/hash.h"
#include "src/obs/trace.h"
#include "src/ops/tuple.h"
#include "src/store/catalog.h"
#include "src/store/codec.h"
#include "src/store/fault_file.h"
#include "src/store/page.h"
#include "src/store/pager.h"
#include "src/store/setstore.h"
#include "src/store/wal.h"
#include "tests/testing.h"

namespace xst {

// Reads the pager's frame table directly: the brute-force oracle the
// drain tests hold the per-shard unlogged lists against.
class PagerTestPeer {
 public:
  // Every resident frame that is dirty with no logged image, found by
  // walking every shard's whole LRU list.
  static std::multiset<uint32_t> ScanUnlogged(Pager& pager) {
    std::multiset<uint32_t> ids;
    for (auto& shard : pager.shards_) {
      internal::ShardLatchLock latch(shard.get());
      for (const internal::PageFrame& frame : shard->lru) {
        if (frame.dirty && !frame.logged) ids.insert(frame.page_id);
      }
    }
    return ids;
  }

  // What the shards' unlogged lists hold.
  static std::multiset<uint32_t> Listed(Pager& pager) {
    std::multiset<uint32_t> ids;
    for (auto& shard : pager.shards_) {
      internal::ShardLatchLock latch(shard.get());
      for (const internal::PageFrame* frame : shard->unlogged) ids.insert(frame->page_id);
    }
    return ids;
  }
};

namespace {

using testing::X;

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

// A unique temp path per test, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = ::testing::TempDir();
    if (path_.empty()) path_ = "/tmp/";
    if (path_.back() != '/') path_ += '/';
    path_ += "xst_store_test_" + tag + "_" + std::to_string(::getpid());
    Remove();
  }
  ~TempFile() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  // The ".wal" sidecar belongs to the main file (a stale one would replay
  // the previous test's state into a fresh store), so remove them together.
  void Remove() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    std::remove((path_ + ".compact").c_str());
    std::remove((path_ + ".compact.wal").c_str());
  }

  std::string path_;
};

TEST(PageTest, AddGetDelete) {
  Page page;
  Result<uint32_t> slot0 = page.AddRecord("hello");
  Result<uint32_t> slot1 = page.AddRecord("world!");
  ASSERT_TRUE(slot0.ok());
  ASSERT_TRUE(slot1.ok());
  EXPECT_EQ(*slot0, 0u);
  EXPECT_EQ(*slot1, 1u);
  EXPECT_EQ(*page.GetRecord(0), "hello");
  EXPECT_EQ(*page.GetRecord(1), "world!");
  EXPECT_TRUE(page.GetRecord(2).status().IsOutOfRange());
  ASSERT_TRUE(page.DeleteRecord(0).ok());
  EXPECT_TRUE(page.GetRecord(0).status().IsNotFound());
  EXPECT_EQ(*page.GetRecord(1), "world!");
}

TEST(PageTest, RejectsEmptyAndOversizedRecords) {
  Page page;
  EXPECT_TRUE(page.AddRecord("").status().IsInvalid());
  std::string big(kPageSize, 'x');
  EXPECT_TRUE(page.AddRecord(big).status().IsCapacityError());
}

TEST(PageTest, FillsToCapacity) {
  Page page;
  std::string record(100, 'r');
  int added = 0;
  while (page.AddRecord(record).ok()) ++added;
  // 8192 bytes / (100 payload + 8 directory) ≈ 75 records.
  EXPECT_GT(added, 70);
  EXPECT_LT(added, 80);
}

TEST(PageTest, SerializationRoundTrips) {
  Page page;
  ASSERT_TRUE(page.AddRecord("alpha").ok());
  ASSERT_TRUE(page.AddRecord("beta").ok());
  ASSERT_TRUE(page.DeleteRecord(0).ok());
  std::string bytes = page.ToBytes();
  ASSERT_EQ(bytes.size(), kPageSize);
  Result<Page> back = Page::FromBytes(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->GetRecord(0).status().IsNotFound());
  EXPECT_EQ(*back->GetRecord(1), "beta");
}

TEST(PageTest, ChecksumCatchesBitFlips) {
  Page page;
  ASSERT_TRUE(page.AddRecord("payload").ok());
  std::string bytes = page.ToBytes();
  for (size_t pos : {size_t{9}, size_t{20}, kPageSize - 1}) {
    std::string tampered = bytes;
    tampered[pos] = static_cast<char>(tampered[pos] ^ 0x40);
    EXPECT_TRUE(Page::FromBytes(tampered).status().IsCorruption()) << pos;
  }
  EXPECT_TRUE(Page::FromBytes("short").status().IsCorruption());
}

TEST(PagerTest, AllocateFetchPersist) {
  TempFile file("pager_basic");
  {
    auto pager = Pager::Open(file.path(), 4);
    ASSERT_TRUE(pager.ok());
    Result<PageRef> page = (*pager)->AllocatePage();
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->id(), 0u);
    ASSERT_TRUE((*page)->AddRecord("persisted").ok());
    page->MarkDirty();
    page->Reset();
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  auto pager = Pager::Open(file.path(), 4);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 1u);
  Result<PageRef> page = (*pager)->FetchPage(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(*(*page)->GetRecord(0), "persisted");
}

TEST(PagerTest, FetchBeyondEndFails) {
  TempFile file("pager_oob");
  auto pager = Pager::Open(file.path(), 4);
  ASSERT_TRUE(pager.ok());
  EXPECT_TRUE((*pager)->FetchPage(0).status().IsOutOfRange());
}

TEST(PagerTest, LruEvictionCountsAndWritesBack) {
  TempFile file("pager_lru");
  auto pager_or = Pager::Open(file.path(), 2);  // tiny pool
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  for (int i = 0; i < 4; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("page " + std::to_string(i)).ok());
    page->MarkDirty();
  }
  EXPECT_GT(pager.stats().evictions, 0u);
  // Re-read everything: early pages must have been written back on eviction.
  for (uint32_t i = 0; i < 4; ++i) {
    Result<PageRef> page = pager.FetchPage(i);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(*(*page)->GetRecord(0), "page " + std::to_string(i));
  }
  EXPECT_GT(pager.stats().misses, 0u);
}

TEST(PagerTest, HotPageStaysCached) {
  TempFile file("pager_hot");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pager.AllocatePage().ok());
  ASSERT_TRUE(pager.Flush().ok());
  pager.ResetStats();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(pager.FetchPage(0).ok());
  EXPECT_GE(pager.stats().hits, 9u);
}

TEST(PagerTest, PinnedFrameSurvivesEvictionPressure) {
  // Regression shape for the historical use-after-evict: hold a reference
  // across fetches that force evictions. With raw Page* the frame would be
  // recycled under the caller; with PageRef the pin keeps it resident and
  // the eviction picks other victims.
  TempFile file("pager_pin_pressure");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  for (int i = 0; i < 4; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("page " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(pager.Flush().ok());

  Result<PageRef> held = pager.FetchPage(0);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(pager.pinned_frames(), 1u);
  // Sweep every other page through the 2-frame pool; page 0 must not move.
  for (uint32_t i = 1; i < 4; ++i) {
    Result<PageRef> page = pager.FetchPage(i);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(*(*page)->GetRecord(0), "page " + std::to_string(i));
  }
  EXPECT_EQ(*(*held)->GetRecord(0), "page 0");  // still valid, still page 0
  held->Reset();
  EXPECT_EQ(pager.pinned_frames(), 0u);
}

TEST(PagerTest, CapacityOnePoolInterleavings) {
  // The fetch/allocate interleavings that dangled under the raw-pointer API
  // now either succeed (pin released) or fail loudly (pin held).
  TempFile file("pager_cap1");
  auto pager_or = Pager::Open(file.path(), 1);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  {
    Result<PageRef> p0 = pager.AllocatePage();
    ASSERT_TRUE(p0.ok());
    ASSERT_TRUE((*p0)->AddRecord("zero").ok());
    // Allocation needs a fresh frame: ResourceExhausted, and the held
    // reference stays intact rather than dangling.
    EXPECT_TRUE(pager.AllocatePage().status().IsResourceExhausted());
    // Fetching the already-resident page is a second pin on the same frame,
    // not a new one, so it succeeds.
    {
      Result<PageRef> again = pager.FetchPage(0);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*(*again)->GetRecord(0), "zero");
      EXPECT_EQ(pager.pinned_frames(), 1u);  // one frame, two pins
    }
    EXPECT_EQ(*(*p0)->GetRecord(0), "zero");
  }
  // Pin released: allocation succeeds. While the new page is pinned, a fetch
  // of the now-evicted page 0 is refused rather than recycling the frame.
  {
    Result<PageRef> p1 = pager.AllocatePage();
    ASSERT_TRUE(p1.ok());
    EXPECT_EQ(p1->id(), 1u);
    ASSERT_TRUE((*p1)->AddRecord("one").ok());
    EXPECT_TRUE(pager.FetchPage(0).status().IsResourceExhausted());
  }
  Result<PageRef> p0 = pager.FetchPage(0);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*(*p0)->GetRecord(0), "zero");
  p0->Reset();
  Result<PageRef> p1 = pager.FetchPage(1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*(*p1)->GetRecord(0), "one");
}

TEST(PagerTest, PinExhaustionReportsResourceExhausted) {
  TempFile file("pager_exhaust");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  Result<PageRef> a = pager.AllocatePage();
  Result<PageRef> b = pager.AllocatePage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(pager.pinned_frames(), 2u);
  Status st = pager.AllocatePage().status();
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_NE(st.message().find("pinned"), std::string::npos);
  // Releasing one pin unblocks the pool.
  b->Reset();
  EXPECT_TRUE(pager.AllocatePage().ok());
}

TEST(PagerTest, LruTouchOrderGovernsEviction) {
  TempFile file("pager_touch");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  for (int i = 0; i < 3; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("page " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(pager.Flush().ok());
  // Pool now holds {1, 2} (0 was evicted by the third allocation).
  ASSERT_TRUE(pager.FetchPage(1).ok());  // touch 1: LRU order is now 2 < 1
  pager.ResetStats();
  ASSERT_TRUE(pager.FetchPage(0).ok());  // must evict 2, not 1
  EXPECT_EQ(pager.stats().misses, 1u);
  EXPECT_EQ(pager.stats().evictions, 1u);
  ASSERT_TRUE(pager.FetchPage(1).ok());  // 1 survived: hit
  EXPECT_EQ(pager.stats().hits, 1u);
  ASSERT_TRUE(pager.FetchPage(2).ok());  // 2 was the victim: miss again
  EXPECT_EQ(pager.stats().misses, 2u);
}

TEST(PagerTest, StatsCountersExact) {
  TempFile file("pager_stats");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  // 3 allocations into a 2-frame pool: the third evicts page 0 (dirty from
  // birth → one writeback).
  for (int i = 0; i < 3; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("p").ok());
  }
  EXPECT_EQ(pager.stats().allocations, 3u);
  EXPECT_EQ(pager.stats().evictions, 1u);
  EXPECT_EQ(pager.stats().writebacks, 1u);
  EXPECT_EQ(pager.stats().hits, 0u);
  EXPECT_EQ(pager.stats().misses, 0u);
  // Fetch resident page 2 (hit), evicted page 0 (miss + eviction of 1 +
  // its writeback).
  ASSERT_TRUE(pager.FetchPage(2).ok());
  ASSERT_TRUE(pager.FetchPage(0).ok());
  EXPECT_EQ(pager.stats().hits, 1u);
  EXPECT_EQ(pager.stats().misses, 1u);
  EXPECT_EQ(pager.stats().evictions, 2u);
  EXPECT_EQ(pager.stats().writebacks, 2u);
  // Flush writes back the two resident dirty pages... page 2 and page 0?
  // Page 2 is dirty (allocated, never written back); page 0 was written back
  // at eviction and re-read clean. So exactly one more writeback.
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(pager.stats().writebacks, 3u);
}

TEST(SetStoreTest, PutGetDeleteList) {
  TempFile file("store_basic");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("pairs", X("{<a, 1>, <b, 2>}")).ok());
  ASSERT_TRUE(store.Put("empty", X("{}")).ok());
  EXPECT_EQ(*store.Get("pairs"), X("{<a, 1>, <b, 2>}"));
  EXPECT_EQ(*store.Get("empty"), X("{}"));
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  EXPECT_EQ(store.List(), (std::vector<std::string>{"empty", "pairs"}));
  ASSERT_TRUE(store.Delete("empty").ok());
  EXPECT_TRUE(store.Get("empty").status().IsNotFound());
  EXPECT_TRUE(store.Delete("empty").IsNotFound());
  EXPECT_TRUE(store.Put("", X("{}")).IsInvalid());
}

TEST(SetStoreTest, ReplaceKeepsLatest) {
  TempFile file("store_replace");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("s", X("{old}")).ok());
  ASSERT_TRUE(store.Put("s", X("{new}")).ok());
  EXPECT_EQ(*store.Get("s"), X("{new}"));
}

TEST(SetStoreTest, PersistsAcrossReopen) {
  TempFile file("store_reopen");
  XSet value = X("{<alpha, 1>^<k, v>, {nested^{deep^9}}}");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("survivor", value).ok());
  }
  auto store = SetStore::Open(file.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("survivor"), value);
}

TEST(SetStoreTest, LargeSetsSpanPages) {
  TempFile file("store_large");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  // ~20k tuples encode to far more than one 8 KiB page.
  std::vector<XSet> tuples;
  for (int i = 0; i < 20000; ++i) {
    tuples.push_back(XSet::Pair(XSet::Int(i), XSet::Int(i * 7)));
  }
  XSet big = XSet::Classical(tuples);
  ASSERT_TRUE(store.Put("big", big).ok());
  EXPECT_GT(store.page_count(), 10u);
  EXPECT_EQ(*store.Get("big"), big);
  // Reopen and read through the pool again.
  auto reopened = SetStore::Open(file.path(), SetStoreOptions{.buffer_pool_pages = 8});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("big"), big);
  EXPECT_GT((*reopened)->pager_stats().misses, 8u);  // forced through a small pool
}

TEST(SetStoreTest, CatalogIsAnExtendedSet) {
  TempFile file("store_catalog");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("x", X("{1}")).ok());
  ASSERT_TRUE(store.Put("y", X("{2}")).ok());
  XSet catalog = store.CatalogAsXSet();
  EXPECT_EQ(catalog.cardinality(), 2u);
  // Entries are ⟨name, first_page, span, bytes⟩ 4-tuples.
  for (const Membership& m : catalog.members()) {
    EXPECT_TRUE(m.scope.empty());
    EXPECT_EQ(m.element.cardinality(), 4u);
  }
}

TEST(SetStoreTest, CompactionReclaimsSpace) {
  TempFile file("store_compact");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  XSet keep = X("{<keep, 1>}");
  ASSERT_TRUE(store.Put("keep", keep).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Put("churn", X(("{" + std::to_string(i) + "}").c_str())).ok());
  }
  ASSERT_TRUE(store.Delete("churn").ok());
  uint32_t before = store.page_count();
  ASSERT_TRUE(store.Compact().ok()) << "compaction failed";
  EXPECT_LT(store.page_count(), before);
  EXPECT_EQ(*store.Get("keep"), keep);
  EXPECT_EQ(store.List(), std::vector<std::string>{"keep"});
}

TEST(SetStoreTest, FailureInjectionTornPage) {
  TempFile file("store_torn");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    std::vector<XSet> tuples;
    for (int i = 0; i < 5000; ++i) tuples.push_back(XSet::Pair(XSet::Int(i), XSet::Int(i)));
    ASSERT_TRUE((*store)->Put("data", XSet::Classical(tuples)).ok());
  }
  // Flip one byte in the middle of page 3: page 0 is the superblock and
  // page 1 holds the catalog (rewritten in place), so the data blob starts
  // at page 2 and page 3 is in its middle.
  {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto target = static_cast<std::streamoff>(3 * kPageSize + kPageSize / 2);
    f.seekg(target);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(target);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  auto store = SetStore::Open(file.path(), SetStoreOptions{.buffer_pool_pages = 2});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Result<XSet> data = (*store)->Get("data");
  EXPECT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsCorruption()) << data.status().ToString();
}

TEST(SetStoreTest, PutBatchIsOneCommit) {
  TempFile file("store_batch");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  uint32_t pages_before = store.page_count();
  ASSERT_TRUE(store
                  .PutBatch({{"a", X("{1}")},
                             {"b", X("{2}")},
                             {"c", X("{3}")}})
                  .ok());
  EXPECT_EQ(store.List(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(*store.Get("b"), X("{2}"));
  // One catalog persist for the whole batch: 3 blob pages, and the catalog
  // rewritten in place over its existing page.
  EXPECT_EQ(store.page_count(), pages_before + 3);
}

TEST(SetStoreTest, PutBatchValidation) {
  TempFile file("store_batch_bad");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  EXPECT_TRUE(store.PutBatch({{"x", X("{1}")}, {"x", X("{2}")}}).IsInvalid());
  EXPECT_TRUE(store.PutBatch({{"", X("{1}")}}).IsInvalid());
  // Failed validation left no trace.
  EXPECT_TRUE(store.List().empty());
}

TEST(SetStoreTest, ScrubVerifiesEverything) {
  TempFile file("store_scrub");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutBatch({{"one", X("{<a, 1>}")}, {"two", X("{<b, 2>}")}}).ok());
  Result<size_t> verified = store.Scrub();
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 2u);
}

TEST(SetStoreTest, ScrubDetectsTamperedBlob) {
  TempFile file("store_scrub_bad");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    std::vector<XSet> tuples;
    for (int i = 0; i < 5000; ++i) tuples.push_back(XSet::Pair(XSet::Int(i), XSet::Int(i)));
    ASSERT_TRUE((*store)->Put("data", XSet::Classical(tuples)).ok());
  }
  {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    const auto target = static_cast<std::streamoff>(3 * kPageSize + 64);
    f.seekg(target);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(target);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }
  auto store = SetStore::Open(file.path(), SetStoreOptions{.buffer_pool_pages = 2});
  ASSERT_TRUE(store.ok());
  Result<size_t> verified = (*store)->Scrub();
  EXPECT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsCorruption());
}

TEST(SetStoreTest, CorruptSuperblockRangeIsRejected) {
  // Regression: out-of-range superblock values used to be narrowed into
  // uint32 page ids and chased, producing confusing downstream errors (or a
  // wrapped fetch). They must be rejected up front, naming the bad value.
  TempFile file("store_badsuper");
  const auto rewrite_superblock = [&](int64_t first, int64_t len, int64_t span) {
    XSet pointer = XSet::Pair(XSet::Int(first), XSet::Int(len));
    XSet with_span = XSet::Pair(pointer, XSet::Int(span));
    Page super;
    ASSERT_TRUE(super.AddRecord(EncodeXSetToString(with_span)).ok());
    std::string bytes = super.ToBytes();  // seed 0 == page 0's checksum seed
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(0);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("x", X("{1}")).ok());
  }
  // Span runs past end of file.
  rewrite_superblock(2, 10, 1 << 20);
  auto beyond = SetStore::Open(file.path());
  ASSERT_FALSE(beyond.ok());
  EXPECT_TRUE(beyond.status().IsCorruption()) << beyond.status().ToString();
  EXPECT_NE(beyond.status().message().find("page range beyond end of file"),
            std::string::npos)
      << beyond.status().ToString();
  // Negative first page, with the offending value named in the message.
  rewrite_superblock(-1, 10, 1);
  auto negative = SetStore::Open(file.path());
  ASSERT_FALSE(negative.ok());
  EXPECT_TRUE(negative.status().IsCorruption());
  EXPECT_NE(negative.status().message().find("first_page=-1"), std::string::npos)
      << negative.status().ToString();
  // Byte length no page span could hold.
  rewrite_superblock(2, 1 << 30, 1);
  auto oversized = SetStore::Open(file.path());
  ASSERT_FALSE(oversized.ok());
  EXPECT_TRUE(oversized.status().IsCorruption());
  EXPECT_NE(oversized.status().message().find("byte length exceeds"),
            std::string::npos)
      << oversized.status().ToString();
}

TEST(SetStoreTest, CompactWriteFailureCleansUpAndKeepsServing) {
  // Regression: a failed compaction used to leave the half-written
  // "<path>.compact" sibling behind. Every error path must remove it and
  // leave the original store untouched and usable.
  TempFile file("store_compact_fail");
  auto state = std::make_shared<FaultState>();
  state->fail_write = 0;  // the compact target's device dies immediately
  SetStoreOptions options;
  options.file_factory = [state](const std::string& path) -> Result<std::unique_ptr<File>> {
    Result<std::unique_ptr<File>> base = StdioFile::Open(path);
    if (!base.ok()) return base.status();
    const std::string suffix = ".compact";
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return std::unique_ptr<File>(new FaultFile(std::move(*base), state));
    }
    return base;
  };
  auto store_or = SetStore::Open(file.path(), options);
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("keep", X("{<keep, 1>}")).ok());
  ASSERT_TRUE(store.Put("churn", X("{c}")).ok());
  ASSERT_TRUE(store.Delete("churn").ok());

  Status st = store.Compact();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(state->triggered);
  EXPECT_NE(st.message().find("compact"), std::string::npos) << st.ToString();
  EXPECT_FALSE(FileExists(file.path() + ".compact"));
  // The original store is fully usable: reads, writes, and a later compact
  // (after the injected device heals) all work.
  EXPECT_EQ(*store.Get("keep"), X("{<keep, 1>}"));
  ASSERT_TRUE(store.Put("more", X("{2}")).ok());
  state->fail_write = -1;
  state->device_failed = false;
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_EQ(*store.Get("keep"), X("{<keep, 1>}"));
  EXPECT_EQ(store.List(), (std::vector<std::string>{"keep", "more"}));
}

TEST(SetStoreTest, CompactRenameFailureReopensOriginal) {
  // Regression: if the atomic swap itself fails, Compact must remove the
  // temp file and go back to serving the original file — not leave the
  // store pointing at a closed pager.
  TempFile file("store_compact_rename");
  SetStoreOptions options;
  int rename_calls = 0;
  options.rename_fn = [&rename_calls](const char*, const char*) {
    ++rename_calls;
    return -1;
  };
  auto store_or = SetStore::Open(file.path(), options);
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("keep", X("{<keep, 1>}")).ok());
  ASSERT_TRUE(store.Put("churn", X("{c}")).ok());
  ASSERT_TRUE(store.Delete("churn").ok());

  Status st = store.Compact();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.message().find("rename failed"), std::string::npos) << st.ToString();
  EXPECT_EQ(rename_calls, 1);
  EXPECT_FALSE(FileExists(file.path() + ".compact"));
  // Reopened against the original file: everything still there and writable.
  EXPECT_EQ(*store.Get("keep"), X("{<keep, 1>}"));
  ASSERT_TRUE(store.Put("after", X("{3}")).ok());
  EXPECT_EQ(store.List(), (std::vector<std::string>{"after", "keep"}));
}

// --- Ordered-index storage mode (PR 8) ---

XSet IntRun(int lo, int hi) {
  std::vector<Membership> members;
  for (int i = lo; i <= hi; ++i) {
    members.push_back(Membership{XSet::Int(i), XSet::Empty()});
  }
  return XSet::FromMembers(std::move(members));
}

TEST(SetStoreTest, IndexedPutGetRoundTrip) {
  TempFile file("store_idx_basic");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  XSet pairs = X("{<a, 1>, <b, 2>, <c, 3>}");
  ASSERT_TRUE(store.PutIndexed("pairs", pairs).ok());
  EXPECT_EQ(*store.Get("pairs"), pairs);
  EXPECT_EQ(*store.ModeOf("pairs"), StorageMode::kOrderedIndex);
  ASSERT_TRUE(store.Put("blob", pairs).ok());
  EXPECT_EQ(*store.ModeOf("blob"), StorageMode::kBlob);
  // Atoms have no member list to index.
  EXPECT_TRUE(store.PutIndexed("atom", XSet::Int(7)).IsInvalid());
  EXPECT_TRUE(store.PutIndexed("", X("{}")).IsInvalid());
  // Replacing an indexed set re-buckets it wholesale.
  ASSERT_TRUE(store.PutIndexed("pairs", X("{<d, 4>}")).ok());
  EXPECT_EQ(*store.Get("pairs"), X("{<d, 4>}"));
}

TEST(SetStoreTest, IndexedMemberMutations) {
  TempFile file("store_idx_mut");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("s", IntRun(0, 99)).ok());

  Membership extra{XSet::Int(500), XSet::Empty()};
  EXPECT_EQ(*store.ContainsMember("s", extra), false);
  ASSERT_TRUE(store.InsertMember("s", extra).ok());
  EXPECT_EQ(*store.ContainsMember("s", extra), true);
  // Duplicate insert and absent erase are no-ops, not errors.
  ASSERT_TRUE(store.InsertMember("s", extra).ok());
  ASSERT_TRUE(store.EraseMember("s", Membership{XSet::Int(1000), XSet::Empty()}).ok());
  ASSERT_TRUE(store.EraseMember("s", extra).ok());
  EXPECT_EQ(*store.ContainsMember("s", extra), false);
  EXPECT_EQ(*store.Get("s"), IntRun(0, 99));

  // Member mutations only apply to the indexed mode.
  ASSERT_TRUE(store.Put("b", X("{1}")).ok());
  EXPECT_TRUE(store.InsertMember("b", extra).IsInvalid());
  EXPECT_TRUE(store.EraseMember("b", extra).IsInvalid());
  // ContainsMember works on both modes.
  EXPECT_EQ(*store.ContainsMember("b", Membership{XSet::Int(1), XSet::Empty()}), true);
}

TEST(SetStoreTest, IndexedPersistsAcrossReopen) {
  TempFile file("store_idx_reopen");
  XSet value = IntRun(0, 2000);
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PutIndexed("big", value).ok());
    ASSERT_TRUE((*store)->InsertMember(
        "big", Membership{XSet::Int(9999), XSet::Empty()}).ok());
  }
  auto store = SetStore::Open(file.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->ModeOf("big"), StorageMode::kOrderedIndex);
  EXPECT_EQ(*(*store)->ContainsMember(
      "big", Membership{XSet::Int(9999), XSet::Empty()}), true);
  EXPECT_EQ((*store)->Get("big")->cardinality(), 2002u);
}

TEST(SetStoreTest, IndexedElementRangeCursorStreamsSlice) {
  TempFile file("store_idx_range");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("big", IntRun(0, 19999)).ok());

  // Reset after the open: the seek spine is paid there, and at
  // XST_VALIDATE_LEVEL >= 2 the open also deep-validates the whole tree,
  // which legitimately touches every node.
  auto cursor = store.OpenElementRange("big", XSet::Int(5000), XSet::Int(5020));
  ASSERT_TRUE(cursor.ok());
  store.ResetPagerStats();
  std::vector<Membership> got;
  for (;;) {
    auto batch = (*cursor)->NextBatch();
    if (batch.empty()) break;
    got.insert(got.end(), batch.begin(), batch.end());
  }
  ASSERT_TRUE((*cursor)->status().ok());
  ASSERT_EQ(got.size(), 21u);
  EXPECT_EQ(got.front().element, XSet::Int(5000));
  EXPECT_EQ(got.back().element, XSet::Int(5020));
  // Leaf-only access: a seek spine plus the in-range leaves, never a full
  // tree scan or materialization.
  PagerStats stats = store.pager_stats();
  EXPECT_LE(stats.hits + stats.misses, 24u)
      << "hits " << stats.hits << " misses " << stats.misses;
}

TEST(SetStoreTest, IndexedModeSurvivesCompact) {
  TempFile file("store_idx_compact");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("tree", IntRun(0, 500)).ok());
  ASSERT_TRUE(store.Put("blob", X("{<a, 1>}")).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(store.Put("churn", IntRun(0, i)).ok());
  }
  ASSERT_TRUE(store.Delete("churn").ok());
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_EQ(*store.ModeOf("tree"), StorageMode::kOrderedIndex);
  EXPECT_EQ(*store.ModeOf("blob"), StorageMode::kBlob);
  EXPECT_EQ(*store.Get("tree"), IntRun(0, 500));
  ASSERT_TRUE(store.InsertMember(
      "tree", Membership{XSet::Int(777), XSet::Empty()}).ok());
  EXPECT_EQ(*store.ContainsMember(
      "tree", Membership{XSet::Int(777), XSet::Empty()}), true);
}

TEST(SetStoreTest, ScrubCoversIndexedSets) {
  TempFile file("store_idx_scrub");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("tree", IntRun(0, 800)).ok());
  ASSERT_TRUE(store.Put("blob", X("{1, 2}")).ok());
  EXPECT_TRUE(store.Scrub().ok());
}

TEST(SetStoreTest, FailureInjectionTruncatedFile) {
  TempFile file("store_trunc");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("x", X("{1}")).ok());
  }
  // Truncate to a non-page boundary.
  ASSERT_EQ(truncate(file.path().c_str(), static_cast<off_t>(kPageSize + 100)), 0);
  auto store = SetStore::Open(file.path());
  EXPECT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption());
}

// --- Checksums (DESIGN.md §8.2) ---

TEST(ChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  // Lengths that exercise the stripe loop, the leftover words and the
  // leftover bytes, alone and together.
  std::mt19937_64 rng(1977);
  for (size_t len : {1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 100, 257}) {
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng());
    const uint64_t base = Checksum64(bytes.data(), len, 42);
    for (size_t bit = 0; bit < len * 8; ++bit) {
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_NE(Checksum64(bytes.data(), len, 42), base) << "len " << len << " bit " << bit;
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
    EXPECT_NE(Checksum64(bytes.data(), len, 43), base) << "seed ignored at len " << len;
  }
}

Page PageWithRandomRecords(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Page page;
  for (int i = 0; i < 12; ++i) {
    std::string record(1 + rng() % 300, '\0');
    for (char& c : record) c = static_cast<char>(rng());
    EXPECT_TRUE(page.AddRecord(record).ok());
  }
  return page;
}

TEST(PageTest, EverySingleBitFlipInAPageImageIsDetected) {
  const uint32_t page_id = 37;
  std::string bytes = PageWithRandomRecords(5).ToBytes(page_id);
  ASSERT_TRUE(Page::FromBytes(bytes, page_id).ok());
  size_t undetected = 0;
  for (size_t bit = 0; bit < kPageSize * 8; ++bit) {
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    Result<Page> page = Page::FromBytes(bytes, page_id);
    if (!page.status().IsCorruption()) {
      ++undetected;
      ADD_FAILURE() << "bit " << bit << " flipped without detection";
    }
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    if (undetected > 5) break;
  }
  EXPECT_EQ(undetected, 0u);
}

TEST(PageTest, PageReadAtTheWrongIdIsDetected) {
  // A misdirected write: the right bytes at another page's offset.
  const uint32_t page_id = 37;
  const std::string bytes = PageWithRandomRecords(6).ToBytes(page_id);
  ASSERT_TRUE(Page::FromBytes(bytes, page_id).ok());
  for (uint32_t other = 0; other < 4096; ++other) {
    if (other == page_id) continue;
    EXPECT_TRUE(Page::FromBytes(bytes, other).status().IsCorruption()) << other;
  }
}

TEST(SetStoreTest, OlderFormatStoreIsRefusedWithItsCause) {
  TempFile file("store_older_format");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("x", X("{1}")).ok());
  }  // closed cleanly: the main file needs nothing from the log
  std::string page0(kPageSize, '\0');
  const auto write_page0 = [&] {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(0);
    f.write(page0.data(), static_cast<std::streamsize>(kPageSize));
  };
  {
    std::ifstream f(file.path(), std::ios::binary);
    ASSERT_TRUE(f.read(page0.data(), static_cast<std::streamsize>(kPageSize)).good());
  }
  // Re-seal page 0 the way the older format did: FNV-1a over the body with
  // the plain offset basis (page 0's seed), and drop the log.
  const uint64_t older = HashBytes(page0.data() + 8, kPageSize - 8);
  std::memcpy(page0.data(), &older, sizeof older);
  write_page0();
  std::remove((file.path() + ".wal").c_str());
  auto refused = SetStore::Open(file.path());
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsCorruption()) << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("older on-disk format"), std::string::npos)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("rebuild the store"), std::string::npos)
      << refused.status().ToString();
  // A page that fails both checksums is plain damage, not an older format.
  page0[100] = static_cast<char>(page0[100] ^ 0x10);
  write_page0();
  std::remove((file.path() + ".wal").c_str());
  auto damaged = SetStore::Open(file.path());
  ASSERT_FALSE(damaged.ok());
  EXPECT_TRUE(damaged.status().IsCorruption());
  EXPECT_EQ(damaged.status().message().find("older"), std::string::npos)
      << damaged.status().ToString();
}

// --- Commit drain: the per-shard unlogged lists against a full scan ---

void ExpectListsMatchScan(Pager& pager, const std::string& where) {
  const std::multiset<uint32_t> scanned = PagerTestPeer::ScanUnlogged(pager);
  EXPECT_EQ(PagerTestPeer::Listed(pager), scanned) << where;
  EXPECT_EQ(pager.HasUnloggedDirty(), !scanned.empty()) << where;
}

// Random mutate / flag-dirty / allocate / read-evict / drain / commit /
// checkpoint / abort sequences. After every step the shards' unlogged lists
// must hold exactly the frames a walk of every LRU finds dirty-and-unlogged,
// and a drain must log exactly those pages, with their current images.
void RunDrainOracle(size_t capacity, uint64_t seed) {
  TempFile file("drain_oracle_" + std::to_string(capacity));
  auto wal_or = Wal::Open(file.path() + ".wal");
  ASSERT_TRUE(wal_or.ok()) << wal_or.status().ToString();
  std::unique_ptr<Wal> wal = std::move(*wal_or);
  std::unique_ptr<Pager> pager;  // destroyed before the log it points at
  const auto open_pager = [&] {
    auto opened = Pager::Open(file.path(), capacity, /*latch_shards=*/16);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    pager = std::move(*opened);
    pager->AttachWal(wal.get());
  };
  const auto commit = [&] {
    ASSERT_TRUE(pager->DrainUnloggedToWal().ok());
    ASSERT_TRUE(wal->AppendCommit().ok());
    ASSERT_TRUE(wal->FlushAll().ok());
  };
  const auto checkpoint = [&] {
    const uint64_t durable = wal->stats().durable_lsn;
    for (const auto& [id, image] : wal->SnapshotResident()) {
      ASSERT_TRUE(pager->ApplyCheckpointImage(id, image).ok());
    }
    ASSERT_TRUE(pager->SyncFile().ok());
    ASSERT_TRUE(wal->Reset(durable).ok());
  };
  int version = 0;
  const auto write_page = [&](PageRef& ref) {
    PageWriteGuard guard(ref);
    *guard = Page();
    ASSERT_TRUE(guard->AddRecord("v" + std::to_string(++version)).ok());
  };

  open_pager();
  wal->BeginTxn();
  for (int i = 0; i < 8; ++i) {
    Result<PageRef> ref = pager->AllocatePage();
    ASSERT_TRUE(ref.ok());
    write_page(*ref);
  }
  commit();
  checkpoint();
  wal->BeginTxn();

  std::mt19937_64 rng(seed);
  for (int step = 0; step < 1500; ++step) {
    const uint32_t pages = pager->page_count();
    const uint32_t id = static_cast<uint32_t>(rng() % pages);
    const std::string where = "capacity " + std::to_string(capacity) + " step " +
                              std::to_string(step);
    switch (rng() % 9) {
      case 0:
      case 1: {  // rewrite a page's content
        Result<PageRef> ref = pager->FetchPage(id);
        ASSERT_TRUE(ref.ok()) << where;
        write_page(*ref);
        break;
      }
      case 2: {  // dirty the flag only
        Result<PageRef> ref = pager->FetchPage(id);
        ASSERT_TRUE(ref.ok()) << where;
        ref->MarkDirty();
        break;
      }
      case 3: {  // grow the file
        if (pages >= 48) break;
        Result<PageRef> ref = pager->AllocatePage();
        ASSERT_TRUE(ref.ok()) << where;
        write_page(*ref);
        break;
      }
      case 4: {  // read traffic: fills and evictions (dirty victims spill)
        Page copy;
        ASSERT_TRUE(pager->ReadPageSnapshot(id, &copy).ok()) << where;
        Result<PageRef> ref = pager->FetchPage((id * 7 + 3) % pages);
        ASSERT_TRUE(ref.ok()) << where;
        break;
      }
      case 5: {  // drain: logs exactly the scanned pages, as they are now
        const std::multiset<uint32_t> expected = PagerTestPeer::ScanUnlogged(*pager);
        const uint64_t lsn_before = wal->stats().appended_lsn;
        ASSERT_TRUE(pager->DrainUnloggedToWal().ok()) << where;
        EXPECT_EQ(wal->stats().appended_lsn - lsn_before, expected.size()) << where;
        for (uint32_t logged : expected) {
          std::string image;
          ASSERT_TRUE(wal->LookupPage(logged, &image)) << where;
          Result<PageRef> ref = pager->FetchPage(logged);
          ASSERT_TRUE(ref.ok()) << where;
          EXPECT_EQ(image, (*ref)->ToBytes(logged)) << where << " page " << logged;
        }
        EXPECT_TRUE(PagerTestPeer::ScanUnlogged(*pager).empty()) << where;
        break;
      }
      case 6:
      case 7: {  // commit, sometimes followed by a checkpoint
        commit();
        if (rng() % 2 == 0) checkpoint();
        wal->BeginTxn();
        break;
      }
      case 8: {  // abort: the store's way, a fresh pager over the log
        wal->AbortTxn();
        pager.reset();
        open_pager();
        wal->BeginTxn();
        break;
      }
    }
    ExpectListsMatchScan(*pager, where);
    if (::testing::Test::HasFailure()) return;
  }
  wal->AbortTxn();
}

TEST(PagerDrainOracle, UnloggedListsMatchAFullScan) {
  for (size_t capacity : {size_t{1}, size_t{2}, size_t{64}}) {
    RunDrainOracle(capacity, 1977 + capacity);
    if (HasFailure()) return;
  }
}

TEST(PagerDrainOracle, LegacyFlushWritesEveryDirtyFrame) {
  // Without a log the unlogged list is the dirty list Flush writes back.
  TempFile file("drain_legacy");
  {
    auto pager = Pager::Open(file.path(), 8, /*latch_shards=*/2);
    ASSERT_TRUE(pager.ok());
    for (int i = 0; i < 12; ++i) {
      Result<PageRef> ref = (*pager)->AllocatePage();
      ASSERT_TRUE(ref.ok());
      PageWriteGuard guard(*ref);
      ASSERT_TRUE(guard->AddRecord("p" + std::to_string(i)).ok());
    }
    ExpectListsMatchScan(**pager, "before flush");
    ASSERT_TRUE((*pager)->Flush().ok());
    ExpectListsMatchScan(**pager, "after flush");
    EXPECT_FALSE((*pager)->HasUnloggedDirty());
  }
  auto pager = Pager::Open(file.path(), 8);
  ASSERT_TRUE(pager.ok());
  for (uint32_t i = 0; i < 12; ++i) {
    Result<PageRef> ref = (*pager)->FetchPage(i);
    ASSERT_TRUE(ref.ok()) << i;
    EXPECT_EQ(*(*ref)->GetRecord(0), "p" + std::to_string(i));
  }
}

// --- Range cursors across commits ---

XSet EvenRun(int lo, int hi) {
  std::vector<Membership> members;
  for (int i = lo; i <= hi; i += 2) {
    members.push_back(Membership{XSet::Int(i), XSet::Empty()});
  }
  return XSet::FromMembers(std::move(members));
}

std::vector<Membership> DrainCursor(MemberCursor& cursor) {
  std::vector<Membership> got;
  for (;;) {
    std::span<const Membership> batch = cursor.NextBatch();
    if (batch.empty()) break;
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  return got;
}

TEST(SetStoreTest, RangeCursorIgnoresAnInsertJustBelowItsRange) {
  // Regression: a cursor kept its (leaf, slot) across a commit, so an insert
  // just below the range shifted the leaf's slots under it and the read
  // returned the inserted member too.
  TempFile file("store_cursor_below");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("s", EvenRun(0, 400)).ok());
  auto cursor = store.OpenElementRange("s", XSet::Int(200), XSet::Int(262));
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(store.InsertMember("s", Membership{XSet::Int(199), XSet::Empty()}).ok());
  const std::vector<Membership> got = DrainCursor(**cursor);
  const XSet base = EvenRun(200, 262);
  EXPECT_EQ(got, std::vector<Membership>(base.members().begin(), base.members().end()));
}

TEST(SetStoreTest, CursorNeitherRepeatsNorSkipsAcrossCommitsBetweenBatches) {
  TempFile file("store_cursor_between");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  const auto member = [](int i) { return Membership{XSet::Int(i), XSet::Empty()}; };
  for (bool ranged : {true, false}) {
    SCOPED_TRACE(ranged ? "range cursor" : "full cursor");
    const int hi = ranged ? 6000 : 8000;
    ASSERT_TRUE(store.PutIndexed("s", EvenRun(0, 8000)).ok());
    auto cursor = ranged ? store.OpenElementRange("s", XSet::Int(0), XSet::Int(hi))
                         : store.OpenCursor("s");
    ASSERT_TRUE(cursor.ok());
    std::span<const Membership> first_batch = (*cursor)->NextBatch();
    std::vector<Membership> got(first_batch.begin(), first_batch.end());
    ASSERT_FALSE(got.empty());
    const int last = static_cast<int>(got.back().element.int_value());
    ASSERT_LT(last, 4000) << "the first batch should be one leaf";
    // Commits between batches: one member behind the cursor, one right after
    // the last member returned, enough just ahead to split the next leaves,
    // and one erased ahead.
    std::set<int> expected;
    for (int i = 0; i <= hi; i += 2) expected.insert(i);
    ASSERT_TRUE(store.InsertMember("s", member(1)).ok());  // behind: not seen
    ASSERT_TRUE(store.InsertMember("s", member(last + 1)).ok());
    expected.insert(last + 1);
    for (int i = last + 3; i < last + 1200; i += 2) {
      ASSERT_TRUE(store.InsertMember("s", member(i)).ok());
      expected.insert(i);
    }
    ASSERT_TRUE(store.EraseMember("s", member(5000)).ok());
    expected.erase(5000);
    const std::vector<Membership> rest = DrainCursor(**cursor);
    got.insert(got.end(), rest.begin(), rest.end());
    std::vector<int> seen;
    for (const Membership& m : got) seen.push_back(static_cast<int>(m.element.int_value()));
    EXPECT_EQ(seen, std::vector<int>(expected.begin(), expected.end()));
  }
}

TEST(CatalogTest, CachedTuplesEncodeAsTheCatalogSet) {
  // Catalog::Encode builds the encoding from cached tuples kept in
  // canonical order; it must equal encoding the set built from scratch.
  std::mt19937_64 rng(1977);
  Catalog catalog;
  std::map<std::string, CatalogEntry> model;
  for (int step = 0; step < 400; ++step) {
    const std::string name = "set" + std::to_string(rng() % 24);
    if (rng() % 4 == 0) {
      EXPECT_EQ(catalog.Remove(name).ok(), model.erase(name) == 1);
    } else {
      CatalogEntry entry;
      entry.first_page = static_cast<uint32_t>(rng() % 5000);
      entry.page_span = static_cast<uint32_t>(1 + rng() % 3);
      entry.byte_length = rng() % 100000;
      entry.kind = rng() % 2 == 0 ? CatalogEntry::kKindBlob : CatalogEntry::kKindIndex;
      catalog.Put(name, entry);
      model[name] = entry;
    }
    std::vector<XSet> tuples;
    for (const auto& [n, e] : model) {
      std::vector<XSet> parts{XSet::String(n), XSet::Int(e.first_page),
                              XSet::Int(e.page_span),
                              XSet::Int(static_cast<int64_t>(e.byte_length))};
      if (e.kind != CatalogEntry::kKindBlob) parts.push_back(XSet::Int(e.kind));
      tuples.push_back(XSet::Tuple(parts));
    }
    const XSet expected = XSet::Classical(tuples);
    ASSERT_EQ(catalog.ToXSet(), expected) << "step " << step;
    ASSERT_EQ(catalog.Encode(), EncodeXSetToString(expected)) << "step " << step;
  }
  Result<Catalog> back = Catalog::FromXSet(catalog.ToXSet());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Encode(), catalog.Encode());
  EXPECT_EQ(back->Names(), catalog.Names());
}

// --- Commit phases and catalog placement ---

TEST(SetStoreTest, CommitPhasesAreTracedOncePerCommit) {
  TempFile file("store_commit_spans");
  SetStoreOptions options;
  options.wal_checkpoint_bytes = 1;  // every commit is followed by a checkpoint
  auto store_or = SetStore::Open(file.path(), options);
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("s", IntRun(0, 10)).ok());
  obs::ScopedTraceSink sink;
  ASSERT_TRUE(store.InsertMember("s", Membership{XSet::Int(99), XSet::Empty()}).ok());
  const std::vector<obs::SpanRecord>& spans = sink.spans();
  const auto named = [&](uint32_t i, const char* name) {
    return std::string(spans[i].name) == name;
  };
  uint32_t request = obs::kNoParent;
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (named(i, "store.insert_member")) request = i;
  }
  ASSERT_NE(request, obs::kNoParent) << obs::RenderSpanTree(spans);
  for (const char* phase : {"store.commit.stage", "store.commit.drain",
                            "store.commit.append", "store.commit.wait_durable",
                            "store.checkpoint"}) {
    int count = 0;
    for (uint32_t i = 0; i < spans.size(); ++i) {
      if (!named(i, phase)) continue;
      ++count;
      uint32_t up = spans[i].parent;
      while (up != obs::kNoParent && up != request) up = spans[up].parent;
      EXPECT_EQ(up, request) << phase << " is not under store.insert_member\n"
                             << obs::RenderSpanTree(spans);
    }
    EXPECT_EQ(count, 1) << phase << "\n" << obs::RenderSpanTree(spans);
  }
}

TEST(SetStoreTest, InsertsWithoutSplitsAllocateNoPages) {
  // The catalog is rewritten in place and the superblock only when its
  // record changes, so a commit that splits nothing allocates nothing.
  TempFile file("store_no_growth");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(store.PutIndexed("s" + std::to_string(r), IntRun(0, 9)).ok());
  }
  const uint32_t before = store.page_count();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.InsertMember("s" + std::to_string(i % 4),
                                   Membership{XSet::Int(1000 + i), XSet::Empty()})
                    .ok());
  }
  EXPECT_EQ(store.page_count(), before);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(store.Get("s" + std::to_string(r))->cardinality(), 260u);
  }
  EXPECT_TRUE(store.Scrub().ok());
}

std::string LongName(int i) { return std::string(180, 'n') + std::to_string(i); }

TEST(SetStoreTest, CatalogOutgrowingItsSpanMovesAndReopenFindsIt) {
  TempFile file("store_catalog_moves");
  {
    auto store_or = SetStore::Open(file.path());
    ASSERT_TRUE(store_or.ok());
    SetStore& store = **store_or;
    int moves = 0;
    for (int i = 0; i < 60; ++i) {
      const uint32_t before = store.page_count();
      ASSERT_TRUE(store.Put(LongName(i), XSet::Classical({XSet::Int(i)})).ok());
      // One page for the blob, plus the catalog's new span when it moved.
      const uint32_t grown = store.page_count() - before;
      EXPECT_GE(grown, 1u);
      if (grown > 1) {
        ++moves;
        EXPECT_EQ(grown, 3u) << "a two-page catalog span at entry " << i;
      }
    }
    // ~60 × 190 bytes: past one page, within two.
    EXPECT_EQ(moves, 1);
  }
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  SetStore& store = **store_or;
  EXPECT_EQ(store.List().size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(*store.Get(LongName(i)), XSet::Classical({XSet::Int(i)}));
  }
  EXPECT_EQ(*store.Scrub(), 60u);
  // The reopened store found the moved span: the next commit rewrites it.
  const uint32_t before = store.page_count();
  ASSERT_TRUE(store.Put(LongName(60), XSet::Classical({XSet::Int(60)})).ok());
  EXPECT_EQ(store.page_count(), before + 1);
}

// Fails the next read of one main-file page, once, when armed.
class FailPageReadFile : public File {
 public:
  FailPageReadFile(std::unique_ptr<File> base, std::shared_ptr<int64_t> fail_page)
      : base_(std::move(base)), fail_page_(std::move(fail_page)) {}
  Result<uint64_t> Size() override { return base_->Size(); }
  Status ReadAt(uint64_t offset, char* dst, size_t n) override {
    if (*fail_page_ >= 0 &&
        offset == static_cast<uint64_t>(*fail_page_) * kPageSize) {
      *fail_page_ = -1;
      return Status::IOError("injected read failure");
    }
    return base_->ReadAt(offset, dst, n);
  }
  Status WriteAt(uint64_t offset, const char* src, size_t n) override {
    return base_->WriteAt(offset, src, n);
  }
  Status Flush() override { return base_->Flush(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }

 private:
  std::unique_ptr<File> base_;
  std::shared_ptr<int64_t> fail_page_;
};

TEST(SetStoreTest, AbortAfterAnInPlaceCatalogWriteRestoresTheOldCatalog) {
  TempFile file("store_catalog_abort");
  auto fail_page = std::make_shared<int64_t>(-1);
  SetStoreOptions options;
  options.file_factory = [fail_page](const std::string& path) -> Result<std::unique_ptr<File>> {
    Result<std::unique_ptr<File>> base = StdioFile::Open(path);
    if (!base.ok() || (path.size() >= 4 && path.compare(path.size() - 4, 4, ".wal") == 0)) {
      return base;
    }
    return std::unique_ptr<File>(new FailPageReadFile(std::move(*base), fail_page));
  };
  std::vector<std::string> names;
  {
    auto store = SetStore::Open(file.path(), options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*store)->Put(LongName(i), XSet::Classical({XSet::Int(i)})).ok());
    }
    names = (*store)->List();
  }  // checkpointed on close: the catalog pages are in the main file
  // Find the catalog span through the superblock.
  uint32_t catalog_first = 0;
  {
    std::ifstream f(file.path(), std::ios::binary);
    std::string bytes(kPageSize, '\0');
    ASSERT_TRUE(f.read(bytes.data(), static_cast<std::streamsize>(kPageSize)).good());
    Result<Page> super = Page::FromBytes(bytes, 0);
    ASSERT_TRUE(super.ok());
    Result<XSet> with_span = DecodeXSetWhole(*super->GetRecord(0));
    ASSERT_TRUE(with_span.ok());
    XSet pointer = *TupleGet(*with_span, 1);
    catalog_first = static_cast<uint32_t>(TupleGet(pointer, 1)->int_value());
    ASSERT_EQ(TupleGet(*with_span, 2)->int_value(), 2) << "want a two-page catalog";
  }
  options.buffer_pool_pages = 4;
  auto store_or = SetStore::Open(file.path(), options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  SetStore& store = **store_or;
  // Push the catalog pages out of the 4-frame pool, then fail the read of
  // its second page: the commit rewrites the first page in place, and the
  // second one's fetch fails before the commit record is written.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.Get(LongName(i)).ok());
  *fail_page = static_cast<int64_t>(catalog_first) + 1;
  Status failed = store.Put("new", XSet::Classical({XSet::Int(-1)}));
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_EQ(*fail_page, -1) << "the injected read never happened";
  EXPECT_EQ(store.List(), names);
  EXPECT_EQ(*store.Scrub(), names.size());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*store.Get(LongName(i)), XSet::Classical({XSet::Int(i)}));
  }
  // The store carries on, and a reopen sees the old catalog plus the retry.
  ASSERT_TRUE(store.Put("new", XSet::Classical({XSet::Int(-1)})).ok());
  store_or->reset();
  auto reopened = SetStore::Open(file.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->List().size(), names.size() + 1);
  EXPECT_EQ(*(*reopened)->Get("new"), XSet::Classical({XSet::Int(-1)}));
}

}  // namespace
}  // namespace xst
