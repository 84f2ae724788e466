// Regression stress tests for the data races fixed during the thread-safety
// annotation sweep (DESIGN.md §11). Each test pins one former bug: an
// accessor that read guarded state without its lock while a writer mutated
// it. They are meaningful under ThreadSanitizer (ci.sh runs them in the
// build-tsan tree) and still catch torn-read symptoms (monotonic counters
// going backwards, crashes on a freed IMCS generation) in plain builds.
//
// Former bugs, by test:
//  - SyncStatsReadRacesMerge:       DataSynchronizer::stats() returned a
//    reference into state mutated under mu_ by SyncTo().
//  - WalSyncCountReadRacesAppend:   WalWriter::sync_count() read the counter
//    without mu_ while Append()/Sync() wrote it.
//  - DiskHeapCountersRaceWrites:    DiskRowStore::num_pages() and the
//    then-exposed BufferPool reference were read without mu_ while Put()
//    mutated the pool and page counters.
//  - StatsRefreshRacesConcurrentScans:  both per-table stats refreshers
//    mutated TableStats in place while concurrent scans pointed the cost
//    model directly at the shared struct.
//  - ColumnSelectionRefreshRacesScans:  RefreshColumnSelection destroyed
//    the IMCS ColumnTable (then a unique_ptr) that a concurrent scan was
//    reading, and unserialized delta drains could apply out of order.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/engines.h"
#include "storage/disk_row_store.h"
#include "storage/mvcc_row_store.h"
#include "sync/sync.h"
#include "wal/wal.h"

namespace htap {
namespace {

Schema KvSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) { return Row{Value(id), Value(v)}; }

TEST(ThreadSafetyRegressionTest, SyncStatsReadRacesMerge) {
  TransactionManager mgr;
  MvccRowStore rows(1, KvSchema(), &mgr, nullptr);
  auto delta = std::make_unique<InMemoryDeltaStore>(KvSchema());
  InMemoryDeltaStore* delta_ptr = delta.get();
  ColumnTable table(KvSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(delta_ptr));
  struct Router : ChangeSink {
    InMemoryDeltaStore* d;
    EventRouter route;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      route.Route(evs, [&](uint32_t, TableEvents run) { d->AppendEvents(run); });
    }
  } router;
  router.d = delta_ptr;
  mgr.RegisterSink(&router);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_merges = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const SyncStats ss = sync.stats();
      EXPECT_GE(ss.merges, last_merges);  // snapshot is never torn/backwards
      last_merges = ss.merges;
    }
  });
  for (int i = 0; i < 300; ++i) {
    auto t = mgr.Begin();
    ASSERT_TRUE(rows.Insert(t.get(), MakeRow(i, i)).ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());
    ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(sync.stats().merges, 300u);
}

TEST(ThreadSafetyRegressionTest, WalSyncCountReadRacesAppend) {
  WalWriter::Options wo;  // empty path: in-memory log
  WalWriter wal(wo);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t n = wal.sync_count();
      EXPECT_GE(n, last);
      last = n;
    }
  });
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  for (int i = 0; i < 500; ++i) {
    rec.txn_id = static_cast<uint64_t>(i);
    rec.csn = static_cast<CSN>(i + 1);
    wal.Append(rec);
    wal.Sync();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(wal.sync_count(), 500u);
}

TEST(ThreadSafetyRegressionTest, DiskHeapCountersRaceWrites) {
  char tmpl[] = "/tmp/htap_tsreg_XXXXXX";
  const std::string dir = mkdtemp(tmpl);
  {
    DiskRowStore store(dir + "/heap", KvSchema(), 8);
    ASSERT_TRUE(store.Open().ok());
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      uint32_t last_pages = 0;
      uint64_t last_evictions = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const uint32_t pages = store.num_pages();
        EXPECT_GE(pages, last_pages);
        last_pages = pages;
        const BufferPoolStats bp = store.pool_stats();
        EXPECT_GE(bp.evictions, last_evictions);
        EXPECT_LE(bp.cached_pages, 8u);  // never exceeds the pool capacity
        last_evictions = bp.evictions;
      }
    });
    for (int i = 0; i < 2000; ++i)
      ASSERT_TRUE(store.Put(MakeRow(i, i)).ok());
    stop.store(true, std::memory_order_release);
    reader.join();
  }
  std::system(("rm -rf " + dir).c_str());
}

class EngineRaceTest : public ::testing::Test {
 protected:
  void Open(ArchitectureKind arch) {
    char tmpl[] = "/tmp/htap_tsreg_XXXXXX";
    dir_ = mkdtemp(tmpl);
    DatabaseOptions opts;
    opts.architecture = arch;
    opts.data_dir = dir_;
    opts.background_sync = true;    // merge daemon runs during the race
    opts.sync_interval_micros = 500;
    opts.stats_refresh_interval = 1;  // force a stats refresh per scan
    auto res = Database::Open(opts);
    ASSERT_TRUE(res.ok());
    db_ = std::move(*res);
    ASSERT_TRUE(db_->CreateTable("kv", KvSchema()).ok());
    for (int i = 0; i < 256; ++i)
      ASSERT_TRUE(db_->InsertRow("kv", MakeRow(i, i)).ok());
  }

  void TearDown() override {
    db_.reset();
    std::system(("rm -rf " + dir_).c_str());
  }

  /// N scanner threads running SELECTs (each triggering a stats refresh)
  /// while the caller-provided mutator runs on the main thread.
  void RaceScansAgainst(const std::function<void()>& mutate) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> scanners;
    for (int s = 0; s < 3; ++s) {
      scanners.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          auto res = db_->ExecuteSql("SELECT v FROM kv WHERE v >= 0");
          ASSERT_TRUE(res.ok());
          EXPECT_EQ(res->rows.size(), 256u);
        }
      });
    }
    mutate();
    stop.store(true, std::memory_order_release);
    for (auto& t : scanners) t.join();
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(EngineRaceTest, StatsRefreshRacesConcurrentScans) {
  Open(ArchitectureKind::kRowPlusInMemoryColumn);
  RaceScansAgainst([&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(i % 256, i)).ok());
      ASSERT_TRUE(db_->ForceSync("kv").ok());
    }
  });
}

TEST_F(EngineRaceTest, ColumnSelectionRefreshRacesScans) {
  Open(ArchitectureKind::kDiskRowPlusDistributedColumn);
  auto* disk = dynamic_cast<DiskHtapEngine*>(db_->engine());
  ASSERT_NE(disk, nullptr);
  const TableInfo* info = db_->catalog()->Find("kv");
  ASSERT_NE(info, nullptr);
  RaceScansAgainst([&] {
    // Each iteration replaces the IMCS generation wholesale while the
    // scanners sync + scan it; generation pinning must keep every scan on
    // a live ColumnTable and merges in commit order.
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_->UpdateRow("kv", MakeRow(i % 256, 1000 + i)).ok());
      ASSERT_TRUE(disk->RefreshColumnSelection(*info).ok());
      ASSERT_TRUE(db_->ForceSync("kv").ok());
    }
  });
}

}  // namespace
}  // namespace htap
