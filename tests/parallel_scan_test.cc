// Morsel-driven parallel execution tests: parallel ScanHtap / ScanRowStore /
// HashAggregate must agree with their serial counterparts, the typed filter
// fast paths must match generic evaluation, and parallel readers must stay
// correct while a sync-pipeline writer appends/deletes/compacts concurrently.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "core/database.h"
#include "exec/executor.h"
#include "txn/txn_manager.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64},
                 {"cat", Type::kString}, {"price", Type::kDouble}});
}

Row TRow(Key id, int64_t v, const std::string& cat, double price) {
  return Row{Value(id), Value(v), Value(cat), Value(price)};
}

class ParallelScanTest : public ::testing::Test {
 protected:
  ParallelScanTest()
      : table_(TestSchema()), delta_(TestSchema()), pool_(4, "test-ap") {
    // Eight row groups of 64 rows each.
    std::vector<Row> batch;
    for (Key id = 0; id < 512; ++id) {
      batch.push_back(TRow(id, id % 13, id % 2 ? "odd" : "even", id * 0.25));
      if (batch.size() == 64) {
        table_.AppendBatch(batch, 1);
        batch.clear();
      }
    }
    // Positional deletes sprinkled across groups.
    for (Key id = 7; id < 512; id += 31) table_.DeleteKey(id, 2);
    // Delta overrides: updates, a delete, and fresh inserts.
    for (Key id = 3; id < 512; id += 97) {
      DeltaEntry e;
      e.op = ChangeOp::kUpdate;
      e.key = id;
      e.row = TRow(id, 7777, "patched", 1.5);
      e.csn = 10;
      delta_.Append(e);
    }
    DeltaEntry del;
    del.op = ChangeOp::kDelete;
    del.key = 20;
    del.csn = 11;
    delta_.Append(del);
    for (Key id = 9000; id < 9008; ++id) {
      DeltaEntry ins;
      ins.op = ChangeOp::kInsert;
      ins.key = id;
      ins.row = TRow(id, 1, "new", 2.0);
      ins.csn = 12;
      delta_.Append(ins);
    }
  }

  ExecContext Par() { return ExecContext{&pool_, 4}; }

  ColumnTable table_;
  InMemoryDeltaStore delta_;
  ThreadPool pool_;
};

TEST_F(ParallelScanTest, MatchesSerialExactlyIncludingOrder) {
  const std::vector<Predicate> preds = {
      Predicate::True(),
      Predicate::Ge(0, Value(int64_t{100})),
      Predicate::And({Predicate::Ge(1, Value(int64_t{3})),
                      Predicate::Eq(2, Value("odd"))}),
      Predicate::Gt(3, Value(100.0)),
  };
  for (const Predicate& pred : preds) {
    for (const std::vector<int>& proj :
         {std::vector<int>{}, std::vector<int>{0, 3}}) {
      ScanStats serial_st, par_st;
      const auto serial =
          ScanHtap(table_, &delta_, kMaxCSN - 1, pred, proj, &serial_st);
      const auto par = ScanHtap(table_, &delta_, kMaxCSN - 1, pred, proj,
                                Par(), &par_st);
      // Exact equality, including row order: per-group partials are merged
      // in group index order and the delta partition comes last either way.
      EXPECT_EQ(serial, par);
      EXPECT_EQ(serial_st.groups_total, par_st.groups_total);
      EXPECT_EQ(serial_st.groups_skipped, par_st.groups_skipped);
      EXPECT_EQ(serial_st.main_rows_emitted, par_st.main_rows_emitted);
      EXPECT_EQ(serial_st.delta_rows_emitted, par_st.delta_rows_emitted);
      EXPECT_EQ(serial_st.delta_entries_read, par_st.delta_entries_read);
    }
  }
}

TEST_F(ParallelScanTest, MoreWorkersThanGroupsIsFine) {
  ColumnTable one(TestSchema());
  one.AppendBatch({TRow(1, 1, "a", 1.0), TRow(2, 2, "b", 2.0)}, 1);
  const auto serial = ScanHtap(one, nullptr, kMaxCSN - 1, Predicate::True(), {});
  const auto par = ScanHtap(one, nullptr, kMaxCSN - 1, Predicate::True(), {},
                            Par(), nullptr);
  EXPECT_EQ(serial, par);
  // Empty table, parallel context.
  ColumnTable empty(TestSchema());
  EXPECT_TRUE(ScanHtap(empty, nullptr, kMaxCSN - 1, Predicate::True(), {},
                       Par(), nullptr)
                  .empty());
}

TEST_F(ParallelScanTest, DoubleFastPathMatchesGenericEval) {
  // `price` has no nulls, so every comparison below takes the typed kDouble
  // loop; validate it against row-at-a-time Predicate::Eval.
  const std::vector<Predicate> preds = {
      Predicate::Lt(3, Value(10.0)),   Predicate::Ge(3, Value(100.0)),
      Predicate::Eq(3, Value(0.25)),   Predicate::Ne(3, Value(0.0)),
      Predicate::Gt(3, Value(int64_t{100})),  // int literal vs double column
      Predicate::Le(3, Value(int64_t{2})),
  };
  const auto all =
      ScanHtap(table_, &delta_, kMaxCSN - 1, Predicate::True(), {});
  for (const Predicate& pred : preds) {
    std::vector<Row> expect;
    for (const Row& r : all)
      if (pred.Eval(r)) expect.push_back(r);
    const auto got = ScanHtap(table_, &delta_, kMaxCSN - 1, pred, {});
    EXPECT_EQ(expect, got) << pred.ToString(nullptr);
  }
}

TEST_F(ParallelScanTest, NullableDoubleColumnFallsBackCorrectly) {
  ColumnTable t(TestSchema());
  std::vector<Row> rows;
  for (Key id = 0; id < 32; ++id) {
    Row r = TRow(id, id, "x", id * 1.0);
    if (id % 5 == 0) r.Set(3, Value::Null());
    rows.push_back(std::move(r));
  }
  t.AppendBatch(rows, 1);
  // Nulls never satisfy comparisons.
  const auto out =
      ScanHtap(t, nullptr, kMaxCSN - 1, Predicate::Ge(3, Value(0.0)), {});
  EXPECT_EQ(out.size(), 32u - 7u);
  for (const Row& r : out) EXPECT_NE(r.Get(0).AsInt64() % 5, 0);
}

TEST_F(ParallelScanTest, ParallelRowScanMatchesSerial) {
  TransactionManager mgr;
  MvccRowStore store(1, TestSchema(), &mgr, nullptr);
  auto t = mgr.Begin();
  for (Key id = 0; id < 300; ++id)
    store.Insert(t.get(), TRow(id, id % 7, id % 2 ? "odd" : "even", id * 0.5));
  mgr.Commit(t.get());
  auto d = mgr.Begin();
  for (Key id = 0; id < 300; id += 50) store.Delete(d.get(), id);
  mgr.Commit(d.get());

  const Snapshot snap = mgr.CurrentSnapshot();
  for (const Predicate& pred :
       {Predicate::True(), Predicate::Eq(1, Value(int64_t{3}))}) {
    const auto serial = ScanRowStore(store, snap, pred, {});
    const auto par = ScanRowStore(store, snap, pred, {}, Par());
    // Range partitions concatenate in key order — identical to serial.
    EXPECT_EQ(serial, par);
  }
}

TEST_F(ParallelScanTest, SplitKeyRangesCoversDomain) {
  TransactionManager mgr;
  MvccRowStore store(1, TestSchema(), &mgr, nullptr);
  auto t = mgr.Begin();
  for (Key id = 0; id < 100; ++id) store.Insert(t.get(), TRow(id, 0, "", 0));
  mgr.Commit(t.get());
  const auto ranges = store.SplitKeyRanges(4);
  ASSERT_EQ(ranges.size(), 4u);
  // Contiguous, non-overlapping, covering every key.
  for (size_t i = 1; i < ranges.size(); ++i)
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second + 1);
  EXPECT_LE(ranges.front().first, Key{0});
  EXPECT_GE(ranges.back().second, Key{99});
  // Tiny stores do not split.
  TransactionManager m2;
  MvccRowStore small(1, TestSchema(), &m2, nullptr);
  EXPECT_EQ(small.SplitKeyRanges(4).size(), 1u);
}

TEST_F(ParallelScanTest, ParallelAggregateMatchesSerial) {
  std::vector<Row> rows;
  for (Key id = 0; id < 10000; ++id) {
    Row r = TRow(id, id % 23, id % 2 ? "odd" : "even", (id % 97) * 0.5);
    if (id % 11 == 0) r.Set(1, Value::Null());
    rows.push_back(std::move(r));
  }
  const std::vector<AggSpec> aggs = {AggSpec::Count("n"), AggSpec::Sum(1, "s"),
                                     AggSpec::Min(3, "mn"),
                                     AggSpec::Max(3, "mx"),
                                     AggSpec::Avg(1, "avg")};
  for (const std::vector<int>& groups :
       {std::vector<int>{}, std::vector<int>{2}, std::vector<int>{1, 2}}) {
    auto serial = HashAggregate(rows, groups, aggs);
    auto par = HashAggregate(rows, groups, aggs, Par());
    // Group output order is unspecified (hash-table order); sort to compare.
    auto less = [](const Row& a, const Row& b) {
      return a.ToString() < b.ToString();
    };
    std::sort(serial.begin(), serial.end(), less);
    std::sort(par.begin(), par.end(), less);
    EXPECT_EQ(serial, par);
  }
  // Empty input: global aggregate still yields its one row in parallel mode.
  const auto empty =
      HashAggregate(std::vector<Row>{}, {}, {AggSpec::Count("n")}, Par());
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].Get(0).AsInt64(), 0);
}

TEST_F(ParallelScanTest, BatchScanMatchesSerialAtAnyThreadCount) {
  // The vectorized scan joins the serial≡parallel suite: batches flattened
  // back to rows must equal the serial row scan bit for bit.
  const Predicate pred = Predicate::And(
      {Predicate::Ge(1, Value(int64_t{3})), Predicate::Eq(2, Value("odd"))});
  const auto serial = ScanHtap(table_, &delta_, kMaxCSN - 1, pred, {});
  ExecContext exec = Par();
  exec.batch_rows = 48;  // force several batches per row group
  const auto batches =
      ScanHtapBatches(table_, &delta_, kMaxCSN - 1, pred, {}, exec, nullptr);
  EXPECT_EQ(BatchesToRows(batches), serial);
}

// Batch-scan variant of the reader/writer race: parallel vectorized readers
// must observe atomic column-store states while a writer appends, deletes,
// and compacts (the TSan job runs this under the race detector).
TEST_F(ParallelScanTest, ConcurrentBatchReadersWithChurningWriter) {
  ColumnTable t(TestSchema());
  std::vector<Row> seed;
  for (Key id = 0; id < 256; ++id)
    seed.push_back(TRow(id, id, "seed", id * 1.0));
  t.AppendBatch(seed, 1);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    CSN csn = 100;
    for (int iter = 0; iter < 80; ++iter) {
      std::vector<Row> batch;
      for (Key id = 1000 + (iter % 8) * 50; id < 1000 + (iter % 8) * 50 + 30;
           ++id)
        batch.push_back(TRow(id, iter, "hot", iter * 1.0));
      t.AppendBatch(batch, ++csn);
      for (Key id = 1000 + (iter % 8) * 50; id < 1000 + (iter % 8) * 50 + 10;
           ++id)
        t.DeleteKey(id, csn);
      if (iter % 16 == 15) t.Compact();
    }
    done.store(true);
  });

  auto reader = [&] {
    ExecContext exec{&pool_, 4};
    exec.batch_rows = 64;
    do {
      const auto batches = ScanHtapBatches(t, nullptr, kMaxCSN - 1,
                                           Predicate::True(), {}, exec);
      std::set<Key> keys;
      for (const Row& r : BatchesToRows(batches)) {
        const Key k = r.Get(0).AsInt64();
        EXPECT_TRUE(keys.insert(k).second) << "duplicate key " << k;
      }
      EXPECT_GE(keys.size(), 256u);  // the seed rows never disappear
    } while (!done.load());
  };
  std::thread r1(reader), r2(reader);
  writer.join();
  r1.join();
  r2.join();
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  TaskGroup tg(nullptr);
  int x = 0;
  tg.Run([&] { x = 42; });
  EXPECT_EQ(x, 42);  // ran synchronously
  tg.Wait();
}

TEST(TaskGroupTest, TracksOnlyItsOwnTasks) {
  ThreadPool pool(2, "tg-test");
  std::atomic<int> a{0}, b{0};
  {
    TaskGroup g1(&pool);
    TaskGroup g2(&pool);
    for (int i = 0; i < 16; ++i) g1.Run([&] { a.fetch_add(1); });
    for (int i = 0; i < 16; ++i) g2.Run([&] { b.fetch_add(1); });
    g1.Wait();
    EXPECT_EQ(a.load(), 16);
  }
  EXPECT_EQ(b.load(), 16);
}

// The satellite stress test: parallel HTAP readers racing a sync-pipeline
// writer under the RWLatch discipline. Each scan must observe an atomic
// column-store state unioned with the (static) delta: keys unique, delta
// updates/deletes/inserts always reflected.
TEST_F(ParallelScanTest, ConcurrentReadersWithAppendDeleteCompactWriter) {
  ColumnTable t(TestSchema());
  InMemoryDeltaStore delta(TestSchema());
  std::vector<Row> seed;
  for (Key id = 0; id < 256; ++id)
    seed.push_back(TRow(id, id, "seed", id * 1.0));
  t.AppendBatch(seed, 1);
  // Static delta: update keys 0..9, delete 10..14, insert 9000..9009.
  for (Key id = 0; id < 10; ++id) {
    DeltaEntry e;
    e.op = ChangeOp::kUpdate;
    e.key = id;
    e.row = TRow(id, 7777, "patched", 0.0);
    e.csn = 5;
    delta.Append(e);
  }
  for (Key id = 10; id < 15; ++id) {
    DeltaEntry e;
    e.op = ChangeOp::kDelete;
    e.key = id;
    e.csn = 5;
    delta.Append(e);
  }
  for (Key id = 9000; id < 9010; ++id) {
    DeltaEntry e;
    e.op = ChangeOp::kInsert;
    e.key = id;
    e.row = TRow(id, 1, "new", 0.0);
    e.csn = 5;
    delta.Append(e);
  }

  std::atomic<bool> done{false};
  // Writer churns keys 1000..1999 (disjoint from the delta's key set) with
  // AppendBatch (insert + update), DeleteKey, and periodic Compact — all of
  // which take the table's write latch internally.
  std::thread writer([&] {
    CSN csn = 100;
    for (int iter = 0; iter < 120; ++iter) {
      std::vector<Row> batch;
      for (Key id = 1000 + (iter % 10) * 100; id < 1000 + (iter % 10) * 100 + 40;
           ++id)
        batch.push_back(TRow(id, iter, "hot", iter * 1.0));
      t.AppendBatch(batch, ++csn);
      for (Key id = 1000 + (iter % 10) * 100; id < 1000 + (iter % 10) * 100 + 10;
           ++id)
        t.DeleteKey(id, csn);
      if (iter % 16 == 15) t.Compact();
    }
    done.store(true);
  });

  auto reader = [&] {
    do {
      const auto out = ScanHtap(t, &delta, kMaxCSN - 1, Predicate::True(), {},
                                ExecContext{&pool_, 4}, nullptr);
      std::set<Key> keys;
      int64_t patched = 0, fresh = 0;
      for (const Row& r : out) {
        const Key k = r.Get(0).AsInt64();
        EXPECT_TRUE(keys.insert(k).second) << "duplicate key " << k;
        EXPECT_FALSE(k >= 10 && k < 15) << "delta-deleted key visible";
        if (k < 10) {
          EXPECT_EQ(r.Get(1).AsInt64(), 7777);
          ++patched;
        }
        if (k >= 9000) ++fresh;
      }
      EXPECT_EQ(patched, 10);
      EXPECT_EQ(fresh, 10);
      EXPECT_GE(keys.size(), 256u - 15u + 10u);  // seed survivors + inserts
    } while (!done.load());
  };
  std::thread r1(reader), r2(reader);
  writer.join();
  r1.join();
  r2.join();
}

TEST(ParallelDatabaseTest, ParallelAndSerialEnginesAgree) {
  auto open = [](size_t threads) {
    DatabaseOptions opts;
    opts.architecture = ArchitectureKind::kRowPlusInMemoryColumn;
    opts.background_sync = false;
    opts.parallel_scan_threads = threads;
    auto res = Database::Open(opts);
    EXPECT_TRUE(res.ok());
    return std::move(*res);
  };
  auto serial_db = open(1);
  auto par_db = open(4);
  const Schema schema = TestSchema();
  for (auto* db : {serial_db.get(), par_db.get()}) {
    ASSERT_TRUE(db->CreateTable("t", schema).ok());
    for (Key id = 0; id < 500; ++id)
      ASSERT_TRUE(
          db->InsertRow("t", TRow(id, id % 9, id % 2 ? "odd" : "even",
                                  id * 0.5))
              .ok());
    ASSERT_TRUE(db->ForceSyncAll().ok());
  }
  EXPECT_EQ(serial_db->ap_scan_pool(), nullptr);
  ASSERT_NE(par_db->ap_scan_pool(), nullptr);
  EXPECT_EQ(par_db->ap_scan_pool()->num_threads(), 4u);

  const std::vector<std::string> queries = {
      "SELECT id, price FROM t WHERE v >= 5 ORDER BY id",
      "SELECT cat, COUNT(*) AS n, SUM(price) AS s FROM t GROUP BY cat "
      "ORDER BY cat",
      "SELECT COUNT(*) AS n, MIN(price) AS mn, MAX(price) AS mx FROM t",
  };
  for (const std::string& q : queries) {
    auto a = serial_db->ExecuteSql(q);
    auto b = par_db->ExecuteSql(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(a->rows, b->rows) << q;
  }
}

}  // namespace
}  // namespace htap
