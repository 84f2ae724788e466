// Data-synchronization tests: the three DS strategies converge the column
// store to the row-store state; the delta/column-union invariant holds
// under randomized interleavings of commits, merges, and scans; the chunk
// merge agrees with an independent model on every delta store; the
// freshness tracker reports lag correctly.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "columnar/compression_advisor.h"
#include "common/random.h"
#include "exec/executor.h"
#include "sync/sync.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) { return Row{Value(id), Value(v)}; }

/// Reads the column store + delta union into a map.
std::map<Key, int64_t> HtapState(const ColumnTable& table,
                                 const DeltaReader* delta, CSN snap) {
  std::map<Key, int64_t> out;
  for (const Row& r : ScanHtap(table, delta, snap, Predicate::True(), {}))
    out[r.Get(0).AsInt64()] = r.Get(1).AsInt64();
  return out;
}

std::map<Key, int64_t> RowState(const MvccRowStore& store, const Snapshot& s) {
  std::map<Key, int64_t> out;
  store.Scan(s, [&](Key k, const Row& r) {
    out[k] = r.Get(1).AsInt64();
    return true;
  });
  return out;
}

TEST(SyncTest, InMemoryMergeConvergesColumnStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  auto delta = std::make_unique<InMemoryDeltaStore>(TestSchema());
  InMemoryDeltaStore* delta_ptr = delta.get();
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(delta.get()));

  struct Router : ChangeSink {
    InMemoryDeltaStore* d;
    EventRouter route;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      route.Route(evs, [&](uint32_t, TableEvents run) { d->AppendEvents(run); });
    }
  } router;
  router.d = delta_ptr;
  mgr.RegisterSink(&router);

  for (int i = 0; i < 100; ++i) {
    auto t = mgr.Begin();
    ASSERT_TRUE(rows.Insert(t.get(), MakeRow(i, i * 2)).ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());
  }
  EXPECT_EQ(delta_ptr->EntryCount(), 100u);
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(delta_ptr->EntryCount(), 0u);
  EXPECT_EQ(table.live_rows(), 100u);
  EXPECT_EQ(table.merged_csn(), mgr.LastCommittedCsn());
  EXPECT_EQ(sync.stats().merges, 1u);
  EXPECT_EQ(sync.stats().entries_merged, 100u);

  EXPECT_EQ(HtapState(table, delta_ptr, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));
}

TEST(SyncTest, LogMergeConvergesColumnStore) {
  LogDeltaStore delta(TestSchema());
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kLogMerge, &table,
      std::make_unique<DeltaSourceAdapter<LogDeltaStore>>(&delta));

  std::vector<DeltaEntry> file;
  for (CSN c = 1; c <= 50; ++c) {
    DeltaEntry e;
    e.op = ChangeOp::kInsert;
    e.key = static_cast<Key>(c);
    e.row = MakeRow(e.key, static_cast<int64_t>(c));
    e.csn = c;
    file.push_back(e);
  }
  delta.AppendFile(file);
  ASSERT_TRUE(sync.SyncTo(50).ok());
  EXPECT_EQ(table.live_rows(), 50u);
  EXPECT_EQ(delta.num_files(), 0u);
}

TEST(SyncTest, RebuildFromPrimaryMatchesRowStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  ColumnTable table(TestSchema());
  DataSynchronizer sync(&table, &rows);
  EXPECT_EQ(sync.strategy(), SyncStrategy::kRebuild);

  for (int i = 0; i < 60; ++i) {
    auto t = mgr.Begin();
    rows.Insert(t.get(), MakeRow(i, i));
    mgr.Commit(t.get());
  }
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(table.live_rows(), 60u);
  EXPECT_EQ(sync.stats().rows_loaded, 60u);

  // Mutate, rebuild again: the column store reflects the new state fully.
  auto t = mgr.Begin();
  rows.Delete(t.get(), 0);
  rows.Update(t.get(), MakeRow(1, 999));
  mgr.Commit(t.get());
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(HtapState(table, nullptr, kMaxCSN - 1),
            RowState(rows, mgr.CurrentSnapshot()));
}

TEST(SyncTest, MergeChunkFoldsBatch) {
  ColumnTable table(TestSchema());
  ChangeChunk chunk(TestSchema());
  auto add = [&](ChangeOp op, Key k, int64_t v, CSN c) {
    chunk.Append(op, k, c, op == ChangeOp::kDelete ? Row() : MakeRow(k, v));
  };
  add(ChangeOp::kInsert, 1, 1, 1);
  add(ChangeOp::kUpdate, 1, 2, 2);   // folded over the insert
  add(ChangeOp::kInsert, 2, 5, 3);
  add(ChangeOp::kDelete, 2, 0, 4);   // cancels the insert
  add(ChangeOp::kInsert, 3, 7, 5);
  MergeChunkIntoColumnTable(&table, std::move(chunk), 5);
  EXPECT_EQ(table.live_rows(), 2u);
  EXPECT_EQ(table.merged_csn(), 5u);
  size_t gi, off;
  ASSERT_TRUE(table.FindKey(1, &gi, &off));
  EXPECT_EQ(table.MaterializeRow(*table.group(gi), off).Get(1).AsInt64(), 2);
  EXPECT_FALSE(table.FindKey(2, &gi, &off));
}

TEST(SyncTest, SyncToIsIdempotent) {
  ColumnTable table(TestSchema());
  InMemoryDeltaStore delta(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));
  DeltaEntry e;
  e.op = ChangeOp::kInsert;
  e.key = 1;
  e.row = MakeRow(1, 1);
  e.csn = 1;
  delta.Append(e);
  ASSERT_TRUE(sync.SyncTo(1).ok());
  ASSERT_TRUE(sync.SyncTo(1).ok());  // no-op: target already reached
  EXPECT_EQ(sync.stats().merges, 1u);
}

// The central HTAP invariant: at every point in a random interleaving of
// committed writes and merges, scan(main) ⊎ delta == row-store state.
TEST(SyncTest, PropertyDeltaColumnUnionEqualsRowStore) {
  TransactionManager mgr;
  MvccRowStore rows(1, TestSchema(), &mgr, nullptr);
  InMemoryDeltaStore delta(TestSchema());
  ColumnTable table(TestSchema());
  DataSynchronizer sync(
      SyncStrategy::kInMemoryMerge, &table,
      std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(&delta));

  struct Router : ChangeSink {
    InMemoryDeltaStore* d;
    EventRouter route;
    void OnCommit(const std::vector<ChangeEvent>& evs) override {
      route.Route(evs, [&](uint32_t, TableEvents run) { d->AppendEvents(run); });
    }
  } router;
  router.d = &delta;
  mgr.RegisterSink(&router);

  Random rng(2024);
  std::map<Key, int64_t> live;
  for (int step = 0; step < 800; ++step) {
    auto t = mgr.Begin();
    const Key k = static_cast<Key>(rng.Uniform(40));
    Status st;
    if (live.count(k) == 0) {
      st = rows.Insert(t.get(), MakeRow(k, step));
      if (st.ok()) live[k] = step;
    } else if (rng.Bernoulli(0.25)) {
      st = rows.Delete(t.get(), k);
      if (st.ok()) live.erase(k);
    } else {
      st = rows.Update(t.get(), MakeRow(k, step));
      if (st.ok()) live[k] = step;
    }
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(mgr.Commit(t.get()).ok());

    if (rng.Bernoulli(0.1))
      ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());

    if (step % 37 == 0) {
      ASSERT_EQ(HtapState(table, &delta, mgr.LastCommittedCsn()), live)
          << "divergence at step " << step;
    }
  }
  // Final full merge: pure column scan (no delta) must also agree.
  ASSERT_TRUE(sync.SyncTo(mgr.LastCommittedCsn()).ok());
  EXPECT_EQ(HtapState(table, nullptr, mgr.LastCommittedCsn()), live);
}

// ---- Chunk merge against an independent model ----------------------------
//
// Seeded random insert/update/delete streams go through each delta store's
// commit path (EventRouter -> AppendEvents) and DataSynchronizer::SyncTo
// with random CSN targets. After every sync the column store, its segment
// encodings and its published statistics are checked against a model the
// test keeps itself: a std::map of merged rows and a per-entry fold of
// boxed Values (the row-at-a-time statistics loop).

Schema WideSchema() {
  return Schema({{"id", Type::kInt64},
                 {"i", Type::kInt64},
                 {"d", Type::kDouble},
                 {"s", Type::kString}});
}

/// Same scalar, same type, same bits (NULL equals NULL).
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Type::kInt64: return a.AsInt64() == b.AsInt64();
    case Type::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(double)) == 0;
    }
    case Type::kString: return a.AsString() == b.AsString();
  }
  return false;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!SameValue(a.Get(i), b.Get(i))) return false;
  return true;
}

/// The reference statistics fold: every upserted row's boxed Values in
/// commit order, min/max by Value ordering, NDV from the k smallest
/// distinct Value::Hash()es in a std::set.
class ReferenceStats {
 public:
  explicit ReferenceStats(size_t ncols) : cols_(ncols) {}

  void AddRow(const Row& row) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      Acc& acc = cols_[c];
      const Value& v = row.Get(c);
      if (v.is_null()) {
        ++acc.nulls;
        continue;
      }
      acc.mins.insert(v.Hash());
      if (acc.mins.size() > kK) acc.mins.erase(std::prev(acc.mins.end()));
      acc.width_sum +=
          v.is_string() ? static_cast<double>(v.AsString().size()) : 8.0;
      ++acc.values;
      if (!acc.has_bounds) {
        acc.min = v;
        acc.max = v;
        acc.has_bounds = true;
      } else {
        if (v < acc.min) acc.min = v;
        if (acc.max < v) acc.max = v;
      }
    }
  }

  void Reset() {
    for (Acc& acc : cols_) acc = Acc();
  }

  TableStats Snapshot(size_t row_count) const {
    TableStats st;
    st.row_count = row_count;
    for (const Acc& acc : cols_) {
      ColumnStats cs;
      if (acc.has_bounds) {
        cs.min = acc.min;
        cs.max = acc.max;
      }
      double ndv = static_cast<double>(acc.mins.size());
      if (acc.mins.size() >= kK && *acc.mins.rbegin() > 0)
        ndv = (static_cast<double>(kK) - 1.0) * 18446744073709551616.0 /
              static_cast<double>(*acc.mins.rbegin());
      cs.ndv = std::max(1.0, ndv);
      const size_t seen = acc.values + acc.nulls;
      cs.null_frac = seen == 0 ? 0 : static_cast<double>(acc.nulls) / seen;
      cs.avg_width = acc.values == 0
                         ? 8
                         : acc.width_sum / static_cast<double>(acc.values);
      st.columns.push_back(cs);
    }
    return st;
  }

 private:
  static constexpr size_t kK = KmvSketch::kDefaultK;
  struct Acc {
    Value min, max;
    bool has_bounds = false;
    std::set<uint64_t> mins;
    size_t values = 0, nulls = 0;
    double width_sum = 0;
  };
  std::vector<Acc> cols_;
};

void ExpectSameStats(const TableStats& got, const TableStats& want,
                     const std::string& where) {
  ASSERT_EQ(got.row_count, want.row_count) << where;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << where;
  for (size_t c = 0; c < got.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    EXPECT_TRUE(SameValue(g.min, w.min))
        << where << " col " << c << " min " << g.min.ToString() << " vs "
        << w.min.ToString();
    EXPECT_TRUE(SameValue(g.max, w.max))
        << where << " col " << c << " max " << g.max.ToString() << " vs "
        << w.max.ToString();
    EXPECT_TRUE(SameBits(g.ndv, w.ndv))
        << where << " col " << c << " ndv " << g.ndv << " vs " << w.ndv;
    EXPECT_TRUE(SameBits(g.null_frac, w.null_frac)) << where << " col " << c;
    EXPECT_TRUE(SameBits(g.avg_width, w.avg_width)) << where << " col " << c;
  }
}

enum class StoreKind { kInMemory, kL1L2, kLog };

/// One delta store behind the engines' commit routing.
struct StoreUnderTest {
  explicit StoreUnderTest(StoreKind kind) {
    switch (kind) {
      case StoreKind::kInMemory:
        mem = std::make_unique<InMemoryDeltaStore>(WideSchema());
        break;
      case StoreKind::kL1L2:
        // A small spill threshold: L2 chunks straddle commits, so CSN cuts
        // land inside them.
        l1l2 = std::make_unique<L1L2DeltaStore>(WideSchema(), 5);
        break;
      case StoreKind::kLog:
        log = std::make_unique<LogDeltaStore>(WideSchema());
        break;
    }
  }

  /// Publishes one commit; only table 1's events reach the store.
  void Commit(const std::vector<ChangeEvent>& events) {
    router.Route(events, [&](uint32_t tid, TableEvents run) {
      if (tid != 1) return;
      if (mem) mem->AppendEvents(run);
      if (l1l2) l1l2->AppendEvents(run);
      if (log) log->AppendEvents(run);
    });
  }

  const DeltaReader* reader() const {
    if (mem) return mem.get();
    if (l1l2) return l1l2.get();
    return log.get();
  }

  std::unique_ptr<DeltaSource> Source() {
    if (mem) return std::make_unique<DeltaSourceAdapter<InMemoryDeltaStore>>(mem.get());
    if (l1l2) return std::make_unique<DeltaSourceAdapter<L1L2DeltaStore>>(l1l2.get());
    return std::make_unique<DeltaSourceAdapter<LogDeltaStore>>(log.get());
  }

  EventRouter router;
  std::unique_ptr<InMemoryDeltaStore> mem;
  std::unique_ptr<L1L2DeltaStore> l1l2;
  std::unique_ptr<LogDeltaStore> log;
};

Row RandomWideRow(Random* rng, Key id) {
  const auto maybe_null = [&](Value v) {
    return rng->Bernoulli(0.2) ? Value() : std::move(v);
  };
  static const char* const kWords[] = {"alpha", "beta", "gamma", "delta",
                                       "", "a-much-longer-string-payload"};
  // Half the ints come from a wide range so the NDV sketch fills past k.
  const int64_t i = rng->Bernoulli(0.5) ? rng->UniformRange(0, 40)
                                        : rng->UniformRange(0, 1000000);
  return Row{Value(id), maybe_null(Value(i)),
             maybe_null(Value(static_cast<double>(rng->Uniform(400)) * 0.25)),
             maybe_null(rng->Bernoulli(0.8)
                            ? Value(kWords[rng->Uniform(6)])
                            : Value(std::to_string(rng->Uniform(5000)) + "w"))};
}

std::map<Key, Row> ColumnStoreRows(const ColumnTable& table) {
  std::map<Key, Row> out;
  for (Row& r : ScanHtap(table, nullptr, kMaxCSN - 1, Predicate::True(), {}))
    out.emplace(r.Get(0).AsInt64(), std::move(r));
  return out;
}

std::map<Key, Row> UnionRows(const ColumnTable& table, const DeltaReader* d,
                             CSN snap) {
  std::map<Key, Row> out;
  for (Row& r : ScanHtap(table, d, snap, Predicate::True(), {}))
    out.emplace(r.Get(0).AsInt64(), std::move(r));
  return out;
}

void ExpectSameRows(const std::map<Key, Row>& got,
                    const std::map<Key, Row>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (const auto& [k, row] : want) {
    const auto it = got.find(k);
    ASSERT_NE(it, got.end()) << where << " missing key " << k;
    EXPECT_TRUE(SameRow(it->second, row))
        << where << " key " << k << ": " << it->second.ToString() << " vs "
        << row.ToString();
  }
}

class MergeModelTest
    : public ::testing::TestWithParam<std::tuple<StoreKind, uint64_t>> {};

TEST_P(MergeModelTest, ColumnStoreEncodingsAndStatsMatchModel) {
  const auto [kind, seed] = GetParam();
  constexpr size_t kCompactAfterDeletes = 6;
  StoreUnderTest store(kind);
  ColumnTable table(WideSchema());
  table.EnableCompressionAdvisor(true);
  DataSynchronizer sync(kind == StoreKind::kLog ? SyncStrategy::kLogMerge
                                                : SyncStrategy::kInMemoryMerge,
                        &table, store.Source());
  TableStats published;
  CSN published_csn = 0;
  sync.EnableStatsMaintenance(
      [&](const TableStats& st, CSN as_of) {
        published = st;
        published_csn = as_of;
      },
      kCompactAfterDeletes);

  Random rng(seed);
  CSN csn = 0, merged_csn = 0;
  std::map<Key, Row> committed;  // the row-store truth
  std::map<Key, Row> merged;     // what the column store must hold
  std::deque<DeltaEntry> pending;
  ReferenceStats ref(WideSchema().num_columns());
  size_t deletes_since_recompute = 0;
  size_t merges = 0, empty_drains = 0, reinserts = 0;

  for (int step = 0; step < 1500; ++step) {
    const std::string where = "step " + std::to_string(step);
    const uint64_t r = rng.Uniform(10);
    if (r < 7) {
      // One commit: 1-4 changes on distinct keys, hot keys repeating
      // across commits, plus a change to another table now and then.
      ++csn;
      std::vector<ChangeEvent> evs;
      std::set<Key> touched;
      const uint64_t n = 1 + rng.Uniform(4);
      for (uint64_t j = 0; j < n; ++j) {
        const Key k = static_cast<Key>(
            rng.Bernoulli(0.7) ? rng.Uniform(16) : rng.Uniform(600));
        if (!touched.insert(k).second) continue;
        ChangeEvent ev;
        ev.table_id = 1;
        ev.key = k;
        ev.csn = csn;
        if (committed.count(k) == 0) {
          ev.op = ChangeOp::kInsert;
          ev.row = RandomWideRow(&rng, k);
          committed[k] = ev.row;
        } else if (rng.Bernoulli(0.3)) {
          ev.op = ChangeOp::kDelete;
          committed.erase(k);
        } else {
          ev.op = ChangeOp::kUpdate;
          ev.row = RandomWideRow(&rng, k);
          committed[k] = ev.row;
        }
        pending.push_back(DeltaEntry{ev.op, ev.key, ev.row, ev.csn});
        evs.push_back(std::move(ev));
        if (rng.Bernoulli(0.2)) {
          ChangeEvent other;
          other.table_id = 2;
          other.key = k;
          other.row = Row{Value(k)};
          other.csn = csn;
          evs.push_back(std::move(other));
        }
      }
      store.Commit(evs);
    } else if (r == 7) {
      ++csn;  // a commit to another table only
      std::vector<ChangeEvent> evs(1);
      evs[0].table_id = 2;
      evs[0].csn = csn;
      evs[0].row = Row{Value(int64_t{0})};
      store.Commit(evs);
    } else {
      // Sync to a random CSN at or after the cursor: cuts fall mid-chunk,
      // and a target past every staged entry can drain nothing.
      const CSN target = merged_csn + rng.Uniform(csn - merged_csn + 1);
      ASSERT_TRUE(sync.SyncTo(target).ok());
      if (target > merged_csn) {
        size_t drained = 0;
        std::map<Key, int> ops_in_drain;
        while (!pending.empty() && pending.front().csn <= target) {
          const DeltaEntry& e = pending.front();
          if (e.op == ChangeOp::kDelete) {
            ++deletes_since_recompute;
            merged.erase(e.key);
            ops_in_drain[e.key] = -1;
          } else {
            ref.AddRow(e.row);
            merged[e.key] = e.row;
            if (ops_in_drain[e.key] < 0) ++reinserts;
          }
          pending.pop_front();
          ++drained;
        }
        if (deletes_since_recompute > kCompactAfterDeletes) {
          ref.Reset();
          for (const auto& [k, row] : merged) ref.AddRow(row);
          deletes_since_recompute = 0;
        }
        merged_csn = target;
        ++merges;
        if (drained == 0) ++empty_drains;
        ASSERT_EQ(published_csn, target) << where;
        ExpectSameStats(published, ref.Snapshot(merged.size()), where);
      }
      EXPECT_EQ(table.merged_csn(), merged_csn) << where;
      EXPECT_EQ(table.live_rows(), merged.size()) << where;
      ExpectSameRows(ColumnStoreRows(table), merged, where);
      for (size_t g = 0; g < table.num_groups(); ++g) {
        for (const Segment& seg : table.group(g)->columns)
          EXPECT_EQ(seg.encoding(), AdviseEncoding(seg.Decode()).chosen)
              << where << " group " << g;
      }
      ExpectSameRows(UnionRows(table, store.reader(), csn), committed, where);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
  // The stream must have exercised what the model is for.
  EXPECT_GT(merges, 50u);
  EXPECT_GT(empty_drains, 0u);
  EXPECT_GT(reinserts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDeltaStores, MergeModelTest,
    ::testing::Combine(::testing::Values(StoreKind::kInMemory,
                                         StoreKind::kL1L2, StoreKind::kLog),
                       ::testing::Values(uint64_t{7}, uint64_t{42},
                                         uint64_t{2026})));

TEST(FreshnessTrackerTest, LagReflectsUnmergedCommits) {
  VirtualClock clock;
  FreshnessTracker tracker(&clock);
  std::vector<ChangeEvent> evs(1);
  evs[0].csn = 10;
  clock.AdvanceTo(1000);
  tracker.OnCommit(evs);
  clock.AdvanceTo(5000);

  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/9), 4000);
  EXPECT_EQ(tracker.TimeLagMicros(/*visible=*/10), 0);
  EXPECT_EQ(tracker.CsnLag(10, 4), 6u);
  EXPECT_EQ(tracker.CsnLag(10, 10), 0u);
}

}  // namespace
}  // namespace htap
