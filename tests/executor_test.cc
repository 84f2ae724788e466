// Execution-layer tests: predicate evaluation and zone-map skipping,
// row/HTAP scans, hash join, hash aggregation, sort/limit, projection.

#include <gtest/gtest.h>

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

TEST(PredicateTest, EvalBasics) {
  const Row r = TRow(1, 10, "a", 2.5);
  EXPECT_TRUE(Predicate::Eq(0, Value(int64_t{1})).Eval(r));
  EXPECT_FALSE(Predicate::Eq(0, Value(int64_t{2})).Eval(r));
  EXPECT_TRUE(Predicate::Gt(3, Value(2.0)).Eval(r));
  EXPECT_TRUE(Predicate::Eq(2, Value("a")).Eval(r));
  EXPECT_TRUE(Predicate::And({Predicate::Ge(1, Value(int64_t{10})),
                              Predicate::Le(1, Value(int64_t{10}))})
                  .Eval(r));
  EXPECT_TRUE(Predicate::Or({Predicate::Eq(0, Value(int64_t{9})),
                             Predicate::Eq(2, Value("a"))})
                  .Eval(r));
  EXPECT_TRUE(Predicate::Not(Predicate::Eq(0, Value(int64_t{9}))).Eval(r));
  EXPECT_TRUE(Predicate::True().Eval(r));
  EXPECT_TRUE(Predicate::Between(1, Value(int64_t{5}), Value(int64_t{15})).Eval(r));
}

TEST(PredicateTest, NullComparisonsAreFalse) {
  Row r{Value(int64_t{1}), Value::Null(), Value("a"), Value(1.0)};
  EXPECT_FALSE(Predicate::Eq(1, Value(int64_t{0})).Eval(r));
  EXPECT_FALSE(Predicate::Ne(1, Value(int64_t{0})).Eval(r));
  EXPECT_FALSE(Predicate::Lt(1, Value(int64_t{100})).Eval(r));
}

TEST(PredicateTest, ConjunctsFlattenNestedAnds) {
  auto p = Predicate::And(
      {Predicate::Eq(0, Value(int64_t{1})),
       Predicate::And({Predicate::Gt(1, Value(int64_t{2})),
                       Predicate::Lt(1, Value(int64_t{9}))})});
  EXPECT_EQ(p.Conjuncts().size(), 3u);
  EXPECT_EQ(Predicate::True().Conjuncts().size(), 0u);
}

TEST(PredicateTest, ReferencedColumnsDeduplicated) {
  auto p = Predicate::And({Predicate::Gt(1, Value(int64_t{0})),
                           Predicate::Lt(1, Value(int64_t{9})),
                           Predicate::Eq(3, Value(1.0))});
  const auto cols = p.ReferencedColumns();
  EXPECT_EQ(cols.size(), 2u);
}

TEST(PredicateTest, ToStringReadable) {
  Schema s = TestSchema();
  auto p = Predicate::And({Predicate::Ge(1, Value(int64_t{5})),
                           Predicate::Eq(2, Value("x"))});
  EXPECT_EQ(p.ToString(&s), "(v >= 5 AND cat = x)");
}

class ScanTest : public ::testing::Test {
 protected:
  ScanTest() : store_(1, TestSchema(), &mgr_, nullptr), table_(TestSchema()) {
    auto t = mgr_.Begin();
    for (int i = 0; i < 100; ++i) {
      const Row r = TRow(i, i % 10, i % 2 ? "odd" : "even", i * 1.5);
      store_.Insert(t.get(), r);
      rows_.push_back(r);
    }
    mgr_.Commit(t.get());
    // Column store gets the same rows in two groups.
    table_.AppendBatch({rows_.begin(), rows_.begin() + 50}, 1);
    table_.AppendBatch({rows_.begin() + 50, rows_.end()}, 2);
  }

  TransactionManager mgr_;
  MvccRowStore store_;
  ColumnTable table_;
  std::vector<Row> rows_;
};

TEST_F(ScanTest, RowScanWithPredicateAndProjection) {
  const auto out = ScanRowStore(store_, mgr_.CurrentSnapshot(),
                                Predicate::Eq(1, Value(int64_t{3})), {0, 3});
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0].size(), 2u);
}

TEST_F(ScanTest, ColumnScanMatchesRowScan) {
  const auto pred = Predicate::And({Predicate::Ge(0, Value(int64_t{20})),
                                    Predicate::Eq(2, Value("even"))});
  auto row_out = ScanRowStore(store_, mgr_.CurrentSnapshot(), pred, {});
  auto col_out = ScanHtap(table_, nullptr, kMaxCSN - 1, pred, {});
  auto key_of = [](const Row& r) { return r.Get(0).AsInt64(); };
  std::sort(row_out.begin(), row_out.end(),
            [&](const Row& a, const Row& b) { return key_of(a) < key_of(b); });
  std::sort(col_out.begin(), col_out.end(),
            [&](const Row& a, const Row& b) { return key_of(a) < key_of(b); });
  EXPECT_EQ(row_out, col_out);
}

TEST_F(ScanTest, ZoneMapSkipsGroups) {
  ScanStats stats;
  // Keys 0..49 in group 0, 50..99 in group 1: id >= 80 skips group 0.
  const auto out = ScanHtap(table_, nullptr, kMaxCSN - 1,
                            Predicate::Ge(0, Value(int64_t{80})), {}, &stats);
  EXPECT_EQ(out.size(), 20u);
  EXPECT_EQ(stats.groups_total, 2u);
  EXPECT_EQ(stats.groups_skipped, 1u);
}

TEST_F(ScanTest, DeltaUnionOverridesMain) {
  InMemoryDeltaStore delta(TestSchema());
  DeltaEntry upd;
  upd.op = ChangeOp::kUpdate;
  upd.key = 10;
  upd.row = TRow(10, 777, "patched", 0.0);
  upd.csn = 50;
  delta.Append(upd);
  DeltaEntry del;
  del.op = ChangeOp::kDelete;
  del.key = 11;
  del.csn = 51;
  delta.Append(del);
  DeltaEntry ins;
  ins.op = ChangeOp::kInsert;
  ins.key = 1000;
  ins.row = TRow(1000, 1, "new", 9.9);
  ins.csn = 52;
  delta.Append(ins);

  ScanStats stats;
  const auto out = ScanHtap(table_, &delta, kMaxCSN - 1, Predicate::True(),
                            {}, &stats);
  EXPECT_EQ(out.size(), 100u);  // 100 - 1 delete + 1 insert
  EXPECT_EQ(stats.delta_rows_emitted, 2u);
  bool saw_patched = false, saw_11 = false;
  for (const Row& r : out) {
    if (r.Get(0).AsInt64() == 10) {
      EXPECT_EQ(r.Get(1).AsInt64(), 777);
      saw_patched = true;
    }
    if (r.Get(0).AsInt64() == 11) saw_11 = true;
  }
  EXPECT_TRUE(saw_patched);
  EXPECT_FALSE(saw_11);
}

TEST_F(ScanTest, DeltaSnapshotCutoff) {
  InMemoryDeltaStore delta(TestSchema());
  DeltaEntry del;
  del.op = ChangeOp::kDelete;
  del.key = 5;
  del.csn = 100;
  delta.Append(del);
  // Snapshot below the delete's CSN: row 5 still visible.
  const auto out = ScanHtap(table_, &delta, 99,
                            Predicate::Eq(0, Value(int64_t{5})), {});
  EXPECT_EQ(out.size(), 1u);
  const auto out2 = ScanHtap(table_, &delta, 100,
                             Predicate::Eq(0, Value(int64_t{5})), {});
  EXPECT_EQ(out2.size(), 0u);
}

TEST(HashJoinTest, InnerEquiJoin) {
  std::vector<Row> left = {Row{Value(int64_t{1}), Value("a")},
                           Row{Value(int64_t{2}), Value("b")},
                           Row{Value(int64_t{2}), Value("b2")}};
  std::vector<Row> right = {Row{Value(int64_t{2}), Value(10.0)},
                            Row{Value(int64_t{3}), Value(30.0)}};
  const auto out = HashJoin(left, right, 0, 0);
  ASSERT_EQ(out.size(), 2u);
  for (const Row& r : out) {
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.Get(0).AsInt64(), 2);
    EXPECT_DOUBLE_EQ(r.Get(3).AsDouble(), 10.0);
  }
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  std::vector<Row> left = {Row{Value::Null(), Value("a")}};
  std::vector<Row> right = {Row{Value::Null(), Value(1.0)}};
  EXPECT_TRUE(HashJoin(left, right, 0, 0).empty());
}

TEST(HashAggregateTest, GlobalAggregates) {
  std::vector<Row> rows;
  for (int i = 1; i <= 10; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>(i))});
  const auto out = HashAggregate(
      rows, {}, {AggSpec::Count("n"), AggSpec::Sum(0, "s"),
                 AggSpec::Min(0, "mn"), AggSpec::Max(0, "mx"),
                 AggSpec::Avg(0, "avg")});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get(0).AsInt64(), 10);
  EXPECT_DOUBLE_EQ(out[0].Get(1).AsDouble(), 55.0);
  EXPECT_EQ(out[0].Get(2).AsInt64(), 1);
  EXPECT_EQ(out[0].Get(3).AsInt64(), 10);
  EXPECT_DOUBLE_EQ(out[0].Get(4).AsDouble(), 5.5);
}

TEST(HashAggregateTest, GroupByWithNullsAndEmptyInput) {
  std::vector<Row> rows = {Row{Value("a"), Value(int64_t{1})},
                           Row{Value("a"), Value::Null()},
                           Row{Value("b"), Value(int64_t{5})}};
  auto out = HashAggregate(rows, {0},
                           {AggSpec::Count("n"), AggSpec::Sum(1, "s")});
  ASSERT_EQ(out.size(), 2u);
  SortLimit(&out, 0, false, 0);
  EXPECT_EQ(out[0].Get(0).AsString(), "a");
  EXPECT_EQ(out[0].Get(1).AsInt64(), 2);       // COUNT counts null rows too
  EXPECT_DOUBLE_EQ(out[0].Get(2).AsDouble(), 1.0);  // SUM skips nulls

  const auto empty = HashAggregate({}, {}, {AggSpec::Count("n"),
                                            AggSpec::Sum(0, "s")});
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].Get(0).AsInt64(), 0);
  EXPECT_TRUE(empty[0].Get(1).is_null());
  EXPECT_TRUE(HashAggregate({}, {0}, {AggSpec::Count("n")}).empty());
}

TEST(SortLimitTest, OrdersAndTruncates) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i)
    rows.push_back(Row{Value(static_cast<int64_t>((i * 7) % 10))});
  SortLimit(&rows, 0, /*desc=*/true, /*limit=*/3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 9);
  EXPECT_EQ(rows[2].Get(0).AsInt64(), 7);
}

TEST(ProjectTest, ReordersColumns) {
  std::vector<Row> rows = {Row{Value(int64_t{1}), Value("x"), Value(2.0)}};
  const auto out = Project(rows, {2, 0});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].Get(0).AsDouble(), 2.0);
  EXPECT_EQ(out[0].Get(1).AsInt64(), 1);
}

}  // namespace
}  // namespace htap
