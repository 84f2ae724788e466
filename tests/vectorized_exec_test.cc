// Vectorized execution tests (DESIGN.md §12): compressed-domain predicate
// evaluation must make exactly the scalar Value::Compare decisions on every
// encoding, gather must materialize selections losslessly, and the batch
// pipeline (ScanHtapBatches -> FilterBatch / batch HashAggregate / extracted
// join keys) must be byte-identical to the row-at-a-time operators — serial
// and parallel — hash aggregation must match a plain-loop reference, plus
// the compression advisor's size-based encoding picks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "columnar/compression_advisor.h"
#include "core/database.h"
#include "exec/executor.h"
#include "exec/segment_filter.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64},
                 {"v", Type::kInt64},
                 {"cat", Type::kString},
                 {"price", Type::kDouble}});
}

Row TRow(Key id, int64_t v, const std::string& cat, double price) {
  return Row{Value(id), Value(v), Value(cat), Value(price)};
}

std::vector<uint32_t> AllSel(size_t n) {
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

// The scalar reference the compressed-domain paths must reproduce exactly.
std::vector<uint32_t> RefFilter(const ColumnVector& v,
                                const std::vector<uint32_t>& sel, CmpOp op,
                                const Value& lit) {
  std::vector<uint32_t> out;
  for (uint32_t i : sel) {
    if (v.IsNull(i) || lit.is_null()) continue;
    if (CmpKeep(v.GetValue(i).Compare(lit), op)) out.push_back(i);
  }
  return out;
}

const CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
const EncodingType kAllEncodings[] = {EncodingType::kPlain,
                                      EncodingType::kDictionary,
                                      EncodingType::kRle,
                                      EncodingType::kForBitPack};

ColumnVector IntShape() {
  ColumnVector v(Type::kInt64);
  for (int i = 0; i < 600; ++i) {
    if (i % 13 == 5)
      v.AppendNull();
    else
      v.AppendInt64((i / 25) % 12);  // runs + narrow range + repeats
  }
  return v;
}

ColumnVector StringShape() {
  ColumnVector v(Type::kString);
  const char* tags[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 400; ++i) {
    if (i % 17 == 2)
      v.AppendNull();
    else
      v.AppendString(tags[(i / 20) % 3]);
  }
  return v;
}

ColumnVector DoubleShape() {
  ColumnVector v(Type::kDouble);
  for (int i = 0; i < 300; ++i) {
    if (i % 11 == 7)
      v.AppendNull();
    else
      v.AppendDouble((i % 40) * 0.25);
  }
  return v;
}

TEST(SegmentFilterTest, MatchesScalarReferenceOnEveryEncoding) {
  struct Case {
    ColumnVector values;
    std::vector<Value> literals;
  };
  std::vector<Case> cases;
  cases.push_back({IntShape(),
                   {Value(int64_t{0}), Value(int64_t{7}), Value(int64_t{99}),
                    Value(4.5), Value(5.0), Value::Null()}});
  cases.push_back({StringShape(),
                   {Value("beta"), Value("aaaa"), Value("zzz"),
                    Value::Null()}});
  cases.push_back({DoubleShape(),
                   {Value(0.25), Value(5.0), Value(-1.0), Value(int64_t{3}),
                    Value::Null()}});
  for (const Case& c : cases) {
    // A partial input selection exercises the refinement contract.
    std::vector<uint32_t> sparse;
    for (size_t i = 0; i < c.values.size(); i += 3)
      sparse.push_back(static_cast<uint32_t>(i));
    for (EncodingType e : kAllEncodings) {
      const Segment seg = Segment::BuildWithEncoding(c.values, e);
      for (CmpOp op : kAllOps) {
        for (const Value& lit : c.literals) {
          SCOPED_TRACE(std::string(EncodingName(e)) + " " + CmpOpName(op) +
                       " " + lit.ToString());
          for (const std::vector<uint32_t>* base :
               {static_cast<const std::vector<uint32_t>*>(&sparse),
                static_cast<const std::vector<uint32_t>*>(nullptr)}) {
            std::vector<uint32_t> sel =
                base != nullptr ? *base : AllSel(c.values.size());
            const std::vector<uint32_t> expect =
                RefFilter(c.values, sel, op, lit);
            FilterSegmentSelection(seg, op, lit, &sel);
            ASSERT_EQ(sel, expect);
            // The zone-map skip test may only claim "skip" when the
            // exhaustive result is empty.
            if (SegmentCanSkip(seg, op, lit)) EXPECT_TRUE(expect.empty());
          }
        }
      }
    }
  }
}

TEST(SegmentFilterTest, GatherMaterializesSelectionLosslessly) {
  const ColumnVector shapes[] = {IntShape(), StringShape(), DoubleShape()};
  for (const ColumnVector& v : shapes) {
    std::vector<uint32_t> sel;
    for (size_t i = 0; i < v.size(); ++i)
      if (i % 3 == 0 || i % 13 == 5) sel.push_back(static_cast<uint32_t>(i));
    for (EncodingType e : kAllEncodings) {
      const Segment seg = Segment::BuildWithEncoding(v, e);
      ColumnVector out(v.type());
      GatherSegment(seg, sel, &out);
      ASSERT_EQ(out.size(), sel.size()) << EncodingName(e);
      for (size_t k = 0; k < sel.size(); ++k)
        ASSERT_EQ(out.GetValue(k), v.GetValue(sel[k]))
            << EncodingName(e) << " pos " << sel[k];
    }
  }
}

TEST(BatchTest, FilterBatchMatchesPredicateEval) {
  ColumnBatch batch;
  batch.columns.emplace_back(IntShape());
  ColumnVector s(Type::kString);
  ColumnVector d(Type::kDouble);
  const char* tags[] = {"x", "y", "z"};
  for (size_t i = 0; i < batch.columns[0].size(); ++i) {
    if (i % 19 == 4)
      s.AppendNull();
    else
      s.AppendString(tags[i % 3]);
    d.AppendDouble(static_cast<double>(i % 50) * 0.5);
  }
  batch.columns.push_back(std::move(s));
  batch.columns.push_back(std::move(d));

  struct F {
    int col;
    CmpOp op;
    Value lit;
  };
  const std::vector<F> filters = {{0, CmpOp::kGe, Value(int64_t{4})},
                                  {1, CmpOp::kEq, Value("y")},
                                  {2, CmpOp::kLt, Value(12.0)},
                                  {1, CmpOp::kNe, Value::Null()}};
  for (const F& f : filters) {
    ColumnBatch b = batch;  // fresh all-active selection each time
    std::vector<uint32_t> expect =
        RefFilter(b.columns[f.col], AllSel(b.rows()), f.op, f.lit);
    FilterBatch(&b, f.col, f.op, f.lit);
    EXPECT_EQ(b.sel, expect);
    EXPECT_EQ(b.active(), expect.size());
  }
  // Chained filters refine the same selection.
  ColumnBatch b = batch;
  FilterBatch(&b, 0, CmpOp::kGe, Value(int64_t{4}));
  FilterBatch(&b, 1, CmpOp::kEq, Value("y"));
  std::vector<uint32_t> expect =
      RefFilter(batch.columns[0], AllSel(batch.rows()), CmpOp::kGe,
                Value(int64_t{4}));
  expect = RefFilter(batch.columns[1], expect, CmpOp::kEq, Value("y"));
  EXPECT_EQ(b.sel, expect);
}

// Shared fixture: a multi-group table with positional deletes and a delta
// carrying updates, a delete, and inserts — the full HTAP union shape.
class VectorizedScanTest : public ::testing::Test {
 protected:
  VectorizedScanTest()
      : table_(TestSchema()), delta_(TestSchema()), pool_(4, "vec-ap") {
    std::vector<Row> batch;
    for (Key id = 0; id < 512; ++id) {
      batch.push_back(TRow(id, id % 13, id % 2 ? "odd" : "even", id * 0.25));
      if (batch.size() == 64) {
        table_.AppendBatch(batch, 1);
        batch.clear();
      }
    }
    for (Key id = 7; id < 512; id += 31) table_.DeleteKey(id, 2);
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

  ExecContext Serial(size_t batch_rows = 4096) {
    ExecContext e;
    e.batch_rows = batch_rows;
    return e;
  }
  ExecContext Par(size_t batch_rows = 4096) {
    ExecContext e{&pool_, 4};
    e.batch_rows = batch_rows;
    return e;
  }

  ColumnTable table_;
  InMemoryDeltaStore delta_;
  ThreadPool pool_;
};

TEST_F(VectorizedScanTest, BatchesMatchRowScanByteForByte) {
  const std::vector<Predicate> preds = {
      Predicate::True(),
      Predicate::Ge(0, Value(int64_t{100})),
      Predicate::And({Predicate::Ge(1, Value(int64_t{3})),
                      Predicate::Eq(2, Value("odd"))}),
      Predicate::Eq(2, Value("patched")),
      Predicate::Gt(3, Value(100.0)),
      Predicate::Between(0, Value(int64_t{60}), Value(int64_t{70})),
  };
  for (const Predicate& pred : preds) {
    for (const std::vector<int>& proj :
         {std::vector<int>{}, std::vector<int>{0, 3}, std::vector<int>{2}}) {
      ScanStats row_st;
      const auto rows =
          ScanHtap(table_, &delta_, kMaxCSN - 1, pred, proj, &row_st);
      for (size_t batch_rows : {size_t{4096}, size_t{7}, size_t{0}}) {
        for (bool parallel : {false, true}) {
          SCOPED_TRACE(pred.ToString(nullptr) + " batch_rows=" +
                       std::to_string(batch_rows) +
                       (parallel ? " par" : " ser"));
          ScanStats st;
          const auto batches = ScanHtapBatches(
              table_, &delta_, kMaxCSN - 1, pred, proj,
              parallel ? Par(batch_rows) : Serial(batch_rows), &st);
          EXPECT_EQ(BatchesToRows(batches), rows);
          EXPECT_EQ(TotalActiveRows(batches), rows.size());
          EXPECT_EQ(st.groups_total, row_st.groups_total);
          EXPECT_EQ(st.groups_skipped, row_st.groups_skipped);
          EXPECT_EQ(st.main_rows_emitted, row_st.main_rows_emitted);
          EXPECT_EQ(st.delta_rows_emitted, row_st.delta_rows_emitted);
          if (batch_rows != 0) {
            for (const ColumnBatch& b : batches)
              EXPECT_LE(b.rows(), batch_rows);
          }
        }
      }
    }
  }
}

// Satellite of the typed-filter work: int64 and string columns must take
// the same decisions as generic row-at-a-time Predicate::Eval (the double
// fast path has this coverage in parallel_scan_test).
TEST_F(VectorizedScanTest, Int64AndStringFastPathsMatchGenericEval) {
  const std::vector<Predicate> preds = {
      Predicate::Lt(1, Value(int64_t{4})), Predicate::Ge(0, Value(int64_t{400})),
      Predicate::Eq(1, Value(int64_t{0})), Predicate::Ne(1, Value(int64_t{7})),
      Predicate::Gt(1, Value(2.5)),  // double literal vs int column
      Predicate::Eq(2, Value("odd")), Predicate::Ne(2, Value("even")),
      Predicate::Lt(2, Value("f")),  Predicate::Ge(2, Value("odd")),
  };
  const auto all =
      ScanHtap(table_, &delta_, kMaxCSN - 1, Predicate::True(), {});
  for (const Predicate& pred : preds) {
    std::vector<Row> expect;
    for (const Row& r : all)
      if (pred.Eval(r)) expect.push_back(r);
    EXPECT_EQ(ScanHtap(table_, &delta_, kMaxCSN - 1, pred, {}), expect)
        << pred.ToString(nullptr);
    EXPECT_EQ(BatchesToRows(ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                            pred, {}, Serial())),
              expect)
        << pred.ToString(nullptr);
  }
}

TEST_F(VectorizedScanTest, BatchAggregateMatchesRowAggregate) {
  const auto batches = ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                       Predicate::True(), {}, Serial(100));
  const auto rows = BatchesToRows(batches);
  const std::vector<AggSpec> aggs = {
      AggSpec::Count("n"), AggSpec::Sum(1, "s"), AggSpec::Min(3, "mn"),
      AggSpec::Max(3, "mx"), AggSpec::Avg(1, "avg")};
  auto less = [](const Row& a, const Row& b) {
    return a.ToString() < b.ToString();
  };
  for (const std::vector<int>& groups :
       {std::vector<int>{}, std::vector<int>{2}, std::vector<int>{1, 2}}) {
    auto expect = HashAggregate(rows, groups, aggs);
    std::sort(expect.begin(), expect.end(), less);
    for (bool parallel : {false, true}) {
      auto got =
          HashAggregate(batches, groups, aggs, parallel ? Par() : Serial());
      std::sort(got.begin(), got.end(), less);
      EXPECT_EQ(got, expect) << (parallel ? "parallel" : "serial");
    }
  }
  // Batches with refined selections aggregate only active positions.
  auto filtered = batches;
  for (ColumnBatch& b : filtered)
    FilterBatch(&b, 1, CmpOp::kGe, Value(int64_t{5}));
  std::vector<Row> kept;
  for (const Row& r : rows)
    if (Predicate::Ge(1, Value(int64_t{5})).Eval(r)) kept.push_back(r);
  auto expect = HashAggregate(kept, {2}, aggs);
  auto got = HashAggregate(filtered, {2}, aggs, Serial());
  std::sort(expect.begin(), expect.end(), less);
  std::sort(got.begin(), got.end(), less);
  EXPECT_EQ(got, expect);
  // Empty input still yields the one global-aggregate row.
  const auto empty = HashAggregate(std::vector<ColumnBatch>{}, {},
                                   {AggSpec::Count("n")}, Serial());
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].Get(0).AsInt64(), 0);
}

/// Exact image of a row: type tag plus value, doubles in hex-float, so
/// comparisons catch type changes and last-bit differences that Value's
/// cross-type numeric equality would forgive.
std::string ExactImage(const Row& r) {
  std::string out;
  char buf[64];
  for (const Value& v : r.values()) {
    if (v.is_null()) {
      out += "null|";
    } else if (v.is_int64()) {
      out += "i:" + std::to_string(v.AsInt64()) + "|";
    } else if (v.is_double()) {
      std::snprintf(buf, sizeof(buf), "d:%a|", v.AsDouble());
      out += buf;
    } else {
      out += "s:" + v.AsString() + "|";
    }
  }
  return out;
}

std::vector<std::string> SortedImages(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(ExactImage(r));
  std::sort(out.begin(), out.end());
  return out;
}

/// Plain-loop reference for HashAggregate, independent of its hashing:
/// groups keyed in a std::map by Value ordering (NULL keys form one group).
/// SQL semantics: COUNT(*) counts every row of the group, COUNT(col) its
/// non-NULL cells, and AVG divides the sum of the non-NULL numeric cells by
/// the number of non-NULL cells.
std::vector<Row> ReferenceAggregate(const std::vector<Row>& rows,
                                    const std::vector<int>& group_cols,
                                    const std::vector<AggSpec>& aggs) {
  struct Acc {
    int64_t count = 0;
    double sum = 0;
    bool any = false;
    Value min, max;
  };
  std::map<std::vector<Value>, std::vector<Acc>> groups;
  for (const Row& r : rows) {
    std::vector<Value> key;
    for (int c : group_cols) key.push_back(r.Get(static_cast<size_t>(c)));
    auto& accs = groups[key];
    accs.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = accs[a];
      if (aggs[a].column < 0) {
        ++acc.count;
        continue;
      }
      const Value& v = r.Get(static_cast<size_t>(aggs[a].column));
      if (v.is_null()) continue;
      ++acc.count;
      if (!v.is_string()) acc.sum += v.AsDouble();
      if (!acc.any || v < acc.min) acc.min = v;
      if (!acc.any || acc.max < v) acc.max = v;
      acc.any = true;
    }
  }
  if (groups.empty() && group_cols.empty())
    groups[{}] = std::vector<Acc>(aggs.size());
  std::vector<Row> out;
  for (const auto& [key, accs] : groups) {
    Row row(key);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[a];
      switch (aggs[a].fn) {
        case AggSpec::Fn::kCount: row.Append(Value(acc.count)); break;
        case AggSpec::Fn::kSum:
          row.Append(acc.any ? Value(acc.sum) : Value::Null());
          break;
        case AggSpec::Fn::kMin: row.Append(acc.any ? acc.min : Value()); break;
        case AggSpec::Fn::kMax: row.Append(acc.any ? acc.max : Value()); break;
        case AggSpec::Fn::kAvg:
          row.Append(acc.any ? Value(acc.sum / static_cast<double>(acc.count))
                             : Value::Null());
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

TEST(GroupTableTest, ManyGroupsNullsAndTypedStateMatchPlainLoopReference) {
  // 132k rows over 66,001 int64 group keys, each key in two rows far apart
  // (more than 65,536 groups, so the flat index grows many times, and every
  // group spans two parallel partial tables that must merge), NULL cells in
  // every column, string, int64 and double MIN/MAX, and int64/double
  // COUNT/SUM/AVG. Doubles are multiples of 0.25 with small magnitudes, so
  // every sum is exact in any order and the merge of the parallel tables
  // must reproduce the reference bit for bit.
  const Schema schema({{"g", Type::kInt64},
                       {"s", Type::kString},
                       {"i", Type::kInt64},
                       {"d", Type::kDouble}});
  constexpr int64_t kGroups = 66001;
  std::vector<Row> rows;
  for (int64_t n = 0; n < 2 * kGroups; ++n) {
    Row r{Value(n % kGroups), Value(std::to_string(1000 + (n * 7) % 1000)),
          Value((n * 31) % 1000 - 500),
          Value(static_cast<double>((n * 17) % 4096) * 0.25 - 300.0)};
    if (n % 97 == 0) r.Set(0, Value::Null());
    if (n % 89 == 0) r.Set(1, Value::Null());
    if (n % 11 == 0) r.Set(2, Value::Null());
    if (n % 13 == 0) r.Set(3, Value::Null());
    rows.push_back(std::move(r));
  }
  // Multi-column and string-key groupings run on a 20k-row prefix, which
  // keeps the reference cheap under the sanitizers.
  const std::vector<Row> prefix(rows.begin(), rows.begin() + 20000);
  const std::vector<AggSpec> aggs = {
      AggSpec::Count("n"),  AggSpec{AggSpec::Fn::kCount, 2, "n_i"},
      AggSpec::Sum(2, "si"), AggSpec::Sum(3, "sd"),
      AggSpec::Avg(2, "ai"), AggSpec::Avg(3, "ad"),
      AggSpec::Min(1, "mns"), AggSpec::Max(1, "mxs"),
      AggSpec::Min(3, "mnd"), AggSpec::Max(3, "mxd"),
      AggSpec::Min(2, "mni"), AggSpec::Max(2, "mxi")};
  ThreadPool pool(4, "agg-ap");
  ExecContext par;
  par.pool = &pool;
  par.max_parallelism = 4;
  const std::pair<const std::vector<Row>*, std::vector<int>> cases[] = {
      {&rows, {0}}, {&rows, {}}, {&prefix, {1}}, {&prefix, {1, 0}}};
  for (const auto& [input, groups] : cases) {
    SCOPED_TRACE("rows " + std::to_string(input->size()) + ", group columns " +
                 std::to_string(groups.size()));
    const auto batches = RowsToBatches(*input, schema, {}, 4096);
    const auto expect = SortedImages(ReferenceAggregate(*input, groups, aggs));
    EXPECT_EQ(SortedImages(HashAggregate(*input, groups, aggs)), expect);
    EXPECT_EQ(SortedImages(HashAggregate(*input, groups, aggs, par)), expect);
    EXPECT_EQ(SortedImages(HashAggregate(batches, groups, aggs, ExecContext{})),
              expect);
    EXPECT_EQ(SortedImages(HashAggregate(batches, groups, aggs, par)), expect);
  }
  // NULL group keys form exactly one group, holding every NULL-key row.
  const auto by_g = HashAggregate(RowsToBatches(rows, schema, {}, 4096), {0},
                                  {AggSpec::Count("n")}, par);
  EXPECT_GT(by_g.size(), size_t{65536});
  size_t null_groups = 0;
  for (const Row& r : by_g) {
    if (!r.Get(0).is_null()) continue;
    ++null_groups;
    EXPECT_EQ(r.Get(1).AsInt64(), (2 * kGroups + 96) / 97);
  }
  EXPECT_EQ(null_groups, 1u);
}

TEST_F(VectorizedScanTest, ExtractedJoinKeysMatchRowJoin) {
  std::vector<Row> probe, build;
  for (Key id = 0; id < 700; ++id) {
    Row r = TRow(id, id % 43, id % 2 ? "odd" : "even", id * 0.5);
    if (id % 19 == 6) r.Set(1, Value::Null());
    probe.push_back(std::move(r));
  }
  for (Key id = 0; id < 300; ++id) {
    Row r = TRow(id, id % 43, "b" + std::to_string(id % 5), 1.0);
    if (id % 23 == 3) r.Set(1, Value::Null());
    build.push_back(std::move(r));
  }
  for (int key_col : {1, 2}) {  // int keys and string keys
    const auto expect = HashJoinPairs(probe, build, key_col, key_col,
                                      ExecContext{});
    const JoinKeyColumn pk = ExtractJoinKeys(probe, key_col);
    const JoinKeyColumn bk = ExtractJoinKeys(build, key_col);
    for (bool parallel : {false, true}) {
      ExecContext exec = parallel ? Par() : Serial();
      exec.min_parallel_join_build = 1;
      JoinStats js;
      EXPECT_EQ(HashJoinPairsKeys(pk, bk, exec, &js), expect)
          << "col " << key_col << (parallel ? " par" : " ser");
      EXPECT_EQ(js.build_rows, build.size());
      EXPECT_EQ(js.probe_rows, probe.size());
    }
    // Narrow hash mask: collisions force the key-confirm path.
    ExecContext masked;
    masked.join_hash_mask = 0x7;
    EXPECT_EQ(HashJoinPairsKeys(pk, bk, masked, nullptr), expect);
  }
  // Keys extracted from scan batches equal keys extracted from the rows.
  const auto batches = ScanHtapBatches(table_, &delta_, kMaxCSN - 1,
                                       Predicate::True(), {}, Serial(64));
  const auto scan_rows = BatchesToRows(batches);
  const JoinKeyColumn from_batches = ExtractJoinKeys(batches, 2);
  const JoinKeyColumn from_rows = ExtractJoinKeys(scan_rows, 2);
  ASSERT_EQ(from_batches.size(), from_rows.size());
  EXPECT_EQ(
      HashJoinPairsKeys(from_batches, ExtractJoinKeys(build, 2), Serial()),
      HashJoinPairsKeys(from_rows, ExtractJoinKeys(build, 2), Serial()));
}

TEST(JoinKeyColumnTest, MixedTypeKeysFallBackToBoxedValues) {
  // One key column mixing ints, doubles, and strings — the typed pass must
  // detect it and reproduce Value::operator== semantics (cross-type numeric
  // equality included).
  std::vector<Row> probe = {
      Row{Value(int64_t{1}), Value(int64_t{5})},
      Row{Value(int64_t{2}), Value(5.0)},
      Row{Value(int64_t{3}), Value("5")},
      Row{Value(int64_t{4}), Value::Null()},
      Row{Value(int64_t{5}), Value(2.5)},
  };
  std::vector<Row> build = {
      Row{Value(int64_t{10}), Value(5.0)},
      Row{Value(int64_t{11}), Value(int64_t{5})},
      Row{Value(int64_t{12}), Value("5")},
      Row{Value(int64_t{13}), Value::Null()},
  };
  const JoinKeyColumn pk = ExtractJoinKeys(probe, 1);
  const JoinKeyColumn bk = ExtractJoinKeys(build, 1);
  EXPECT_TRUE(pk.mixed);
  const auto expect = HashJoinPairs(probe, build, 1, 1, ExecContext{});
  EXPECT_EQ(HashJoinPairsKeys(pk, bk, ExecContext{}), expect);
  // NULL keys never matched.
  for (const auto& [p, b] : expect) {
    EXPECT_NE(p, 3u);
    EXPECT_NE(b, 3u);
  }
}

TEST(CompressionAdvisorTest, CollectSegmentStatsCounts) {
  ColumnVector v(Type::kString);
  v.AppendString("a");
  v.AppendString("a");
  v.AppendNull();
  v.AppendString("b");
  v.AppendString("b");
  v.AppendString("a");
  const SegmentValueStats st = CollectSegmentStats(v);
  EXPECT_EQ(st.rows, 6u);
  EXPECT_EQ(st.nulls, 1u);
  // Raw slot values: "a","a","","b","b","a" -> distinct {a, "", b}.
  EXPECT_EQ(st.distinct, 3u);
  EXPECT_EQ(st.runs, 4u);
  EXPECT_EQ(st.string_bytes, 5u);

  ColumnVector ints(Type::kInt64);
  for (int64_t x : {40, 40, 40, 55, 55, 70}) ints.AppendInt64(x);
  const SegmentValueStats si = CollectSegmentStats(ints);
  EXPECT_EQ(si.distinct, 3u);
  EXPECT_EQ(si.runs, 3u);
  EXPECT_EQ(si.int_min, 40);
  EXPECT_EQ(si.int_max, 70);
}

TEST(CompressionAdvisorTest, PicksEncodingBySmallestEstimatedFootprint) {
  // Cycling low-cardinality strings: no runs to exploit, tiny dictionary.
  ColumnVector cyc(Type::kString);
  const char* tags[] = {"red", "green", "blue"};
  for (int i = 0; i < 512; ++i) cyc.AppendString(tags[i % 3]);
  EXPECT_EQ(AdviseEncoding(cyc).chosen, EncodingType::kDictionary);

  // Long runs: RLE beats everything.
  ColumnVector runs(Type::kInt64);
  for (int i = 0; i < 1000; ++i) runs.AppendInt64(i / 100);
  EXPECT_EQ(AdviseEncoding(runs).chosen, EncodingType::kRle);

  // Wide-but-framable random ints: FOR bit-packing.
  ColumnVector narrow(Type::kInt64);
  for (int i = 0; i < 512; ++i)
    narrow.AppendInt64(1000000 + (i * 2654435761u) % 1024);
  EXPECT_EQ(AdviseEncoding(narrow).chosen, EncodingType::kForBitPack);

  // High-entropy doubles: nothing is applicable or wins -> PLAIN.
  ColumnVector dbl(Type::kDouble);
  for (int i = 0; i < 512; ++i) dbl.AppendDouble(i * 1.618033988749);
  const CompressionAdvice a = AdviseEncoding(dbl);
  EXPECT_EQ(a.chosen, EncodingType::kPlain);
  EXPECT_FALSE(
      a.candidates[static_cast<size_t>(EncodingType::kDictionary)].applicable);
  EXPECT_FALSE(
      a.candidates[static_cast<size_t>(EncodingType::kForBitPack)].applicable);

  // Every applicable estimate is filled in and the chosen one is minimal
  // among winners of the PLAIN bias.
  const CompressionAdvice r = AdviseEncoding(runs);
  const size_t plain =
      r.candidates[static_cast<size_t>(EncodingType::kPlain)].bytes;
  const size_t rle =
      r.candidates[static_cast<size_t>(EncodingType::kRle)].bytes;
  EXPECT_LT(rle, plain - plain / 8);
}

TEST(CompressionAdvisorTest, ColumnTableReencodesSegmentsWhenEnabled) {
  // Ints in [0, 2^33): ChooseEncoding's fixed range<2^32 gate rejects FOR,
  // but the advisor's size estimate (33 bits/value vs 64) picks it.
  const Schema schema({{"id", Type::kInt64}, {"w", Type::kInt64}});
  std::vector<Row> rows;
  for (Key id = 0; id < 1000; ++id)
    rows.push_back(
        Row{Value(id), Value(static_cast<int64_t>(
                           static_cast<int64_t>(id) * 4294967311LL %
                           (int64_t{1} << 33)))});
  ColumnTable plain_t(schema), advised_t(schema);
  advised_t.EnableCompressionAdvisor(true);
  plain_t.AppendBatch(rows, 1);
  advised_t.AppendBatch(rows, 1);
  EXPECT_EQ(plain_t.group(0)->columns[1].encoding(), EncodingType::kPlain);
  EXPECT_EQ(advised_t.group(0)->columns[1].encoding(),
            EncodingType::kForBitPack);
  EXPECT_LT(advised_t.group(0)->columns[1].MemoryBytes(),
            plain_t.group(0)->columns[1].MemoryBytes());
  // Scans read the re-encoded segments identically.
  EXPECT_EQ(ScanHtap(advised_t, nullptr, kMaxCSN - 1, Predicate::True(), {}),
            ScanHtap(plain_t, nullptr, kMaxCSN - 1, Predicate::True(), {}));

  // The per-encoding breakdown reflects what was built.
  const EncodingBreakdown bd = advised_t.EncodingStats();
  size_t total_segments = 0, total_bytes = 0;
  for (size_t e = 0; e < kNumEncodings; ++e) {
    total_segments += bd.segments[e];
    total_bytes += bd.bytes[e];
  }
  EXPECT_EQ(total_segments, 2u);  // one group x two columns
  EXPECT_GT(bd.segments[static_cast<size_t>(EncodingType::kForBitPack)], 0u);
  EXPECT_GT(total_bytes, 0u);
}

// End-to-end: every architecture with a batch-capable scan path must return
// the same query results with the vectorized pipeline on and off, and the
// vectorized run must actually take the batch path.
TEST(VectorizedDatabaseTest, VectorizedAndRowPipelinesAgree) {
  const std::vector<ArchitectureKind> archs = {
      ArchitectureKind::kRowPlusInMemoryColumn,
      ArchitectureKind::kDiskRowPlusDistributedColumn,
      ArchitectureKind::kColumnPlusDeltaRow,
  };
  for (ArchitectureKind arch : archs) {
    auto open = [arch](bool vectorized) {
      DatabaseOptions opts;
      opts.architecture = arch;
      opts.background_sync = false;
      opts.vectorized_exec = vectorized;
      opts.parallel_scan_threads = 4;
      auto res = Database::Open(opts);
      EXPECT_TRUE(res.ok());
      return std::move(*res);
    };
    auto row_db = open(false);
    auto vec_db = open(true);
    const Schema schema = TestSchema();
    for (auto* db : {row_db.get(), vec_db.get()}) {
      ASSERT_TRUE(db->CreateTable("t", schema).ok());
      for (Key id = 0; id < 600; ++id)
        ASSERT_TRUE(db->InsertRow("t", TRow(id, id % 9,
                                            id % 2 ? "odd" : "even",
                                            id * 0.5))
                        .ok());
      ASSERT_TRUE(db->ForceSyncAll().ok());
    }
    const std::vector<std::string> queries = {
        "SELECT id, price FROM t WHERE v >= 5 ORDER BY id",
        "SELECT * FROM t WHERE cat = 'odd' AND v < 3 ORDER BY id",
        "SELECT cat, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY cat "
        "ORDER BY cat",
        "SELECT COUNT(*) AS n, MIN(price) AS mn, MAX(price) AS mx FROM t",
    };
    for (const std::string& q : queries) {
      QueryExecInfo row_info, vec_info;
      auto a = row_db->ExecuteSql(q, &row_info);
      auto b = vec_db->ExecuteSql(q, &vec_info);
      ASSERT_TRUE(a.ok() && b.ok()) << q;
      EXPECT_EQ(a->rows, b->rows) << q;
      EXPECT_FALSE(row_info.vectorized) << q;
    }
    // A plain analytic filter resolves to a column scan in all three
    // architectures — the batch pipeline must have served it.
    QueryExecInfo info;
    ASSERT_TRUE(
        vec_db->ExecuteSql("SELECT id FROM t WHERE v >= 5", &info).ok());
    EXPECT_TRUE(info.vectorized) << "arch " << static_cast<int>(arch);

    // The advisor (on by default) surfaces per-encoding footprints.
    const EngineStats st = vec_db->Stats();
    size_t segs = 0, bytes = 0;
    for (size_t e = 0; e < kNumEncodings; ++e) {
      segs += st.column_encodings.segments[e];
      bytes += st.column_encodings.bytes[e];
    }
    EXPECT_GT(segs, 0u) << "arch " << static_cast<int>(arch);
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, st.column_store_bytes);
  }
}

}  // namespace
}  // namespace htap
