// Delta-store tests: all three designs honor the DeltaReader contract
// (CSN-ordered visibility, drain semantics), plus design-specific behavior
// (L1->L2 spill, log-delta file decoding and B+-tree key lookups).

#include <gtest/gtest.h>

#include "delta/delta.h"

namespace htap {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::kInt64}, {"v", Type::kInt64}});
}

DeltaEntry E(ChangeOp op, Key k, int64_t v, CSN csn) {
  DeltaEntry e;
  e.op = op;
  e.key = k;
  e.csn = csn;
  if (op != ChangeOp::kDelete) e.row = Row{Value(k), Value(v)};
  return e;
}

std::vector<DeltaEntry> Entries(const ChangeChunk& chunk) {
  std::vector<DeltaEntry> out;
  for (size_t i = 0; i < chunk.size(); ++i) out.push_back(chunk.EntryAt(i));
  return out;
}

std::vector<DeltaEntry> Collect(const DeltaReader& r, CSN snap) {
  std::vector<DeltaEntry> out;
  r.ScanVisible(snap, [&](const DeltaEntry& e) { out.push_back(e); });
  return out;
}

// ---- Shared contract, parameterized over the three designs -----------

enum class DeltaKind { kInMemory, kL1L2, kLog };

class DeltaContractTest : public ::testing::TestWithParam<DeltaKind> {
 protected:
  // A thin uniform mutation interface over the three stores.
  void SetUp() override {
    switch (GetParam()) {
      case DeltaKind::kInMemory:
        mem_ = std::make_unique<InMemoryDeltaStore>(TestSchema());
        break;
      case DeltaKind::kL1L2:
        l1l2_ = std::make_unique<L1L2DeltaStore>(TestSchema(), 4);
        break;
      case DeltaKind::kLog:
        log_ = std::make_unique<LogDeltaStore>(TestSchema());
        break;
    }
  }

  void Append(const DeltaEntry& e) {
    if (mem_) mem_->Append(e);
    if (l1l2_) l1l2_->Append(e);
    if (log_) log_->AppendFile({e});
  }

  DeltaReader* reader() {
    if (mem_) return mem_.get();
    if (l1l2_) return l1l2_.get();
    return log_.get();
  }

  std::vector<DeltaEntry> Drain(CSN csn) {
    if (mem_) return Entries(mem_->DrainUpTo(csn));
    if (l1l2_) return Entries(l1l2_->DrainUpTo(csn));
    return Entries(log_->DrainUpTo(csn));
  }

  std::unique_ptr<InMemoryDeltaStore> mem_;
  std::unique_ptr<L1L2DeltaStore> l1l2_;
  std::unique_ptr<LogDeltaStore> log_;
};

TEST_P(DeltaContractTest, ScanVisibleHonorsSnapshot) {
  for (CSN c = 1; c <= 10; ++c)
    Append(E(ChangeOp::kInsert, static_cast<Key>(c), 100 + static_cast<int64_t>(c), c));
  EXPECT_EQ(Collect(*reader(), 5).size(), 5u);
  EXPECT_EQ(Collect(*reader(), 0).size(), 0u);
  EXPECT_EQ(Collect(*reader(), 100).size(), 10u);
  EXPECT_EQ(reader()->EntryCount(), 10u);
}

TEST_P(DeltaContractTest, ScanPreservesCommitOrder) {
  for (CSN c = 1; c <= 20; ++c)
    Append(E(ChangeOp::kUpdate, static_cast<Key>(c % 3), c, c));
  const auto entries = Collect(*reader(), 20);
  ASSERT_EQ(entries.size(), 20u);
  for (size_t i = 1; i < entries.size(); ++i)
    EXPECT_LE(entries[i - 1].csn, entries[i].csn);
}

TEST_P(DeltaContractTest, RowPayloadSurvives) {
  Append(E(ChangeOp::kInsert, 7, 777, 3));
  const auto entries = Collect(*reader(), 3);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].row.Get(1).AsInt64(), 777);
  EXPECT_EQ(entries[0].op, ChangeOp::kInsert);
}

TEST_P(DeltaContractTest, DeletesCarryNoRow) {
  Append(E(ChangeOp::kDelete, 7, 0, 1));
  const auto entries = Collect(*reader(), 1);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].op, ChangeOp::kDelete);
  EXPECT_TRUE(entries[0].row.empty());
}

TEST_P(DeltaContractTest, VisibleChunkMatchesScanVisible) {
  for (CSN c = 1; c <= 12; ++c)
    Append(E(c % 4 == 0 ? ChangeOp::kDelete : ChangeOp::kUpdate,
             static_cast<Key>(c % 5), static_cast<int64_t>(c), c));
  for (CSN snap : {CSN{0}, CSN{5}, CSN{12}, CSN{100}}) {
    const ChangeChunk chunk = reader()->VisibleChunk(snap);
    const auto boxed = Collect(*reader(), snap);
    ASSERT_EQ(chunk.size(), boxed.size()) << "snapshot " << snap;
    for (size_t i = 0; i < chunk.size(); ++i) {
      EXPECT_EQ(chunk.ops[i], boxed[i].op);
      EXPECT_EQ(chunk.keys[i], boxed[i].key);
      EXPECT_EQ(chunk.csns[i], boxed[i].csn);
      EXPECT_EQ(chunk.RowAt(i), boxed[i].row);
    }
  }
}

TEST_P(DeltaContractTest, DrainRemovesOnlyOldEntries) {
  for (CSN c = 1; c <= 10; ++c)
    Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  const auto drained = Drain(6);
  EXPECT_EQ(drained.size(), 6u);
  EXPECT_EQ(reader()->EntryCount(), 4u);
  const auto rest = Collect(*reader(), 100);
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0].csn, 7u);
}

INSTANTIATE_TEST_SUITE_P(AllDeltaDesigns, DeltaContractTest,
                         ::testing::Values(DeltaKind::kInMemory,
                                           DeltaKind::kL1L2,
                                           DeltaKind::kLog));

// ---- Design-specific behavior ------------------------------------------

TEST(L1L2DeltaTest, SpillsAtThreshold) {
  L1L2DeltaStore d(TestSchema(), /*l1_spill_threshold=*/8);
  for (CSN c = 1; c <= 7; ++c) d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  EXPECT_EQ(d.l1_size(), 7u);
  EXPECT_EQ(d.l2_size(), 0u);
  d.Append(E(ChangeOp::kInsert, 8, 8, 8));  // hits the threshold
  EXPECT_EQ(d.l1_size(), 0u);
  EXPECT_EQ(d.l2_size(), 8u);
  // Scan covers both layers in order.
  d.Append(E(ChangeOp::kInsert, 9, 9, 9));
  const auto all = Collect(d, 100);
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(all.back().csn, 9u);
}

TEST(L1L2DeltaTest, ManualSpillAndDrainAcrossLayers) {
  L1L2DeltaStore d(TestSchema(), 1000);
  for (CSN c = 1; c <= 5; ++c) d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  d.SpillL1();
  for (CSN c = 6; c <= 8; ++c) d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  // Drain cuts through the middle of the L2 chunk.
  const auto drained = d.DrainUpTo(3);
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(d.EntryCount(), 5u);
  const auto rest = Collect(d, 100);
  EXPECT_EQ(rest.front().csn, 4u);
}

TEST(L1L2DeltaTest, DeletesInColumnarL2RoundTrip) {
  L1L2DeltaStore d(TestSchema(), 2);
  d.Append(E(ChangeOp::kInsert, 1, 10, 1));
  d.Append(E(ChangeOp::kDelete, 1, 0, 2));  // triggers spill of both
  EXPECT_EQ(d.l2_size(), 2u);
  const auto all = Collect(d, 10);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].op, ChangeOp::kDelete);
  EXPECT_TRUE(all[1].row.empty());
}

TEST(LogDeltaTest, FilesAreEncodedAndCounted) {
  LogDeltaStore d(TestSchema());
  std::vector<DeltaEntry> batch;
  for (CSN c = 1; c <= 5; ++c)
    batch.push_back(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  d.AppendFile(batch);
  d.AppendFile({E(ChangeOp::kUpdate, 1, 99, 6)});
  EXPECT_EQ(d.num_files(), 2u);
  EXPECT_EQ(d.EntryCount(), 6u);
  EXPECT_EQ(d.bytes_decoded(), 0u);
  Collect(d, 100);
  EXPECT_GT(d.bytes_decoded(), 0u);  // reads pay the decode cost
}

TEST(LogDeltaTest, KeyIndexFindsLatestEntry) {
  LogDeltaStore d(TestSchema());
  d.AppendFile({E(ChangeOp::kInsert, 42, 1, 1)});
  d.AppendFile({E(ChangeOp::kUpdate, 42, 2, 2)});
  DeltaEntry out;
  ASSERT_TRUE(d.LookupLatest(42, &out));
  EXPECT_EQ(out.csn, 2u);
  EXPECT_EQ(out.row.Get(1).AsInt64(), 2);
  EXPECT_FALSE(d.LookupLatest(7, &out));
}

TEST(LogDeltaTest, DrainDropsWholeFilesOnly) {
  LogDeltaStore d(TestSchema());
  d.AppendFile({E(ChangeOp::kInsert, 1, 1, 1), E(ChangeOp::kInsert, 2, 2, 2)});
  d.AppendFile({E(ChangeOp::kInsert, 3, 3, 3), E(ChangeOp::kInsert, 4, 4, 4)});
  // CSN 3 falls inside file 2: only file 1 (max csn 2) is drained.
  const auto drained = d.DrainUpTo(3);
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(d.num_files(), 1u);
  DeltaEntry out;
  EXPECT_TRUE(d.LookupLatest(3, &out));  // still resolvable after seq shift
  EXPECT_FALSE(d.LookupLatest(1, &out));  // merged-away index entry is stale
}

TEST(InMemoryDeltaTest, DrainCutsMidChunkAndKeepsTypedSuffix) {
  const Schema schema({{"id", Type::kInt64},
                       {"d", Type::kDouble},
                       {"s", Type::kString}});
  InMemoryDeltaStore d(schema);
  for (CSN c = 1; c <= 6; ++c) {
    DeltaEntry e;
    e.op = ChangeOp::kInsert;
    e.key = static_cast<Key>(c);
    e.csn = c;
    // Odd CSNs carry NULL double/string cells.
    e.row = c % 2 ? Row{Value(e.key), Value(), Value()}
                  : Row{Value(e.key), Value(c * 0.5), Value(std::to_string(c) + "s")};
    d.Append(e);
  }
  const ChangeChunk head = d.DrainUpTo(4);
  ASSERT_EQ(head.size(), 4u);
  EXPECT_EQ(head.csns.back(), 4u);
  EXPECT_TRUE(head.columns[1].IsNull(2));
  EXPECT_EQ(head.columns[2].GetString(3), "4s");
  EXPECT_EQ(d.EntryCount(), 2u);
  const ChangeChunk rest = d.VisibleChunk(kMaxCSN - 1);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_TRUE(rest.columns[1].IsNull(0));    // csn 5
  EXPECT_FALSE(rest.columns[1].IsNull(1));   // csn 6
  EXPECT_DOUBLE_EQ(rest.columns[1].GetDouble(1), 3.0);
  // Appends after a cut land behind the suffix with fresh null bits.
  DeltaEntry e;
  e.op = ChangeOp::kUpdate;
  e.key = 7;
  e.csn = 7;
  e.row = Row{Value(int64_t{7}), Value(7.5), Value("x")};
  d.Append(e);
  const ChangeChunk all = d.DrainUpTo(kMaxCSN - 1);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_FALSE(all.columns[2].IsNull(2));
  EXPECT_EQ(all.columns[2].GetString(2), "x");
  EXPECT_EQ(d.EntryCount(), 0u);
  EXPECT_EQ(d.DrainUpTo(kMaxCSN - 1).size(), 0u);  // empty drain
}

TEST(EventRouterTest, GroupsEventsByTableInCommitOrder) {
  std::vector<ChangeEvent> evs(6);
  const uint32_t tables[] = {3, 1, 3, 2, 1, 3};
  for (size_t i = 0; i < evs.size(); ++i) {
    evs[i].table_id = tables[i];
    evs[i].key = static_cast<Key>(i);
  }
  EventRouter router;
  std::vector<std::pair<uint32_t, std::vector<Key>>> runs;
  router.Route(evs, [&](uint32_t tid, TableEvents run) {
    std::vector<Key> keys;
    for (const ChangeEvent* ev : run) keys.push_back(ev->key);
    runs.emplace_back(tid, keys);
  });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (std::pair<uint32_t, std::vector<Key>>{1, {1, 4}}));
  EXPECT_EQ(runs[1], (std::pair<uint32_t, std::vector<Key>>{2, {3}}));
  EXPECT_EQ(runs[2], (std::pair<uint32_t, std::vector<Key>>{3, {0, 2, 5}}));
}

TEST(InMemoryDeltaTest, MemoryAccountingShrinksOnDrain) {
  InMemoryDeltaStore d(TestSchema());
  for (CSN c = 1; c <= 100; ++c)
    d.Append(E(ChangeOp::kInsert, static_cast<Key>(c), c, c));
  const size_t before = d.MemoryBytes();
  EXPECT_GT(before, 0u);
  d.DrainUpTo(50);
  EXPECT_LT(d.MemoryBytes(), before);
  EXPECT_EQ(d.max_csn(), 100u);
}

}  // namespace
}  // namespace htap
