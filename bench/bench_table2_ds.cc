// Reproduces Table 2, Data Synchronization row:
//   in-memory delta merge          -> high efficiency, low scalability
//   log-based delta merge          -> scalable staging, high merge cost
//   rebuild from primary row store -> small staging memory, high load cost
//
// Setup: a populated MVCC row store; a burst of committed updates staged
// through each DS design (the in-memory delta, HANA's L1/L2 delta and the
// log delta); one synchronization brings the column store current. We
// report merge latency, rows moved, staging memory held before the merge,
// and the merge rate in entries per second, plus one JSON line
// ({"bench": "table2_ds", ...}) so a merge-cost regression shows in logs.
//
// `bench_table2_ds smoke` runs a 4x smaller burst and base.

#include <cstring>
#include <thread>

#include "bench_util.h"
#include "sync/sync.h"

namespace htap {
namespace bench {
namespace {

Schema KvSchema() {
  return Schema({{"id", Type::kInt64}, {"a", Type::kInt64},
                 {"b", Type::kInt64}, {"c", Type::kInt64}});
}

Row MakeRow(Key id, int64_t v) {
  return Row{Value(id), Value(v), Value(v * 2), Value(v * 3)};
}

size_t kBaseRows = 40000;
size_t kBurst = 20000;

struct Harness {
  TransactionManager mgr;
  std::unique_ptr<MvccRowStore> rows;
  ColumnTable table{KvSchema()};

  /// Forwards each published commit's events to the design under test
  /// through the engines' commit routing (the events leave the transaction
  /// at commit, so a sink is the only place to see them).
  struct Forward : ChangeSink {
    std::function<void(TableEvents)> fn;
    EventRouter router;
    void OnCommit(const std::vector<ChangeEvent>& events) override {
      if (fn) router.Route(events, [&](uint32_t, TableEvents run) { fn(run); });
    }
  } forward;

  Harness() {
    rows = std::make_unique<MvccRowStore>(1, KvSchema(), &mgr, nullptr);
    mgr.RegisterSink(&forward);
  }

  /// Loads the base rows into the row store and, as a prior merge would
  /// have, into the column store.
  void LoadBase() {
    std::vector<Row> base;
    for (size_t i = 0; i < kBaseRows; i += 1000) {
      auto t = mgr.Begin();
      for (size_t j = i; j < i + 1000 && j < kBaseRows; ++j) {
        base.push_back(MakeRow(static_cast<Key>(j), 1));
        rows->Insert(t.get(), base.back());
      }
      mgr.Commit(t.get());
    }
    table.AppendBatch(base, mgr.LastCommittedCsn());
  }

  /// Applies the burst, handing every commit's changes to `delta_append`.
  void RunBurst(const std::function<void(TableEvents)>& delta_append) {
    forward.fn = delta_append;
    Random rng(4);
    for (size_t i = 0; i < kBurst; i += 500) {
      auto t = mgr.Begin();
      for (size_t j = 0; j < 500; ++j) {
        const Key k = static_cast<Key>(rng.Uniform(kBaseRows));
        rows->Update(t.get(), MakeRow(k, static_cast<int64_t>(i + j)));
      }
      mgr.Commit(t.get());
    }
    forward.fn = nullptr;
  }
};

/// One merge cell: merge latency, entries merged and their rate.
struct MergeCell {
  double ms = 0;
  uint64_t entries = 0;
  size_t staging = 0;
  double entries_per_s() const { return ms > 0 ? entries / (ms / 1000) : 0; }
};

/// Stages the burst into `delta` commit by commit, then times one merge.
template <typename DeltaT>
MergeCell RunMerge(SyncStrategy strategy, DeltaT* delta, Harness* h) {
  DataSynchronizer sync(strategy, &h->table,
                        std::make_unique<DeltaSourceAdapter<DeltaT>>(delta));
  h->RunBurst([&](TableEvents run) { delta->AppendEvents(run); });
  MergeCell cell;
  cell.staging = delta->MemoryBytes();
  Stopwatch sw;
  sync.SyncTo(h->mgr.LastCommittedCsn());
  cell.ms = sw.ElapsedSeconds() * 1000;
  cell.entries = sync.stats().entries_merged;
  return cell;
}

void PrintCell(const char* name, const MergeCell& c, const char* paper) {
  std::printf("%-30s | %10.2f | %10llu | %12.1f | %9.2f | %s\n", name, c.ms,
              static_cast<unsigned long long>(c.entries), c.staging / 1024.0,
              c.entries_per_s() / 1e6, paper);
}

}  // namespace
}  // namespace bench
}  // namespace htap

int main(int argc, char** argv) {
  using namespace htap;
  using namespace htap::bench;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  if (smoke) {
    kBaseRows /= 4;
    kBurst /= 4;
  }
  std::printf("Table 2 / DS row — data-synchronization techniques\n");
  std::printf("Base %zu rows; burst of %zu committed updates, then one sync%s\n\n",
              kBaseRows, kBurst, smoke ? " (smoke)" : "");
  std::printf("%-30s | %10s | %10s | %12s | %9s | paper's cells\n", "Technique",
              "merge ms", "rows moved", "staging KiB", "M ent/s");
  PrintRule(116);

  MergeCell in_mem, l1l2, log;
  {  // In-memory delta merge.
    Harness h;
    h.LoadBase();
    InMemoryDeltaStore delta(KvSchema());
    in_mem = RunMerge(SyncStrategy::kInMemoryMerge, &delta, &h);
    PrintCell("in-memory delta merge", in_mem,
              "high efficiency / low scalability");
  }

  {  // HANA-style L1/L2 delta merge (architecture (b)'s delta).
    Harness h;
    h.LoadBase();
    L1L2DeltaStore delta(KvSchema());
    l1l2 = RunMerge(SyncStrategy::kInMemoryMerge, &delta, &h);
    PrintCell("L1/L2 delta merge", l1l2, "(L1/L2 variant of the above)");
  }

  {  // Log-based delta merge.
    Harness h;
    h.LoadBase();
    LogDeltaStore delta(KvSchema());
    log = RunMerge(SyncStrategy::kLogMerge, &delta, &h);  // a file per commit
    PrintCell("log-based delta merge", log,
              "scalable staging / high merge cost");
  }

  {  // Rebuild from the primary row store.
    Harness h;
    h.LoadBase();
    DataSynchronizer sync(&h.table, h.rows.get());
    h.RunBurst([](TableEvents) {});  // nothing staged at all
    Stopwatch sw;
    sync.SyncTo(h.mgr.LastCommittedCsn());
    std::printf("%-30s | %10.2f | %10llu | %12.1f | %9s | small memory / high load cost\n",
                "rebuild from primary rows", sw.ElapsedSeconds() * 1000,
                static_cast<unsigned long long>(sync.stats().rows_loaded),
                0.0, "-");
  }

  PrintRule(116);
  std::printf(
      "\nExpected shape: the merges move only the %zu committed updates (the\n"
      "log variant paying extra decode); the rebuild re-loads all %zu rows\n"
      "but holds no staging memory between syncs.\n",
      kBurst, kBaseRows);
  std::printf(
      "{\"bench\": \"table2_ds\", \"smoke\": %d, \"cores\": %u, "
      "\"burst\": %zu, \"inmemory_entries_per_s\": %.0f, "
      "\"l1l2_entries_per_s\": %.0f, \"log_entries_per_s\": %.0f}\n",
      smoke ? 1 : 0, std::thread::hardware_concurrency(), kBurst,
      in_mem.entries_per_s(), l1l2.entries_per_s(), log.entries_per_s());
  return 0;
}
