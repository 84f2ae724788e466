// The four architecture presets of the survey's taxonomy (Figure 1 /
// Table 1), each an HtapEngine:
//
//  (a) InMemoryHtapEngine   — primary row store + in-memory column store
//                             (Oracle dual-format / SQL Server CSI style).
//  (b) DistributedHtapEngine — distributed row store + column replica
//                             (TiDB style; wraps sim::DistributedDb).
//  (c) DiskHtapEngine       — disk row store + in-memory column-store
//                             cluster (MySQL Heatwave style).
//  (d) DeltaMainHtapEngine  — primary column store + delta row store
//                             (SAP HANA style).

#ifndef HTAP_CORE_ENGINES_H_
#define HTAP_CORE_ENGINES_H_

#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/catalog.h"
#include "core/options.h"
#include "core/query_runner.h"
#include "core/row_txn_layer.h"
#include "opt/column_advisor.h"
#include "opt/optimizer.h"
#include "storage/disk_row_store.h"

namespace htap {

/// The engine-owned AP pool powering morsel-driven parallel scans,
/// aggregations, and hash joins. No pool is created when the effective
/// thread count is 1 (serial).
struct ApScanRuntime {
  std::unique_ptr<ThreadPool> pool;
  size_t threads = 1;
  size_t min_join_build = 4096;
  size_t spill_budget = 0;
  std::string spill_dir;
  uint64_t stats_staleness = 65536;
  size_t batch_rows = 4096;  // rows per ColumnBatch (DESIGN.md §12)
  bool vectorized = true;    // engine offers its batch scan to the runner
  bool vectorized_join = true;  // batch-native joins (DESIGN.md §13)

  explicit ApScanRuntime(const DatabaseOptions& options)
      : threads(EffectiveParallelScanThreads(options)),
        min_join_build(options.parallel_join_min_build_rows),
        spill_budget(options.join_spill_budget_bytes),
        spill_dir(options.join_spill_dir),
        stats_staleness(options.stats_staleness_csns),
        batch_rows(options.vectorized_batch_rows),
        vectorized(options.vectorized_exec),
        vectorized_join(options.vectorized_join) {
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads, "ap-scan");
  }

  /// `committed_csn` is the engine's commit frontier at query start — the
  /// reference point for the planner's stats-staleness check.
  ExecContext ctx(CSN committed_csn = 0) const {
    ExecContext exec;
    exec.pool = pool.get();
    exec.max_parallelism = threads;
    exec.min_parallel_join_build = min_join_build;
    exec.join_spill_budget_bytes = spill_budget;
    exec.join_spill_dir = spill_dir;
    exec.committed_csn = committed_csn;
    exec.stats_staleness_csns = stats_staleness;
    exec.batch_rows = batch_rows;
    exec.vectorized_join = vectorized_join;
    return exec;
  }
};

// ---------------------------------------------------------------------------
// (a) Primary row store + in-memory column store
// ---------------------------------------------------------------------------

class InMemoryHtapEngine : public HtapEngine, public ChangeSink {
 public:
  InMemoryHtapEngine(const DatabaseOptions& options, Catalog* catalog);
  ~InMemoryHtapEngine() override;

  Status CreateTable(const TableInfo& info) override;
  std::unique_ptr<TxnContext> Begin() override;
  Status Insert(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Update(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Delete(TxnContext* t, const TableInfo& tbl, Key key) override;
  Status Get(TxnContext* t, const TableInfo& tbl, Key key, Row* out) override;
  Status Commit(TxnContext* t) override;
  Status Abort(TxnContext* t) override;
  Status Read(const TableInfo& tbl, Key key, Row* out) override;
  Result<QueryResult> Execute(const QueryPlan& plan,
                              QueryExecInfo* info) override;
  Status ForceSync(const TableInfo& tbl) override;
  FreshnessInfo Freshness(const TableInfo& tbl) override;
  EngineStats Stats() override;

  void OnCommit(const std::vector<ChangeEvent>& events) override;
  ThreadPool* ApScanPool() override { return ap_.pool.get(); }

  TransactionManager* txn_mgr() { return layer_.txn_mgr(); }
  ColumnTable* column_table(uint32_t table_id);
  InMemoryDeltaStore* delta(uint32_t table_id);

 private:
  struct TableState {
    // htap-lint: guarded-by — set in CreateTable before the state is
    // published into tables_; immutable afterwards.
    TableInfo info;
    std::unique_ptr<InMemoryDeltaStore> delta;
    std::unique_ptr<ColumnTable> columns;
    std::unique_ptr<DataSynchronizer> sync;
    // Plan-time row-store stats: refreshed from a snapshot scan while
    // concurrent queries copy them out, so they carry their own mutex.
    Mutex stats_mu{LockRank::kEngineTableStats, "inmemory-table-stats"};
    TableStats stats GUARDED_BY(stats_mu);
    uint64_t stats_at_csn GUARDED_BY(stats_mu) = 0;
  };

  Result<std::vector<Row>> Scan(const ScanRequest& req, ScanStats* stats,
                                std::string* path_desc);
  /// Vectorized scan: serves only the column access path, as ColumnBatches
  /// straight off the encoded segments; declines everything else with
  /// NotSupported (the runner falls back to Scan).
  Result<std::vector<ColumnBatch>> BatchScan(const ScanRequest& req,
                                             ScanStats* stats,
                                             std::string* path_desc);
  /// The access-path decision shared by Scan and BatchScan.
  AccessPath ResolvePath(const ScanRequest& req, TableState* ts,
                         bool* pk_point, Key* pk_key);
  /// Refreshes the sampled row-store stats if stale and returns a copy.
  TableStats RefreshedStats(TableState* ts);

  const DatabaseOptions options_;
  Catalog* catalog_;
  std::unique_ptr<WalWriter> wal_;
  // htap-lint: guarded-by — tables register only during engine init /
  // CreateTable (no concurrent phase); the txn manager and row stores
  // inside carry their own locks.
  RowTxnLayer layer_;
  FreshnessTracker freshness_;
  ColumnAdvisor advisor_;
  const ApScanRuntime ap_;  // config + pool, fixed at construction
  // TableState pointers are stable: entries are never erased, so a pointer
  // copied out under the lock stays valid for the engine's lifetime.
  std::unordered_map<uint32_t, std::unique_ptr<TableState>> tables_
      GUARDED_BY(tables_mu_);
  std::unique_ptr<SyncDaemon> daemon_;
  EventRouter router_ GUARDED_BY(tables_mu_);  // OnCommit routing buffer
  mutable Mutex tables_mu_{LockRank::kEngineTables, "inmemory-tables"};
};

// ---------------------------------------------------------------------------
// (d) Primary column store + delta row store
// ---------------------------------------------------------------------------

class DeltaMainHtapEngine : public HtapEngine, public ChangeSink {
 public:
  DeltaMainHtapEngine(const DatabaseOptions& options, Catalog* catalog);
  ~DeltaMainHtapEngine() override;

  Status CreateTable(const TableInfo& info) override;
  std::unique_ptr<TxnContext> Begin() override;
  Status Insert(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Update(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Delete(TxnContext* t, const TableInfo& tbl, Key key) override;
  Status Get(TxnContext* t, const TableInfo& tbl, Key key, Row* out) override;
  Status Commit(TxnContext* t) override;
  Status Abort(TxnContext* t) override;
  Status Read(const TableInfo& tbl, Key key, Row* out) override;
  Result<QueryResult> Execute(const QueryPlan& plan,
                              QueryExecInfo* info) override;
  Status ForceSync(const TableInfo& tbl) override;
  FreshnessInfo Freshness(const TableInfo& tbl) override;
  EngineStats Stats() override;

  void OnCommit(const std::vector<ChangeEvent>& events) override;
  ThreadPool* ApScanPool() override { return ap_.pool.get(); }

  L1L2DeltaStore* delta(uint32_t table_id);
  ColumnTable* main(uint32_t table_id);

 private:
  struct TableState {
    // htap-lint: guarded-by — set in CreateTable before the state is
    // published into tables_; immutable afterwards.
    TableInfo info;
    std::unique_ptr<L1L2DeltaStore> delta;   // L1 + L2
    std::unique_ptr<ColumnTable> main;       // the primary column store
    std::unique_ptr<DataSynchronizer> sync;
  };

  Result<std::vector<Row>> Scan(const ScanRequest& req, ScanStats* stats,
                                std::string* path_desc);
  /// Vectorized scan over Main + delta; declines only a forced row scan.
  Result<std::vector<ColumnBatch>> BatchScan(const ScanRequest& req,
                                             ScanStats* stats,
                                             std::string* path_desc);

  const DatabaseOptions options_;
  Catalog* catalog_;
  std::unique_ptr<WalWriter> wal_;
  // htap-lint: guarded-by — tables register only during engine init /
  // CreateTable (no concurrent phase); internals carry their own locks.
  RowTxnLayer layer_;  // the delta row store with MVCC semantics
  FreshnessTracker freshness_;
  const ApScanRuntime ap_;  // config + pool, fixed at construction
  std::unordered_map<uint32_t, std::unique_ptr<TableState>> tables_
      GUARDED_BY(tables_mu_);
  std::unique_ptr<SyncDaemon> daemon_;
  EventRouter router_ GUARDED_BY(tables_mu_);  // OnCommit routing buffer
  mutable Mutex tables_mu_{LockRank::kEngineTables, "deltamain-tables"};
};

// ---------------------------------------------------------------------------
// (c) Disk row store + distributed in-memory column store
// ---------------------------------------------------------------------------

class DiskHtapEngine : public HtapEngine, public ChangeSink {
 public:
  DiskHtapEngine(const DatabaseOptions& options, Catalog* catalog);
  ~DiskHtapEngine() override;

  Status CreateTable(const TableInfo& info) override;
  std::unique_ptr<TxnContext> Begin() override;
  Status Insert(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Update(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Delete(TxnContext* t, const TableInfo& tbl, Key key) override;
  Status Get(TxnContext* t, const TableInfo& tbl, Key key, Row* out) override;
  Status Commit(TxnContext* t) override;
  Status Abort(TxnContext* t) override;
  Status Read(const TableInfo& tbl, Key key, Row* out) override;
  Result<QueryResult> Execute(const QueryPlan& plan,
                              QueryExecInfo* info) override;
  Status ForceSync(const TableInfo& tbl) override;
  FreshnessInfo Freshness(const TableInfo& tbl) override;
  EngineStats Stats() override;

  void OnCommit(const std::vector<ChangeEvent>& events) override;
  ThreadPool* ApScanPool() override { return ap_.pool.get(); }

  /// Re-runs the column advisor and reloads the IMCS with the selected
  /// columns under the configured memory budget. Returns the selection.
  Result<ColumnAdvisor::Selection> RefreshColumnSelection(
      const TableInfo& tbl);

  /// Columns currently loaded in the IMCS for a table (base indexes).
  std::vector<int> LoadedColumns(uint32_t table_id) const;

 private:
  struct TableState {
    // htap-lint: guarded-by — set in CreateTable before the state is
    // published into tables_; immutable afterwards.
    TableInfo info;
    std::unique_ptr<DiskRowStore> heap;          // durable row heap
    std::unique_ptr<InMemoryDeltaStore> delta;   // staged changes for IMCS
    // The IMCS generation: RefreshColumnSelection replaces the pair
    // wholesale; readers copy the shared_ptr + loaded vector out under
    // tables_mu_ and the old store stays alive until the last scan drops it
    // (a scan must never dereference a generation it did not pin).
    std::shared_ptr<ColumnTable> imcs;           // loaded-column store
    // htap-lint: guarded-by — guarded by the owning engine's tables_mu_
    // (copied out with imcs under that lock); not expressible lexically
    // from a nested struct.
    std::vector<int> loaded;                     // base column indexes
    // Serializes "snapshot the current generation + drain the delta +
    // apply" so concurrent scans cannot apply drained batches out of commit
    // order (or drain entries into a superseded generation).
    Mutex merge_mu{LockRank::kEngineTableSync, "disk-imcs-merge"};
    Mutex stats_mu{LockRank::kEngineTableStats, "disk-table-stats"};
    TableStats stats GUARDED_BY(stats_mu);
    uint64_t stats_at_csn GUARDED_BY(stats_mu) = 0;
  };

  /// Column access resolved for one scan request: the access-path decision
  /// plus — when the IMCS is serving — the pinned generation and the
  /// predicate/projection remapped onto its loaded-column layout.
  struct ImcsAccess {
    AccessPath path = AccessPath::kRowFullScan;
    bool pk_point = false;
    Key pk_key = 0;
    bool imcs_ready = false;  // path == kColumnScan and capability held
    std::shared_ptr<ColumnTable> imcs;
    std::vector<int> loaded;
    Predicate pred;           // remapped onto the IMCS layout
    std::vector<int> proj;    // remapped projection
  };

  Result<std::vector<Row>> Scan(const ScanRequest& req, ScanStats* stats,
                                std::string* path_desc);
  /// Vectorized scan: serves only when the pinned IMCS generation holds
  /// every referenced column (NotSupported otherwise — the survey's
  /// "columns may not have been selected" caveat applies to batches too).
  Result<std::vector<ColumnBatch>> BatchScan(const ScanRequest& req,
                                             ScanStats* stats,
                                             std::string* path_desc);
  /// The path decision + IMCS pinning shared by Scan and BatchScan.
  Result<ImcsAccess> ResolveAccess(const ScanRequest& req, TableState* ts);
  /// Drains the delta up to `target` into the current IMCS generation and
  /// (optionally) returns the synced generation for the caller to scan.
  Status SyncImcs(TableState* ts, CSN target,
                  std::shared_ptr<ColumnTable>* imcs_out,
                  std::vector<int>* loaded_out);
  static Row ProjectToLoaded(const std::vector<int>& loaded, const Row& row);
  /// Refreshes the sampled row-store stats if stale (publishing to the
  /// catalog) and returns a copy.
  TableStats RefreshedStats(TableState* ts);

  const DatabaseOptions options_;
  Catalog* catalog_;
  std::unique_ptr<WalWriter> wal_;
  // htap-lint: guarded-by — tables register only during engine init /
  // CreateTable (no concurrent phase); internals carry their own locks.
  RowTxnLayer layer_;
  FreshnessTracker freshness_;
  ColumnAdvisor advisor_;
  const ApScanRuntime ap_;  // config + pool, fixed at construction
  // TableState pointers are stable (entries never erased); see (a).
  std::unordered_map<uint32_t, std::unique_ptr<TableState>> tables_
      GUARDED_BY(tables_mu_);
  EventRouter router_ GUARDED_BY(tables_mu_);  // OnCommit routing buffer
  mutable Mutex tables_mu_{LockRank::kEngineTables, "disk-tables"};
};

// ---------------------------------------------------------------------------
// (b) Distributed row store + column store replica
// ---------------------------------------------------------------------------

class DistributedHtapEngine : public HtapEngine {
 public:
  DistributedHtapEngine(const DatabaseOptions& options, Catalog* catalog);

  Status CreateTable(const TableInfo& info) override;
  std::unique_ptr<TxnContext> Begin() override;
  Status Insert(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Update(TxnContext* t, const TableInfo& tbl, const Row& r) override;
  Status Delete(TxnContext* t, const TableInfo& tbl, Key key) override;
  Status Get(TxnContext* t, const TableInfo& tbl, Key key, Row* out) override;
  Status Commit(TxnContext* t) override;
  Status Abort(TxnContext* t) override;
  Status Read(const TableInfo& tbl, Key key, Row* out) override;
  Result<QueryResult> Execute(const QueryPlan& plan,
                              QueryExecInfo* info) override;
  Status ForceSync(const TableInfo& tbl) override;
  FreshnessInfo Freshness(const TableInfo& tbl) override;
  EngineStats Stats() override;

  sim::DistributedDb* dist_db() { return db_.get(); }
  sim::SimEnv* env() { return &env_; }

 private:
  Result<std::vector<Row>> Scan(const ScanRequest& req, ScanStats* stats,
                                std::string* path_desc);
  /// Vectorized learner scan: ColumnBatches straight off the shard
  /// learners' column tables; declines only a forced row scan.
  Result<std::vector<ColumnBatch>> BatchScan(const ScanRequest& req,
                                             ScanStats* stats,
                                             std::string* path_desc);

  DatabaseOptions options_;
  Catalog* catalog_;
  sim::SimEnv env_;
  std::unique_ptr<sim::DistributedDb> db_;
  bool bootstrapped_ = false;
};

}  // namespace htap

#endif  // HTAP_CORE_ENGINES_H_
