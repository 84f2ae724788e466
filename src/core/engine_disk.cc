// Architecture (c): disk row store + in-memory column store (Heatwave
// style). Transactions run against the MVCC layer (the buffer-cached OLTP
// working set) with write-through to a disk heap; analytical queries are
// pushed down to the IMCS when every referenced column is loaded, and fall
// back to scanning the disk heap (paying buffer-pool I/O) otherwise. The
// column advisor decides what is loaded under the memory budget.

#include <algorithm>

#include "core/engines.h"

namespace htap {

namespace {

std::unique_ptr<WalWriter> MakeWal(const DatabaseOptions& options,
                                   const std::string& name) {
  if (!options.wal_enabled) return nullptr;
  WalWriter::Options wo;
  const std::string dir = options.data_dir.empty() ? "/tmp" : options.data_dir;
  wo.path = dir + "/" + name + ".wal";
  wo.sync_on_commit = options.sync_on_commit;
  return std::make_unique<WalWriter>(wo);
}

std::vector<int> TouchedColumns(const ScanRequest& req) {
  std::vector<int> cols = req.pred->ReferencedColumns();
  for (int c : req.projection)
    if (std::find(cols.begin(), cols.end(), c) == cols.end())
      cols.push_back(c);
  if (cols.empty())
    for (size_t i = 0; i < req.table->schema.num_columns(); ++i)
      cols.push_back(static_cast<int>(i));
  return cols;
}

bool ExtractPkPoint(const Predicate& pred, int pk_index, Key* key) {
  for (const Predicate* c : pred.Conjuncts()) {
    if (c->kind() == Predicate::Kind::kCompare && c->op() == CmpOp::kEq &&
        c->column() == pk_index && c->literal().is_int64()) {
      *key = c->literal().AsInt64();
      return true;
    }
  }
  return false;
}

/// Remaps a base-schema predicate onto the IMCS's projected layout.
Predicate RemapPredicate(const Predicate& pred,
                         const std::vector<int>& base_to_imcs) {
  switch (pred.kind()) {
    case Predicate::Kind::kTrue:
      return Predicate::True();
    case Predicate::Kind::kCompare:
      return Predicate::Compare(
          base_to_imcs[static_cast<size_t>(pred.column())], pred.op(),
          pred.literal());
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot: {
      std::vector<Predicate> children;
      for (const auto& c : pred.children())
        children.push_back(RemapPredicate(c, base_to_imcs));
      if (pred.kind() == Predicate::Kind::kAnd)
        return Predicate::And(std::move(children));
      if (pred.kind() == Predicate::Kind::kOr)
        return Predicate::Or(std::move(children));
      return Predicate::Not(std::move(children[0]));
    }
  }
  return Predicate::True();
}

/// The chunk restricted to the IMCS's loaded columns, in `loaded` order.
ChangeChunk ProjectChunk(ChangeChunk chunk, const std::vector<int>& loaded) {
  std::vector<ColumnVector> cols;
  cols.reserve(loaded.size());
  for (int c : loaded)
    cols.push_back(std::move(chunk.columns[static_cast<size_t>(c)]));
  chunk.columns = std::move(cols);
  return chunk;
}

/// Wraps a full-row delta so its entries appear in the IMCS's projected
/// layout during the delta+column union.
class ProjectingDeltaReader : public DeltaReader {
 public:
  ProjectingDeltaReader(const InMemoryDeltaStore* inner,
                        std::vector<int> loaded)
      : inner_(inner), loaded_(std::move(loaded)) {}

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override {
    inner_->ScanVisible(snapshot, [&](const DeltaEntry& e) {
      DeltaEntry proj;
      proj.op = e.op;
      proj.key = e.key;
      proj.csn = e.csn;
      if (e.op != ChangeOp::kDelete)
        for (int c : loaded_) proj.row.Append(e.row.Get(static_cast<size_t>(c)));
      visit(proj);
    });
  }
  ChangeChunk VisibleChunk(CSN snapshot) const override {
    return ProjectChunk(inner_->VisibleChunk(snapshot), loaded_);
  }
  size_t EntryCount() const override { return inner_->EntryCount(); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

 private:
  const InMemoryDeltaStore* inner_;
  std::vector<int> loaded_;
};

}  // namespace

DiskHtapEngine::DiskHtapEngine(const DatabaseOptions& options,
                               Catalog* catalog)
    : options_(options),
      catalog_(catalog),
      wal_(MakeWal(options, "diskrow")),
      layer_(wal_.get(), options.commit_shards),
      ap_(options_) {
  layer_.txn_mgr()->RegisterSink(this);
  layer_.txn_mgr()->RegisterSink(&freshness_);
}

DiskHtapEngine::~DiskHtapEngine() = default;

Status DiskHtapEngine::CreateTable(const TableInfo& info) {
  HTAP_RETURN_NOT_OK(layer_.AddTable(info, wal_.get()));
  auto ts = std::make_unique<TableState>();
  ts->info = info;
  const std::string dir =
      options_.data_dir.empty() ? "/tmp" : options_.data_dir;
  ts->heap = std::make_unique<DiskRowStore>(dir + "/" + info.name + ".heap",
                                            info.schema,
                                            options_.buffer_pool_pages);
  HTAP_RETURN_NOT_OK(ts->heap->Open());
  ts->delta = std::make_unique<InMemoryDeltaStore>(info.schema);
  // Start with every column loaded; RefreshColumnSelection applies the
  // advisor + budget once a workload has been observed.
  for (size_t c = 0; c < info.schema.num_columns(); ++c)
    ts->loaded.push_back(static_cast<int>(c));
  ts->imcs = std::make_shared<ColumnTable>(info.schema);
  if (options_.compression_advisor) ts->imcs->EnableCompressionAdvisor(true);
  MutexLock lk(&tables_mu_);
  tables_[info.id] = std::move(ts);
  return Status::OK();
}

std::unique_ptr<TxnContext> DiskHtapEngine::Begin() { return layer_.Begin(); }
Status DiskHtapEngine::Insert(TxnContext* t, const TableInfo& tbl,
                              const Row& r) {
  return layer_.Insert(t, tbl, r);
}
Status DiskHtapEngine::Update(TxnContext* t, const TableInfo& tbl,
                              const Row& r) {
  return layer_.Update(t, tbl, r);
}
Status DiskHtapEngine::Delete(TxnContext* t, const TableInfo& tbl, Key key) {
  return layer_.Delete(t, tbl, key);
}
Status DiskHtapEngine::Get(TxnContext* t, const TableInfo& tbl, Key key,
                           Row* out) {
  return layer_.Get(t, tbl, key, out);
}
Status DiskHtapEngine::Commit(TxnContext* t) { return layer_.Commit(t); }
Status DiskHtapEngine::Abort(TxnContext* t) { return layer_.Abort(t); }
Status DiskHtapEngine::Read(const TableInfo& tbl, Key key, Row* out) {
  return layer_.Read(tbl, key, out);
}

void DiskHtapEngine::OnCommit(const std::vector<ChangeEvent>& events) {
  MutexLock lk(&tables_mu_);
  router_.Route(events, [&](uint32_t tid, TableEvents run) {
    const auto it = tables_.find(tid);
    if (it == tables_.end()) return;
    // Write-through to the durable heap (the "disk row store").
    for (const ChangeEvent* ev : run) {
      if (ev->op == ChangeOp::kDelete)
        it->second->heap->Delete(ev->key);
      else
        it->second->heap->Put(ev->row);
    }
    it->second->delta->AppendEvents(run);
  });
}

Row DiskHtapEngine::ProjectToLoaded(const std::vector<int>& loaded,
                                    const Row& row) {
  Row out;
  for (int c : loaded) out.Append(row.Get(static_cast<size_t>(c)));
  return out;
}

Status DiskHtapEngine::SyncImcs(TableState* ts, CSN target,
                                std::shared_ptr<ColumnTable>* imcs_out,
                                std::vector<int>* loaded_out) {
  // merge_mu serializes drain+apply: two unserialized drains could apply
  // delta batches out of commit order, and a drain concurrent with
  // RefreshColumnSelection could lose its entries into a superseded
  // generation. It is taken *before* tables_mu_ (rank 280 < 300) so the
  // generation snapshot below is the one current for the whole merge.
  MutexLock merge_lk(&ts->merge_mu);
  std::shared_ptr<ColumnTable> imcs;
  std::vector<int> loaded;
  {
    MutexLock lk(&tables_mu_);
    imcs = ts->imcs;
    loaded = ts->loaded;
  }
  MergeChunkIntoColumnTable(imcs.get(),
                            ProjectChunk(ts->delta->DrainUpTo(target), loaded),
                            target);
  if (imcs_out != nullptr) *imcs_out = std::move(imcs);
  if (loaded_out != nullptr) *loaded_out = std::move(loaded);
  return Status::OK();
}

TableStats DiskHtapEngine::RefreshedStats(TableState* ts) {
  const CSN now = layer_.txn_mgr()->LastCommittedCsn();
  MutexLock lk(&ts->stats_mu);
  if (ts->stats.row_count != 0 &&
      now < ts->stats_at_csn + options_.stats_refresh_interval)
    return ts->stats;
  const MvccRowStore* store = layer_.store(ts->info.id);
  std::vector<Row> sample;
  sample.reserve(2048);
  store->Scan(layer_.txn_mgr()->CurrentSnapshot(), [&](Key, const Row& r) {
    sample.push_back(r);
    return sample.size() < 2048;
  });
  ts->stats = TableStats::Compute(ts->info.schema, sample);
  ts->stats.row_count = store->ApproxRowCount();
  ts->stats_at_csn = now;
  // This architecture has no sync driver to maintain stats incrementally;
  // the sampling refresher doubles as the catalog publisher (DESIGN.md §10).
  catalog_->PublishStats(ts->info.name, ts->stats, now);
  return ts->stats;
}

Result<ColumnAdvisor::Selection> DiskHtapEngine::RefreshColumnSelection(
    const TableInfo& tbl) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(tbl.id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  const TableStats table_stats = RefreshedStats(ts);
  const std::vector<size_t> col_bytes =
      EstimateColumnBytes(tbl.schema, table_stats);
  ColumnAdvisor::Selection sel =
      advisor_.Advise(tbl.name, col_bytes, options_.column_memory_budget_bytes);

  // The primary key column always rides along (delta-union identity).
  const int pk = tbl.schema.pk_index();
  if (std::find(sel.columns.begin(), sel.columns.end(), pk) ==
      sel.columns.end()) {
    sel.columns.insert(sel.columns.begin(), pk);
    std::sort(sel.columns.begin(), sel.columns.end());
  }

  // Rebuild the IMCS on the new projection from the durable heap, as a new
  // generation. merge_mu keeps SyncImcs out for the whole drain+rebuild, so
  // no merge can strand drained entries in the superseded generation; in-
  // flight scans keep their pinned shared_ptr alive until they finish.
  MutexLock merge_lk(&ts->merge_mu);
  auto imcs = std::make_shared<ColumnTable>(tbl.schema.Project(sel.columns));
  if (options_.compression_advisor) imcs->EnableCompressionAdvisor(true);
  ts->delta->DrainUpTo(kMaxCSN);  // heap already reflects these
  std::vector<Row> rows;
  HTAP_RETURN_NOT_OK(ts->heap->Scan([&](Key, const Row& r) {
    rows.push_back(ProjectToLoaded(sel.columns, r));
    return true;
  }));
  imcs->AppendBatch(rows, layer_.txn_mgr()->LastCommittedCsn());
  {
    MutexLock lk(&tables_mu_);
    ts->loaded = sel.columns;
    ts->imcs = std::move(imcs);
  }
  return sel;
}

std::vector<int> DiskHtapEngine::LoadedColumns(uint32_t table_id) const {
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(table_id);
  return it == tables_.end() ? std::vector<int>{} : it->second->loaded;
}

Result<DiskHtapEngine::ImcsAccess> DiskHtapEngine::ResolveAccess(
    const ScanRequest& req, TableState* ts) {
  ImcsAccess out;
  std::vector<int> loaded0;
  {
    MutexLock lk(&tables_mu_);
    loaded0 = ts->loaded;
  }
  const TableStats table_stats = RefreshedStats(ts);
  const std::vector<int> touched = TouchedColumns(req);

  // Pushdown is possible only if every referenced column is loaded — the
  // survey's "columns for a new query may have not been selected" caveat.
  const bool all_loaded = std::all_of(
      touched.begin(), touched.end(), [&](int c) {
        return std::find(loaded0.begin(), loaded0.end(), c) != loaded0.end();
      });
  const bool full_projection_ok =
      !req.projection.empty() ||
      loaded0.size() == req.table->schema.num_columns();
  const bool column_capable = all_loaded && full_projection_ok;

  out.pk_point =
      ExtractPkPoint(*req.pred, req.table->schema.pk_index(), &out.pk_key);

  switch (req.path) {
    case PathHint::kForceRow:
      out.path = AccessPath::kRowFullScan;
      break;
    case PathHint::kForceColumn:
      if (!column_capable)
        return Status::InvalidArgument("columns not loaded in IMCS");
      out.path = AccessPath::kColumnScan;
      break;
    case PathHint::kAuto: {
      AccessQuery q;
      q.stats = &table_stats;
      q.pred = req.pred;
      q.columns_needed = touched.size();
      q.total_columns = req.table->schema.num_columns();
      q.delta_entries = ts->delta->EntryCount();
      q.pk_point_lookup = out.pk_point;
      q.column_store_available = column_capable;
      out.path = ChooseAccessPath(CostModel{}, q).path;
      break;
    }
  }
  if (out.path != AccessPath::kColumnScan) return out;

  // Keep the IMCS current, then pin the synced generation. SyncImcs pins
  // the generation it merged into, so a concurrent RefreshColumnSelection
  // cannot free it under the scan that follows.
  std::shared_ptr<ColumnTable> imcs;
  std::vector<int> loaded;
  HTAP_RETURN_NOT_OK(
      SyncImcs(ts, layer_.txn_mgr()->LastCommittedCsn(), &imcs, &loaded));
  // Re-check against the generation actually pinned: a concurrent refresh
  // may have evicted a touched column since the capability check above.
  const bool still_capable =
      (!req.projection.empty() ||
       loaded.size() == req.table->schema.num_columns()) &&
      std::all_of(touched.begin(), touched.end(), [&](int c) {
        return std::find(loaded.begin(), loaded.end(), c) != loaded.end();
      });
  if (!still_capable) {
    if (req.path == PathHint::kForceColumn)
      return Status::InvalidArgument("columns not loaded in IMCS");
    return out;  // imcs_ready stays false: serve from the heap instead
  }
  out.imcs_ready = true;
  std::vector<int> base_to_imcs(req.table->schema.num_columns(), -1);
  for (size_t i = 0; i < loaded.size(); ++i)
    base_to_imcs[static_cast<size_t>(loaded[i])] = static_cast<int>(i);
  out.pred = RemapPredicate(*req.pred, base_to_imcs);
  for (int c : req.projection)
    out.proj.push_back(base_to_imcs[static_cast<size_t>(c)]);
  out.imcs = std::move(imcs);
  out.loaded = std::move(loaded);
  return out;
}

Result<std::vector<Row>> DiskHtapEngine::Scan(const ScanRequest& req,
                                              ScanStats* stats,
                                              std::string* path_desc) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(req.table->id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  advisor_.RecordAccess(req.table->name, TouchedColumns(req));
  HTAP_ASSIGN_OR_RETURN(ImcsAccess acc, ResolveAccess(req, ts));

  if (acc.path == AccessPath::kRowIndexLookup && acc.pk_point) {
    if (path_desc != nullptr) *path_desc = "row-index-lookup";
    std::vector<Row> out;
    Row row;
    if (layer_.Read(*req.table, acc.pk_key, &row).ok() &&
        req.pred->Eval(row)) {
      if (req.projection.empty()) {
        out.push_back(std::move(row));
      } else {
        Row proj;
        for (int c : req.projection)
          proj.Append(row.Get(static_cast<size_t>(c)));
        out.push_back(std::move(proj));
      }
    }
    return out;
  }

  if (acc.path == AccessPath::kColumnScan && acc.imcs_ready) {
    if (path_desc != nullptr) *path_desc = "imcs-pushdown";
    ProjectingDeltaReader delta(ts->delta.get(), acc.loaded);
    return ScanHtap(*acc.imcs, req.require_fresh ? &delta : nullptr,
                    layer_.txn_mgr()->LastCommittedCsn(), acc.pred, acc.proj,
                    ap_.ctx(), stats);
  }

  // Row fallback: scan the disk heap through the buffer pool.
  if (path_desc != nullptr) *path_desc = "disk-heap-scan";
  std::vector<Row> out;
  HTAP_RETURN_NOT_OK(ts->heap->Scan([&](Key, const Row& row) {
    if (req.pred->Eval(row)) {
      if (req.projection.empty()) {
        out.push_back(row);
      } else {
        Row proj;
        for (int c : req.projection)
          proj.Append(row.Get(static_cast<size_t>(c)));
        out.push_back(std::move(proj));
      }
    }
    return true;
  }));
  return out;
}

Result<std::vector<ColumnBatch>> DiskHtapEngine::BatchScan(
    const ScanRequest& req, ScanStats* stats, std::string* path_desc) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(req.table->id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  HTAP_ASSIGN_OR_RETURN(ImcsAccess acc, ResolveAccess(req, ts));
  if (acc.path != AccessPath::kColumnScan || !acc.imcs_ready)
    return Status::NotSupported("IMCS cannot serve this scan");
  // Record the access only once it is certain this path serves the query;
  // a decline falls back to Scan, which records unconditionally.
  advisor_.RecordAccess(req.table->name, TouchedColumns(req));
  if (path_desc != nullptr) *path_desc = "imcs-pushdown";
  ProjectingDeltaReader delta(ts->delta.get(), acc.loaded);
  return ScanHtapBatches(*acc.imcs, req.require_fresh ? &delta : nullptr,
                         layer_.txn_mgr()->LastCommittedCsn(), acc.pred,
                         acc.proj, ap_.ctx(), stats);
}

Result<QueryResult> DiskHtapEngine::Execute(const QueryPlan& plan,
                                            QueryExecInfo* info) {
  const ScanFn scan = [this](const ScanRequest& req, ScanStats* stats,
                             std::string* desc) {
    return Scan(req, stats, desc);
  };
  BatchScanFn batch_scan;
  if (ap_.vectorized)
    batch_scan = [this](const ScanRequest& req, ScanStats* stats,
                        std::string* desc) {
      return BatchScan(req, stats, desc);
    };
  return RunPlan(plan, *catalog_, scan, info,
                 ap_.ctx(layer_.txn_mgr()->LastCommittedCsn()), batch_scan);
}

Status DiskHtapEngine::ForceSync(const TableInfo& tbl) {
  TableState* ts;
  {
    MutexLock lk(&tables_mu_);
    const auto it = tables_.find(tbl.id);
    if (it == tables_.end()) return Status::NotFound("no such table");
    ts = it->second.get();
  }
  // SyncImcs takes merge_mu then tables_mu_; calling it with tables_mu_
  // held would invert the rank order.
  return SyncImcs(ts, layer_.txn_mgr()->LastCommittedCsn(), nullptr, nullptr);
}

FreshnessInfo DiskHtapEngine::Freshness(const TableInfo& tbl) {
  FreshnessInfo f;
  MutexLock lk(&tables_mu_);
  const auto it = tables_.find(tbl.id);
  if (it == tables_.end()) return f;
  f.committed_csn = layer_.txn_mgr()->LastCommittedCsn();
  f.visible_csn = it->second->imcs->merged_csn();
  f.csn_lag = freshness_.CsnLag(f.committed_csn, f.visible_csn);
  f.time_lag_micros = freshness_.TimeLagMicros(f.visible_csn);
  f.fresh_visible_csn = f.committed_csn;  // fresh scans union the delta
  f.fresh_time_lag_micros = 0;
  f.pending_delta_entries = it->second->delta->EntryCount();
  return f;
}

EngineStats DiskHtapEngine::Stats() {
  EngineStats s;
  s.commits = layer_.txn_mgr()->commits();
  s.aborts = layer_.txn_mgr()->aborts();
  s.conflicts = layer_.txn_mgr()->conflicts();
  s.row_store_bytes = layer_.TotalRowStoreBytes();
  MutexLock lk(&tables_mu_);
  for (const auto& [tid, ts] : tables_) {
    s.column_store_bytes += ts->imcs->MemoryBytes();
    s.column_encodings.Merge(ts->imcs->EncodingStats());
    s.delta_bytes += ts->delta->MemoryBytes();
    const BufferPoolStats bp = ts->heap->pool_stats();
    s.buffer_pool_hits += bp.hits;
    s.buffer_pool_misses += bp.misses;
  }
  return s;
}

}  // namespace htap
