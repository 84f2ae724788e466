#include "sync/sync.h"

#include <algorithm>

#include "common/flat_index.h"

namespace htap {

const char* SyncStrategyName(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kInMemoryMerge: return "in-memory-delta-merge";
    case SyncStrategy::kLogMerge: return "log-based-delta-merge";
    case SyncStrategy::kRebuild: return "rebuild-from-primary";
  }
  return "?";
}

void FreshnessTracker::OnCommit(const std::vector<ChangeEvent>& events) {
  if (events.empty()) return;
  MutexLock lk(&mu_);
  samples_.emplace_back(events.back().csn, clock_->NowMicros());
  // Bound memory: keep a generous window; freshness questions are about the
  // recent past.
  while (samples_.size() > 100000) samples_.pop_front();
}

Micros FreshnessTracker::TimeLagMicros(CSN visible_csn) const {
  MutexLock lk(&mu_);
  // Oldest commit newer than what is visible.
  for (const auto& [csn, t] : samples_) {
    if (csn > visible_csn) return clock_->NowMicros() - t;
  }
  return 0;
}

DataSynchronizer::DataSynchronizer(SyncStrategy strategy, ColumnTable* table,
                                   std::unique_ptr<DeltaSource> source,
                                   const Clock* clock)
    : strategy_(strategy),
      table_(table),
      source_(std::move(source)),
      clock_(clock) {}

DataSynchronizer::DataSynchronizer(ColumnTable* table,
                                   const MvccRowStore* primary,
                                   const Clock* clock)
    : strategy_(SyncStrategy::kRebuild),
      table_(table),
      primary_(primary),
      clock_(clock) {}

void MergeChunkIntoColumnTable(ColumnTable* table, ChangeChunk chunk,
                               CSN up_to) {
  // Fold on the key vector: one slot per upserted key in first-appearance
  // order, holding the chunk position of its latest upsert; a delete kills
  // the slot until a later upsert revives it. The key itself is the index
  // hash, so a hash match is always the same key.
  const size_t n = chunk.size();
  FlatIndex slots;
  std::vector<uint32_t> latest;  // per slot
  std::vector<uint8_t> dead;     // per slot
  std::vector<Key> deletes;
  for (size_t i = 0; i < n; ++i) {
    const auto key = static_cast<uint64_t>(chunk.keys[i]);
    const auto pos = static_cast<uint32_t>(i);
    if (chunk.ops[i] == ChangeOp::kDelete) {
      const uint32_t s = slots.Find(key);
      if (s != FlatIndex::kNone) dead[s] = 1;
      deletes.push_back(chunk.keys[i]);
      continue;
    }
    const auto fresh = static_cast<uint32_t>(latest.size());
    const uint32_t s = slots.FindOrInsert(
        key, [](uint32_t) { return true; }, [fresh] { return fresh; });
    if (s == fresh) {
      latest.push_back(pos);
      dead.push_back(0);
    } else {
      latest[s] = pos;
      dead[s] = 0;
    }
  }

  for (Key k : deletes) table->DeleteKey(k, 0);

  std::vector<uint32_t> keep;
  keep.reserve(latest.size());
  for (size_t s = 0; s < latest.size(); ++s)
    if (!dead[s]) keep.push_back(latest[s]);
  if (keep.size() == n) {
    // Every entry survives in place (distinct keys, no deletes).
    table->AppendColumns(std::move(chunk.columns), up_to);
    return;
  }
  std::vector<ColumnVector> cols;
  cols.reserve(chunk.columns.size());
  for (const ColumnVector& src : chunk.columns) {
    ColumnVector dst(src.type());
    dst.AppendGather(src, keep);
    cols.push_back(std::move(dst));
  }
  table->AppendColumns(std::move(cols), up_to);
}

void DataSynchronizer::EnableStatsMaintenance(
    StatsPublishFn publish, size_t compact_delete_threshold) {
  MutexLock lk(&mu_);
  stats_builder_ = std::make_unique<TableStatsBuilder>(table_->schema());
  publish_stats_ = std::move(publish);
  compact_delete_threshold_ = compact_delete_threshold;
}

Status DataSynchronizer::SyncTo(CSN target_csn) {
  MutexLock lk(&mu_);
  if (target_csn <= table_->merged_csn()) return Status::OK();
  const Micros t0 = clock_->NowMicros();

  if (strategy_ == SyncStrategy::kRebuild) {
    if (primary_ == nullptr)
      return Status::Internal("rebuild synchronizer has no primary store");
    // Full repopulation from a row-store snapshot, unboxed straight into
    // the typed columns.
    const Schema& schema = table_->schema();
    std::vector<ColumnVector> cols;
    cols.reserve(schema.num_columns());
    const size_t approx = primary_->ApproxRowCount();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      cols.emplace_back(schema.column(c).type);
      cols.back().Reserve(approx);
    }
    size_t rows = 0;
    const Snapshot snap{target_csn, 0};
    primary_->Scan(snap, [&](Key, const Row& r) {
      for (size_t c = 0; c < cols.size(); ++c) cols[c].AppendValue(r.Get(c));
      ++rows;
      return true;
    });
    if (stats_builder_ != nullptr)
      // A rebuild already holds the full live row set — recompute exactly.
      stats_builder_->RecomputeFromColumns(cols);
    table_->Clear();
    table_->AppendColumns(std::move(cols), target_csn);
    stats_.rows_loaded += rows;
    if (stats_builder_ != nullptr)
      publish_stats_(stats_builder_->Snapshot(rows), target_csn);
  } else {
    if (source_ == nullptr)
      return Status::Internal("merge synchronizer has no delta source");
    ChangeChunk chunk = source_->DrainUpTo(target_csn);
    stats_.entries_merged += chunk.size();
    // The stats fold reads the chunk before the merge moves its columns.
    if (stats_builder_ != nullptr) stats_builder_->AddChunk(chunk);
    MergeChunkIntoColumnTable(table_, std::move(chunk), target_csn);
    if (stats_builder_ != nullptr) {
      if (stats_builder_->deletes_since_recompute() >
          compact_delete_threshold_) {
        // Delete drift: the sketches only widen, so compact away the dead
        // rows and recompute from what actually survives.
        table_->Compact();
        stats_builder_->RecomputeFromColumnTable(*table_);
      }
      publish_stats_(stats_builder_->Snapshot(table_->live_rows()),
                     target_csn);
    }
  }

  const Micros dt = clock_->NowMicros() - t0;
  ++stats_.merges;
  stats_.last_merge_micros = static_cast<uint64_t>(dt);
  stats_.merge_micros_total += static_cast<uint64_t>(dt);
  return Status::OK();
}

BackgroundSyncer::BackgroundSyncer(DataSynchronizer* sync,
                                   TransactionManager* txn_mgr,
                                   Micros interval_micros,
                                   size_t entry_threshold)
    : sync_(sync),
      txn_mgr_(txn_mgr),
      interval_micros_(interval_micros),
      entry_threshold_(entry_threshold),
      thread_([this] { Loop(); }) {}

BackgroundSyncer::~BackgroundSyncer() { Stop(); }

void BackgroundSyncer::Stop() {
  // order: release pairs with Loop()'s acquire poll; join() below is the
  // real synchronization, release just keeps the flag conventional.
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

Status BackgroundSyncer::ForceSync() {
  return sync_->SyncTo(txn_mgr_->LastCommittedCsn());
}

void BackgroundSyncer::Loop() {
  Micros slept = 0;
  const Micros tick = 1000;  // re-check stop and threshold every 1ms
  // order: acquire pairs with Stop()'s release store of the flag.
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(tick));
    slept += tick;
    const bool threshold_hit =
        entry_threshold_ != 0 && sync_->PendingEntries() >= entry_threshold_;
    if (slept >= interval_micros_ || threshold_hit) {
      sync_->SyncTo(txn_mgr_->LastCommittedCsn());
      slept = 0;
    }
  }
}

}  // namespace htap
