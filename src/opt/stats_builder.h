// Incremental table-statistics maintenance (Table 2, QO row; DESIGN.md §10).
//
// The sync driver folds every merged delta batch into a TableStatsBuilder
// and republishes a TableStats snapshot to the catalog, so join planning can
// happen at plan time from metadata instead of paying an execution-time
// scan. NDV is tracked with a k-minimum-values sketch (exact below k
// distinct values); min/max only widen and deletes cannot shrink any
// estimate, so the builder periodically corrects drift with a full recompute
// over the compacted column store.

#ifndef HTAP_OPT_STATS_BUILDER_H_
#define HTAP_OPT_STATS_BUILDER_H_

#include <string>
#include <vector>

#include "columnar/column_table.h"
#include "delta/change_chunk.h"
#include "opt/optimizer.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// K-minimum-values distinct-count sketch over Value::Hash(). Exact while
/// fewer than k distinct hashes have been seen; beyond that it keeps the k
/// smallest hashes and estimates ndv ≈ (k-1) · 2^64 / kth_smallest — the
/// classic KMV estimator. Adds are idempotent, so replaying an upsert never
/// inflates the count.
class KmvSketch {
 public:
  explicit KmvSketch(size_t k = kDefaultK) : k_(k) {}

  void Add(uint64_t hash);
  double Estimate() const;
  void Reset() { mins_.clear(); }
  size_t k() const { return k_; }

  static constexpr size_t kDefaultK = 256;

 private:
  size_t k_;
  std::vector<uint64_t> mins_;  // the k smallest distinct hashes, ascending
};

/// Accumulates per-column min/max, NDV, null-fraction, and width statistics
/// incrementally from sync-merged change chunks, with a full-recompute
/// escape hatch for delete drift. Every fold is typed and column at a time:
/// hashes come from HashInt64/HashDouble/HashString (equal to Value::Hash),
/// and min/max are kept unboxed until Snapshot. The result is bit-identical
/// to folding each upserted row's Values in commit order. The builder does NOT track the live row
/// count — an upsert cannot be classified insert-vs-update from the delta
/// alone — so publishers pass the authoritative count (e.g.
/// ColumnTable::live_rows()) to Snapshot().
///
/// Not thread-safe; callers serialize (the sync driver already holds its
/// per-table merge mutex).
class TableStatsBuilder {
 public:
  explicit TableStatsBuilder(const Schema& schema,
                             size_t kmv_k = KmvSketch::kDefaultK);

  /// Widens min/max and feeds the NDV sketches for every upserted entry of
  /// the chunk; counts its deletes toward deletes_since_recompute().
  void AddChunk(const ChangeChunk& chunk);

  /// Full recompute from the column table's live rows, decoded segment by
  /// segment (takes the table's shared latch). Resets the delete-drift
  /// counter.
  void RecomputeFromColumnTable(const ColumnTable& table);

  /// Full recompute from whole columns, every slot live (the rebuild-sync
  /// path).
  void RecomputeFromColumns(const std::vector<ColumnVector>& columns);

  /// Deletes applied since the last full recompute — the caller's
  /// compaction / recompute trigger.
  size_t deletes_since_recompute() const { return deletes_since_recompute_; }

  /// Snapshot as a TableStats; the live `row_count` is supplied by the
  /// caller (see the class comment).
  TableStats Snapshot(size_t row_count) const;

 private:
  struct ColumnAcc {
    Type type = Type::kInt64;
    bool has_bounds = false;
    int64_t imin = 0, imax = 0;  // kInt64 bounds
    double dmin = 0, dmax = 0;   // kDouble bounds
    std::string smin, smax;      // kString bounds
    KmvSketch sketch;
    size_t values = 0;  // non-null values accumulated
    size_t nulls = 0;
    double width_sum = 0;
  };

  void Reset();
  /// Folds the slots `sel` of `col` (every slot when sel is null) into
  /// column c's accumulator, in order.
  void FoldColumn(size_t c, const ColumnVector& col,
                  const std::vector<uint32_t>* sel);

  size_t kmv_k_;
  std::vector<ColumnAcc> cols_;
  size_t deletes_since_recompute_ = 0;
};

}  // namespace htap

#endif  // HTAP_OPT_STATS_BUILDER_H_
