#include "opt/stats_builder.h"

#include <algorithm>

namespace htap {

void KmvSketch::Add(uint64_t hash) {
  if (mins_.size() >= k_ && hash >= mins_.back()) return;
  const auto it = std::lower_bound(mins_.begin(), mins_.end(), hash);
  if (it != mins_.end() && *it == hash) return;
  mins_.insert(it, hash);
  if (mins_.size() > k_) mins_.pop_back();
}

double KmvSketch::Estimate() const {
  if (mins_.size() < k_) return static_cast<double>(mins_.size());
  const double kth = static_cast<double>(mins_.back());
  if (kth <= 0) return static_cast<double>(mins_.size());
  constexpr double kHashSpace = 18446744073709551616.0;  // 2^64
  return (static_cast<double>(k_) - 1.0) * kHashSpace / kth;
}

TableStatsBuilder::TableStatsBuilder(const Schema& schema, size_t kmv_k)
    : kmv_k_(kmv_k) {
  cols_.resize(schema.num_columns());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].type = schema.column(c).type;
    cols_[c].sketch = KmvSketch(kmv_k_);
  }
}

void TableStatsBuilder::Reset() {
  for (ColumnAcc& c : cols_) {
    c.has_bounds = false;
    c.smin.clear();
    c.smax.clear();
    c.sketch.Reset();
    c.values = 0;
    c.nulls = 0;
    c.width_sum = 0;
  }
  deletes_since_recompute_ = 0;
}

void TableStatsBuilder::FoldColumn(size_t c, const ColumnVector& col,
                                   const std::vector<uint32_t>* sel) {
  ColumnAcc& acc = cols_[c];
  const size_t n = sel != nullptr ? sel->size() : col.size();
  const bool any_null = col.nulls().AnySet();
  const auto fold = [&](const auto& vals, auto* mn, auto* mx,
                        const auto& hash, const auto& width) {
    for (size_t k = 0; k < n; ++k) {
      const size_t i = sel != nullptr ? (*sel)[k] : k;
      if (any_null && col.IsNull(i)) {
        ++acc.nulls;
        continue;
      }
      const auto& v = vals[i];
      acc.sketch.Add(hash(v));
      acc.width_sum += width(v);
      ++acc.values;
      if (!acc.has_bounds) {
        *mn = v;
        *mx = v;
        acc.has_bounds = true;
      } else {
        if (v < *mn) *mn = v;
        if (*mx < v) *mx = v;
      }
    }
  };
  const auto fixed_width = [](const auto&) { return 8.0; };
  switch (acc.type) {
    case Type::kInt64:
      fold(col.ints(), &acc.imin, &acc.imax, HashInt64, fixed_width);
      break;
    case Type::kDouble:
      fold(col.doubles(), &acc.dmin, &acc.dmax, HashDouble, fixed_width);
      break;
    case Type::kString:
      fold(col.strings(), &acc.smin, &acc.smax, HashString,
           [](const std::string& v) { return static_cast<double>(v.size()); });
      break;
  }
}

void TableStatsBuilder::AddChunk(const ChangeChunk& chunk) {
  std::vector<uint32_t> upserts;
  upserts.reserve(chunk.size());
  for (size_t i = 0; i < chunk.size(); ++i) {
    if (chunk.ops[i] == ChangeOp::kDelete)
      ++deletes_since_recompute_;
    else
      upserts.push_back(static_cast<uint32_t>(i));
  }
  const std::vector<uint32_t>* sel =
      upserts.size() == chunk.size() ? nullptr : &upserts;
  const size_t n = std::min(cols_.size(), chunk.columns.size());
  for (size_t c = 0; c < n; ++c) FoldColumn(c, chunk.columns[c], sel);
}

void TableStatsBuilder::RecomputeFromColumnTable(const ColumnTable& table) {
  Reset();
  ReadGuard rg(table.latch());
  std::vector<uint32_t> live;
  for (size_t g = 0; g < table.num_groups_unlocked(); ++g) {
    const RowGroup* group = table.group_unlocked(g);
    const bool any_deleted = group->deleted.AnySet();
    live.clear();
    if (any_deleted)
      for (uint32_t i = 0; i < group->num_rows; ++i)
        if (!group->deleted.Test(i)) live.push_back(i);
    const size_t n = std::min(cols_.size(), group->columns.size());
    for (size_t c = 0; c < n; ++c)
      FoldColumn(c, group->columns[c].Decode(), any_deleted ? &live : nullptr);
  }
}

void TableStatsBuilder::RecomputeFromColumns(
    const std::vector<ColumnVector>& columns) {
  Reset();
  const size_t n = std::min(cols_.size(), columns.size());
  for (size_t c = 0; c < n; ++c) FoldColumn(c, columns[c], nullptr);
}

TableStats TableStatsBuilder::Snapshot(size_t row_count) const {
  TableStats st;
  st.row_count = row_count;
  st.columns.resize(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    const ColumnAcc& acc = cols_[c];
    ColumnStats& cs = st.columns[c];
    if (acc.has_bounds) {
      switch (acc.type) {
        case Type::kInt64:
          cs.min = Value(acc.imin);
          cs.max = Value(acc.imax);
          break;
        case Type::kDouble:
          cs.min = Value(acc.dmin);
          cs.max = Value(acc.dmax);
          break;
        case Type::kString:
          cs.min = Value(acc.smin);
          cs.max = Value(acc.smax);
          break;
      }
    }
    cs.ndv = std::max(1.0, acc.sketch.Estimate());
    const size_t seen = acc.values + acc.nulls;
    cs.null_frac = seen == 0 ? 0 : static_cast<double>(acc.nulls) / seen;
    cs.avg_width =
        acc.values == 0 ? 8 : acc.width_sum / static_cast<double>(acc.values);
  }
  return st;
}

}  // namespace htap
