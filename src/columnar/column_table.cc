#include "columnar/column_table.h"

#include "columnar/compression_advisor.h"

namespace htap {

void ColumnTable::EnableCompressionAdvisor(bool on) {
  WriteGuard g(latch_);
  advise_encodings_ = on;
}

std::vector<ColumnVector> ColumnsFromRows(const Schema& schema,
                                          const std::vector<Row>& rows) {
  std::vector<ColumnVector> cols;
  cols.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnVector vec(schema.column(c).type);
    vec.Reserve(rows.size());
    for (const Row& r : rows) vec.AppendValue(r.Get(c));
    cols.push_back(std::move(vec));
  }
  return cols;
}

void ColumnTable::AppendBatch(const std::vector<Row>& rows, CSN up_to_csn) {
  AppendColumns(ColumnsFromRows(schema_, rows), up_to_csn);
}

void ColumnTable::AppendColumns(std::vector<ColumnVector> columns,
                                CSN up_to_csn) {
  if (!columns.empty() && columns[0].size() > 0) {
    WriteGuard g(latch_);
    AppendColumnsLocked(std::move(columns));
  }
  // order: release — freshness probes read merged_csn_ with acquire outside
  // the latch; the merged rows must be visible before the watermark.
  merged_csn_.store(up_to_csn, std::memory_order_release);
}

void ColumnTable::AppendColumnsLocked(std::vector<ColumnVector> columns) {
  const size_t n = columns[0].size();
  auto group = std::make_unique<RowGroup>();
  group->num_rows = n;
  group->keys = columns[static_cast<size_t>(schema_.pk_index())].ints();
  group->deleted.Resize(n);

  // One key-index probe per row: a key already indexed is an update, so its
  // old position (possibly earlier in this batch) is delete-marked.
  const auto gidx = static_cast<uint32_t>(groups_.size());
  for (size_t i = 0; i < n; ++i) {
    const auto pos = std::make_pair(gidx, static_cast<uint32_t>(i));
    const auto [it, inserted] = key_index_.try_emplace(group->keys[i], pos);
    if (inserted) continue;
    const auto [old_group, old_offset] = it->second;
    (old_group == gidx ? group.get() : groups_[old_group].get())
        ->deleted.Set(old_offset);
    it->second = pos;
  }

  group->columns.reserve(columns.size());
  for (const ColumnVector& vec : columns)
    group->columns.push_back(
        advise_encodings_
            ? Segment::BuildWithEncoding(vec, AdviseEncoding(vec).chosen)
            : Segment::Build(vec));
  groups_.push_back(std::move(group));
}

bool ColumnTable::DeleteKey(Key key, CSN csn) {
  WriteGuard g(latch_);
  const auto it = key_index_.find(key);
  bool found = false;
  if (it != key_index_.end()) {
    groups_[it->second.first]->deleted.Set(it->second.second);
    key_index_.erase(it);
    found = true;
  }
  if (csn > merged_csn_.load(std::memory_order_relaxed))
    // order: release — as AppendBatch: the delete must be visible before
    // the watermark that advertises it.
    merged_csn_.store(csn, std::memory_order_release);
  return found;
}

void ColumnTable::Clear() {
  WriteGuard g(latch_);
  groups_.clear();
  key_index_.clear();
  // order: release — the reset store must not reorder before the clears.
  merged_csn_.store(0, std::memory_order_release);
}

size_t ColumnTable::Compact() {
  WriteGuard g(latch_);
  size_t before = 0, after = 0;
  for (auto& gp : groups_) before += gp->MemoryBytes();

  // Gather every group's live positions column by column into one group.
  std::vector<ColumnVector> live;
  live.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c)
    live.emplace_back(schema_.column(c).type);
  std::vector<uint32_t> sel;
  for (const auto& gp : groups_) {
    sel.clear();
    for (uint32_t i = 0; i < gp->num_rows; ++i)
      if (!gp->deleted.Test(i)) sel.push_back(i);
    if (sel.empty()) continue;
    for (size_t c = 0; c < live.size(); ++c)
      live[c].AppendGather(gp->columns[c].Decode(), sel);
  }
  groups_.clear();
  key_index_.clear();
  if (!live.empty() && live[0].size() > 0)
    AppendColumnsLocked(std::move(live));
  for (auto& gp : groups_) after += gp->MemoryBytes();
  return before > after ? before - after : 0;
}

size_t ColumnTable::num_groups() const {
  ReadGuard g(latch_);
  return groups_.size();
}

const RowGroup* ColumnTable::group(size_t i) const {
  ReadGuard g(latch_);
  return groups_[i].get();
}

Row ColumnTable::MaterializeRow(const RowGroup& g, size_t offset) const {
  Row r;
  for (const auto& col : g.columns) r.Append(col.Get(offset));
  return r;
}

bool ColumnTable::FindKey(Key key, size_t* group_idx, size_t* offset) const {
  ReadGuard g(latch_);
  const auto it = key_index_.find(key);
  if (it == key_index_.end()) return false;
  if (groups_[it->second.first]->deleted.Test(it->second.second)) return false;
  *group_idx = it->second.first;
  *offset = it->second.second;
  return true;
}

size_t ColumnTable::live_rows() const {
  ReadGuard g(latch_);
  size_t n = 0;
  for (const auto& gp : groups_) n += gp->num_rows - gp->deleted.Count();
  return n;
}

size_t ColumnTable::MemoryBytes() const {
  ReadGuard g(latch_);
  size_t b = sizeof(*this) + key_index_.size() * 24;
  for (const auto& gp : groups_) b += gp->MemoryBytes();
  return b;
}

EncodingBreakdown ColumnTable::EncodingStats() const {
  ReadGuard g(latch_);
  EncodingBreakdown out;
  for (const auto& gp : groups_) {
    for (const Segment& seg : gp->columns) {
      const auto e = static_cast<size_t>(seg.encoded().encoding);
      ++out.segments[e];
      out.bytes[e] += seg.MemoryBytes();
    }
  }
  return out;
}

}  // namespace htap
