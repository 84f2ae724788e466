#include "delta/change_chunk.h"

#include <algorithm>

namespace htap {

ChangeChunk::ChangeChunk(const Schema& schema) {
  columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c)
    columns.emplace_back(schema.column(c).type);
}

void ChangeChunk::Append(ChangeOp op, Key key, CSN csn, const Row& row) {
  ops.push_back(op);
  keys.push_back(key);
  csns.push_back(csn);
  for (size_t c = 0; c < columns.size(); ++c) {
    if (op == ChangeOp::kDelete || c >= row.size())
      columns[c].AppendNull();
    else
      columns[c].AppendValue(row.Get(c));
  }
}

void ChangeChunk::AppendRange(const ChangeChunk& src, size_t begin,
                              size_t end) {
  const auto b = static_cast<long>(begin), e = static_cast<long>(end);
  ops.insert(ops.end(), src.ops.begin() + b, src.ops.begin() + e);
  keys.insert(keys.end(), src.keys.begin() + b, src.keys.begin() + e);
  csns.insert(csns.end(), src.csns.begin() + b, src.csns.begin() + e);
  for (size_t c = 0; c < columns.size(); ++c)
    columns[c].AppendRange(src.columns[c], begin, end);
}

void ChangeChunk::Truncate(size_t n) {
  if (n >= size()) return;
  ops.resize(n);
  keys.resize(n);
  csns.resize(n);
  for (ColumnVector& col : columns) col.Truncate(n);
}

ChangeChunk ChangeChunk::Slice(size_t begin, size_t end) const {
  ChangeChunk out = EmptyLike();
  out.AppendRange(*this, begin, end);
  return out;
}

ChangeChunk ChangeChunk::EmptyLike() const {
  ChangeChunk out;
  out.columns.reserve(columns.size());
  for (const ColumnVector& col : columns) out.columns.emplace_back(col.type());
  return out;
}

size_t ChangeChunk::CutAt(CSN csn) const {
  return static_cast<size_t>(std::upper_bound(csns.begin(), csns.end(), csn) -
                             csns.begin());
}

Row ChangeChunk::RowAt(size_t i) const {
  if (ops[i] == ChangeOp::kDelete) return Row();
  std::vector<Value> vals;
  vals.reserve(columns.size());
  for (const ColumnVector& col : columns) vals.push_back(col.GetValue(i));
  return Row(std::move(vals));
}

DeltaEntry ChangeChunk::EntryAt(size_t i) const {
  return DeltaEntry{ops[i], keys[i], RowAt(i), csns[i]};
}

size_t ChangeChunk::EntryBytes(size_t i) const {
  size_t b = sizeof(ChangeOp) + sizeof(Key) + sizeof(CSN);
  for (const ColumnVector& col : columns)
    b += col.type() == Type::kString
             ? sizeof(std::string) + col.GetString(i).capacity()
             : 8;
  return b;
}

size_t ChangeChunk::MemoryBytes() const {
  size_t b = sizeof(*this) + ops.capacity() * sizeof(ChangeOp) +
             keys.capacity() * sizeof(Key) + csns.capacity() * sizeof(CSN);
  for (const ColumnVector& col : columns) b += col.MemoryBytes();
  return b;
}

}  // namespace htap
