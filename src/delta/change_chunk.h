// ChangeChunk: the typed, column-major currency of change propagation.
//
// Committed changes travel from commit publication through the delta
// stores into the column-store merge as ChangeChunks (DESIGN.md §10.1):
// the in-memory delta stores one natively, the L1/L2 delta's L2 layer is a
// queue of them, every DrainUpTo returns one, and the merge gathers the
// surviving positions column by column into a new row group. Only the
// boxed DeltaReader::ScanVisible interface and the L1 layer still see a
// change as a Row.

#ifndef HTAP_DELTA_CHANGE_CHUNK_H_
#define HTAP_DELTA_CHANGE_CHUNK_H_

#include <vector>

#include "columnar/column_vector.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// One committed change, boxed: the form ScanVisible visits.
struct DeltaEntry {
  ChangeOp op = ChangeOp::kInsert;
  Key key = 0;
  Row row;  // empty for deletes
  CSN csn = 0;
};

/// A run of committed changes to one table, in commit order. Entry i is
/// (ops[i], keys[i], csns[i]) plus slot i of every column; a delete's slots
/// are NULL. All vectors have size() entries.
struct ChangeChunk {
  std::vector<ChangeOp> ops;
  std::vector<Key> keys;
  std::vector<CSN> csns;
  std::vector<ColumnVector> columns;  // one per schema column

  ChangeChunk() = default;
  /// An empty chunk with one column per schema column.
  explicit ChangeChunk(const Schema& schema);

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  /// Appends one change, unboxing the row image into the typed columns.
  void Append(ChangeOp op, Key key, CSN csn, const Row& row);
  void Append(const DeltaEntry& e) { Append(e.op, e.key, e.csn, e.row); }

  /// Appends entries [begin, end) of `src`, which has this chunk's layout.
  void AppendRange(const ChangeChunk& src, size_t begin, size_t end);

  /// Keeps the first n entries.
  void Truncate(size_t n);

  /// A new chunk holding a copy of entries [begin, end).
  ChangeChunk Slice(size_t begin, size_t end) const;

  /// An empty chunk with this chunk's column types.
  ChangeChunk EmptyLike() const;

  /// Number of leading entries with csn <= csn (csns ascending).
  size_t CutAt(CSN csn) const;

  /// Row image of entry i (empty for deletes), one reserved Row.
  Row RowAt(size_t i) const;
  DeltaEntry EntryAt(size_t i) const;

  /// Approximate heap bytes entry i occupies: its fixed fields, one slot
  /// per column and its string payloads.
  size_t EntryBytes(size_t i) const;

  /// Approximate heap footprint.
  size_t MemoryBytes() const;
};

}  // namespace htap

#endif  // HTAP_DELTA_CHANGE_CHUNK_H_
