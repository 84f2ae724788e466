// Delta stores: the write-side staging areas that give HTAP architectures
// their freshness/efficiency trade-offs (Table 2, AP + DS rows).
//
// Three designs from the survey, behind one read interface:
//  * InMemoryDeltaStore — in-memory delta (Oracle SMU, SQL Server delta
//    rowgroups, DB2 BLU shadow tables), held as one typed ChangeChunk.
//  * L1L2DeltaStore     — SAP HANA's two-stage delta: L1 keeps raw rows,
//    spilling into columnar L2 chunks, which merge into Main.
//  * LogDeltaStore      — TiDB/TiFlash-style: changes accumulate in encoded
//    "delta files" indexed by a B+-tree; reads must decode the files.
//
// Every store drains into a ChangeChunk (delta/change_chunk.h), the one
// form the merge consumes.

#ifndef HTAP_DELTA_DELTA_H_
#define HTAP_DELTA_DELTA_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "delta/change_chunk.h"
#include "index/btree.h"
#include "txn/types.h"
#include "types/row.h"
#include "types/schema.h"

namespace htap {

/// One commit's events for one table, in commit order.
using TableEvents = std::span<const ChangeEvent* const>;

/// Groups one commit's events into per-table runs — one pass, plus a sort
/// only when tables interleave — so a commit's routing cost does not grow
/// with the number of tables the engine holds. Reuses its buffer across
/// commits; callers serialize (engines route under their table-map mutex).
class EventRouter {
 public:
  /// Calls fn(table_id, events) once per table the commit touched.
  template <typename Fn>
  void Route(const std::vector<ChangeEvent>& events, const Fn& fn) {
    order_.clear();
    for (const ChangeEvent& ev : events) order_.push_back(&ev);
    // Events sit in one vector, so address order is commit order: sorting
    // by (table, address) keeps each table's run in commit order.
    const auto by_table = [](const ChangeEvent* a, const ChangeEvent* b) {
      return a->table_id != b->table_id ? a->table_id < b->table_id : a < b;
    };
    if (!std::is_sorted(order_.begin(), order_.end(), by_table))
      std::sort(order_.begin(), order_.end(), by_table);
    for (size_t lo = 0; lo < order_.size();) {
      size_t hi = lo + 1;
      while (hi < order_.size() &&
             order_[hi]->table_id == order_[lo]->table_id)
        ++hi;
      fn(order_[lo]->table_id, TableEvents(order_.data() + lo, hi - lo));
      lo = hi;
    }
  }

 private:
  std::vector<const ChangeEvent*> order_;
};

/// Uniform read interface the HTAP scan path uses to union a delta with the
/// main column store.
class DeltaReader {
 public:
  virtual ~DeltaReader() = default;

  /// Visits entries with csn <= snapshot in commit order, boxed.
  virtual void ScanVisible(
      CSN snapshot, const std::function<void(const DeltaEntry&)>& visit)
      const = 0;

  /// Typed copy of the entries with csn <= snapshot, in commit order — the
  /// form the AP scan unions with the column store.
  virtual ChangeChunk VisibleChunk(CSN snapshot) const = 0;

  /// Number of staged entries (all CSNs).
  virtual size_t EntryCount() const = 0;

  /// Approximate heap footprint.
  virtual size_t MemoryBytes() const = 0;
};

// ---------------------------------------------------------------------------
// In-memory delta: one typed chunk
// ---------------------------------------------------------------------------

class InMemoryDeltaStore : public DeltaReader {
 public:
  explicit InMemoryDeltaStore(const Schema& schema);

  void Append(const DeltaEntry& e);
  /// Appends one commit's events for this table, unboxed into the chunk.
  void AppendEvents(TableEvents events);

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override;
  ChangeChunk VisibleChunk(CSN snapshot) const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  /// Removes and returns all entries with csn <= csn (the merge pipeline
  /// consumes these). Cuts at the first newer CSN: when the cut covers
  /// everything the chunk is swapped out whole, otherwise only the newer
  /// suffix is copied into a fresh chunk.
  ChangeChunk DrainUpTo(CSN csn);

  /// CSN of the newest staged entry (0 if empty).
  CSN max_csn() const;

 private:
  mutable Mutex mu_{LockRank::kDeltaStore, "delta-inmemory"};
  ChangeChunk chunk_ GUARDED_BY(mu_);
  size_t mem_bytes_ GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// SAP HANA-style L1 (rows) -> L2 (columnar) delta
// ---------------------------------------------------------------------------

class L1L2DeltaStore : public DeltaReader {
 public:
  /// `l1_spill_threshold`: entries held row-wise before converting to L2.
  L1L2DeltaStore(Schema schema, size_t l1_spill_threshold = 4096);

  void Append(const DeltaEntry& e);
  /// Appends one commit's events for this table to L1.
  void AppendEvents(TableEvents events);

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override;
  ChangeChunk VisibleChunk(CSN snapshot) const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  /// Force L1 -> L2 conversion regardless of threshold.
  void SpillL1();

  /// Removes all entries with csn <= csn, returning them in commit order
  /// (L2 chunks first, then remaining L1) for the merge into Main. A cut
  /// inside an L2 chunk leaves its newer suffix in L2.
  ChangeChunk DrainUpTo(CSN csn);

  size_t l1_size() const;
  size_t l2_size() const;

 private:
  void SpillL1Locked() REQUIRES(mu_);

  const Schema schema_;
  const size_t l1_spill_threshold_;
  mutable Mutex mu_{LockRank::kDeltaStore, "delta-l1l2"};
  std::deque<DeltaEntry> l1_ GUARDED_BY(mu_);
  std::deque<ChangeChunk> l2_ GUARDED_BY(mu_);  // columnar, commit order
};

// ---------------------------------------------------------------------------
// TiDB-style log-based (disk) delta files
// ---------------------------------------------------------------------------

class LogDeltaStore : public DeltaReader {
 public:
  explicit LogDeltaStore(Schema schema) : schema_(std::move(schema)) {}

  /// Seals a batch of changes into one encoded delta file.
  void AppendFile(const std::vector<DeltaEntry>& entries);
  /// Seals one commit's events for this table into one delta file.
  void AppendEvents(TableEvents events);

  void ScanVisible(CSN snapshot,
                   const std::function<void(const DeltaEntry&)>& visit)
      const override;
  ChangeChunk VisibleChunk(CSN snapshot) const override;
  size_t EntryCount() const override;
  size_t MemoryBytes() const override;

  /// Point lookup of the newest entry for a key (uses the B+-tree index —
  /// the survey's "delta items efficiently located with key lookups").
  bool LookupLatest(Key key, DeltaEntry* out) const;

  /// Removes all files whose max csn <= csn; returns their decoded entries
  /// in order (the log-based delta merge consumes these).
  ChangeChunk DrainUpTo(CSN csn);

  size_t num_files() const;
  /// Cumulative bytes decoded by reads — the "expensive delta read" cost the
  /// survey attributes to this design.
  uint64_t bytes_decoded() const { return bytes_decoded_; }

 private:
  struct DeltaFile {
    std::string blob;  // encoded entries
    size_t count = 0;
    CSN min_csn = 0, max_csn = 0;
  };

  static void EncodeEntry(const DeltaEntry& e, std::string* out);
  static bool DecodeEntry(const std::string& in, size_t* pos, DeltaEntry* out);

  const Schema schema_;
  mutable Mutex mu_{LockRank::kDeltaStore, "delta-log"};
  std::deque<DeltaFile> files_ GUARDED_BY(mu_);
  // key -> (file_seq << 32 | entry_idx), newest wins. The B+-tree has its
  // own internal latch (rank kBtree, acquired under mu_).
  BTree key_index_;
  uint64_t file_seq_base_ GUARDED_BY(mu_) = 0;  // seq of files_.front()
  mutable std::atomic<uint64_t> bytes_decoded_{0};
};

}  // namespace htap

#endif  // HTAP_DELTA_DELTA_H_
