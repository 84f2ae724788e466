#include "delta/delta.h"

#include <algorithm>

namespace htap {

namespace {

size_t EntryBytes(const DeltaEntry& e) {
  return sizeof(DeltaEntry) + e.row.MemoryBytes();
}

}  // namespace

// ---------------------------------------------------------------------------
// InMemoryDeltaStore
// ---------------------------------------------------------------------------

InMemoryDeltaStore::InMemoryDeltaStore(const Schema& schema)
    : chunk_(schema) {}

void InMemoryDeltaStore::Append(const DeltaEntry& e) {
  MutexLock lk(&mu_);
  chunk_.Append(e);
  mem_bytes_ += chunk_.EntryBytes(chunk_.size() - 1);
}

void InMemoryDeltaStore::AppendEvents(TableEvents events) {
  MutexLock lk(&mu_);
  for (const ChangeEvent* ev : events) {
    chunk_.Append(ev->op, ev->key, ev->csn, ev->row);
    mem_bytes_ += chunk_.EntryBytes(chunk_.size() - 1);
  }
}

void InMemoryDeltaStore::ScanVisible(
    CSN snapshot, const std::function<void(const DeltaEntry&)>& visit) const {
  MutexLock lk(&mu_);
  const size_t cut = chunk_.CutAt(snapshot);
  for (size_t i = 0; i < cut; ++i) visit(chunk_.EntryAt(i));
}

ChangeChunk InMemoryDeltaStore::VisibleChunk(CSN snapshot) const {
  MutexLock lk(&mu_);
  return chunk_.Slice(0, chunk_.CutAt(snapshot));
}

size_t InMemoryDeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  return chunk_.size();
}

size_t InMemoryDeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  return mem_bytes_;
}

ChangeChunk InMemoryDeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  const size_t n = chunk_.size();
  const size_t cut = chunk_.CutAt(csn);
  if (cut == 0) return chunk_.EmptyLike();
  ChangeChunk out = std::move(chunk_);
  chunk_ = out.Slice(cut, n);  // the newer suffix stays staged
  out.Truncate(cut);
  mem_bytes_ = 0;
  for (size_t i = 0; i < chunk_.size(); ++i)
    mem_bytes_ += chunk_.EntryBytes(i);
  return out;
}

CSN InMemoryDeltaStore::max_csn() const {
  MutexLock lk(&mu_);
  return chunk_.empty() ? 0 : chunk_.csns.back();
}

// ---------------------------------------------------------------------------
// L1L2DeltaStore
// ---------------------------------------------------------------------------

L1L2DeltaStore::L1L2DeltaStore(Schema schema, size_t l1_spill_threshold)
    : schema_(std::move(schema)), l1_spill_threshold_(l1_spill_threshold) {}

void L1L2DeltaStore::Append(const DeltaEntry& e) {
  MutexLock lk(&mu_);
  l1_.push_back(e);
  if (l1_.size() >= l1_spill_threshold_) SpillL1Locked();
}

void L1L2DeltaStore::AppendEvents(TableEvents events) {
  MutexLock lk(&mu_);
  for (const ChangeEvent* ev : events)
    l1_.push_back(DeltaEntry{ev->op, ev->key, ev->row, ev->csn});
  if (l1_.size() >= l1_spill_threshold_) SpillL1Locked();
}

void L1L2DeltaStore::SpillL1() {
  MutexLock lk(&mu_);
  SpillL1Locked();
}

void L1L2DeltaStore::SpillL1Locked() {
  if (l1_.empty()) return;
  ChangeChunk chunk(schema_);
  for (const DeltaEntry& e : l1_) chunk.Append(e);
  l1_.clear();
  l2_.push_back(std::move(chunk));
}

void L1L2DeltaStore::ScanVisible(
    CSN snapshot, const std::function<void(const DeltaEntry&)>& visit) const {
  MutexLock lk(&mu_);
  // L2 chunks are strictly older than L1 (spill preserves order).
  for (const ChangeChunk& chunk : l2_) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (chunk.csns[i] > snapshot) return;
      visit(chunk.EntryAt(i));
    }
  }
  for (const auto& e : l1_) {
    if (e.csn > snapshot) return;
    visit(e);
  }
}

ChangeChunk L1L2DeltaStore::VisibleChunk(CSN snapshot) const {
  MutexLock lk(&mu_);
  ChangeChunk out(schema_);
  for (const ChangeChunk& chunk : l2_) {
    const size_t cut = chunk.CutAt(snapshot);
    out.AppendRange(chunk, 0, cut);
    if (cut < chunk.size()) return out;
  }
  for (const auto& e : l1_) {
    if (e.csn > snapshot) break;
    out.Append(e);
  }
  return out;
}

size_t L1L2DeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  size_t n = l1_.size();
  for (const auto& c : l2_) n += c.size();
  return n;
}

size_t L1L2DeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  size_t b = 0;
  for (const auto& e : l1_) b += EntryBytes(e);
  for (const auto& c : l2_) b += c.MemoryBytes();
  return b;
}

ChangeChunk L1L2DeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  ChangeChunk out(schema_);
  while (!l2_.empty()) {
    ChangeChunk& front = l2_.front();
    const size_t cut = front.CutAt(csn);
    if (cut < front.size()) {
      // Cut inside the chunk: the older prefix drains, the rest stays L2.
      if (cut > 0) {
        out.AppendRange(front, 0, cut);
        front = front.Slice(cut, front.size());
      }
      return out;  // L1 is newer still
    }
    if (out.empty())
      out = std::move(front);
    else
      out.AppendRange(front, 0, front.size());
    l2_.pop_front();
  }
  while (!l1_.empty() && l1_.front().csn <= csn) {
    out.Append(l1_.front());
    l1_.pop_front();
  }
  return out;
}

size_t L1L2DeltaStore::l1_size() const {
  MutexLock lk(&mu_);
  return l1_.size();
}

size_t L1L2DeltaStore::l2_size() const {
  MutexLock lk(&mu_);
  size_t n = 0;
  for (const auto& c : l2_) n += c.size();
  return n;
}

// ---------------------------------------------------------------------------
// LogDeltaStore
// ---------------------------------------------------------------------------

void LogDeltaStore::EncodeEntry(const DeltaEntry& e, std::string* out) {
  out->push_back(static_cast<char>(e.op));
  Value(e.key).EncodeTo(out);
  Value(static_cast<int64_t>(e.csn)).EncodeTo(out);
  e.row.EncodeTo(out);
}

bool LogDeltaStore::DecodeEntry(const std::string& in, size_t* pos,
                                DeltaEntry* out) {
  if (*pos >= in.size()) return false;
  out->op = static_cast<ChangeOp>(in[(*pos)++]);
  Value v;
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->key = v.AsInt64();
  if (!Value::DecodeFrom(in, pos, &v) || !v.is_int64()) return false;
  out->csn = static_cast<CSN>(v.AsInt64());
  return Row::DecodeFrom(in, pos, &out->row);
}

void LogDeltaStore::AppendFile(const std::vector<DeltaEntry>& entries) {
  if (entries.empty()) return;
  DeltaFile f;
  f.count = entries.size();
  f.min_csn = entries.front().csn;
  f.max_csn = entries.front().csn;
  for (const auto& e : entries) {
    f.min_csn = std::min(f.min_csn, e.csn);
    f.max_csn = std::max(f.max_csn, e.csn);
    EncodeEntry(e, &f.blob);
  }
  MutexLock lk(&mu_);
  const uint64_t seq = file_seq_base_ + files_.size();
  files_.push_back(std::move(f));
  for (size_t i = 0; i < entries.size(); ++i)
    key_index_.Insert(entries[i].key, (seq << 32) | i);
}

void LogDeltaStore::AppendEvents(TableEvents events) {
  std::vector<DeltaEntry> entries;
  entries.reserve(events.size());
  for (const ChangeEvent* ev : events)
    entries.push_back(DeltaEntry{ev->op, ev->key, ev->row, ev->csn});
  AppendFile(entries);
}

void LogDeltaStore::ScanVisible(
    CSN snapshot, const std::function<void(const DeltaEntry&)>& visit) const {
  MutexLock lk(&mu_);
  for (const auto& f : files_) {
    if (f.min_csn > snapshot) break;
    // Reads must decode the file — the cost the survey flags for this design.
    bytes_decoded_.fetch_add(f.blob.size(), std::memory_order_relaxed);
    size_t pos = 0;
    DeltaEntry e;
    while (DecodeEntry(f.blob, &pos, &e)) {
      if (e.csn > snapshot) return;
      visit(e);
    }
  }
}

ChangeChunk LogDeltaStore::VisibleChunk(CSN snapshot) const {
  ChangeChunk out(schema_);
  ScanVisible(snapshot, [&](const DeltaEntry& e) { out.Append(e); });
  return out;
}

size_t LogDeltaStore::EntryCount() const {
  MutexLock lk(&mu_);
  size_t n = 0;
  for (const auto& f : files_) n += f.count;
  return n;
}

size_t LogDeltaStore::MemoryBytes() const {
  MutexLock lk(&mu_);
  size_t b = key_index_.MemoryBytes();
  for (const auto& f : files_) b += f.blob.capacity() + sizeof(DeltaFile);
  return b;
}

bool LogDeltaStore::LookupLatest(Key key, DeltaEntry* out) const {
  MutexLock lk(&mu_);
  uint64_t payload;
  if (!key_index_.Lookup(key, &payload)) return false;
  const uint64_t seq = payload >> 32;
  const uint32_t idx = static_cast<uint32_t>(payload & 0xffffffffu);
  if (seq < file_seq_base_) return false;  // stale index entry: file merged
  const DeltaFile& f = files_[seq - file_seq_base_];
  bytes_decoded_.fetch_add(f.blob.size(), std::memory_order_relaxed);
  size_t pos = 0;
  DeltaEntry e;
  uint32_t i = 0;
  while (DecodeEntry(f.blob, &pos, &e)) {
    if (i == idx) {
      *out = std::move(e);
      return true;
    }
    ++i;
  }
  return false;
}

ChangeChunk LogDeltaStore::DrainUpTo(CSN csn) {
  MutexLock lk(&mu_);
  ChangeChunk out(schema_);
  while (!files_.empty() && files_.front().max_csn <= csn) {
    const DeltaFile& f = files_.front();
    size_t pos = 0;
    DeltaEntry e;
    while (DecodeEntry(f.blob, &pos, &e)) out.Append(e);
    files_.pop_front();
    ++file_seq_base_;
  }
  return out;
}

size_t LogDeltaStore::num_files() const {
  MutexLock lk(&mu_);
  return files_.size();
}

}  // namespace htap
