// A TPC-C terminal bound to one home warehouse. It draws the 45/43/4/8 mix
// of NewOrder, Payment, Delivery and OrderStatus from its own seeded
// generator, retries a transaction that fails with Conflict with the same
// parameters (up to kMaxAttempts), and after each acknowledged commit
// applies the same change to the benchmark's copy of its warehouse.

#ifndef HTAPBENCH_TERMINAL_H_
#define HTAPBENCH_TERMINAL_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/database.h"
#include "data.h"

namespace htapbench {

enum class TxnKind : uint8_t { kNewOrder, kPayment, kDelivery, kOrderStatus };
constexpr size_t kNumTxnKinds = 4;
constexpr int kMaxAttempts = 1000;

/// Acknowledgement times of one terminal's NewOrders, per district, in
/// commit order. The analyst reads it while the terminal appends.
class AckLog {
 public:
  AckLog() : acks_(kDistricts) {}
  void Append(int d, int64_t ns) {
    std::lock_guard<std::mutex> lk(mu_);
    acks_[static_cast<size_t>(d - 1)].push_back(ns);
  }
  /// Time of the `index`-th NewOrder acknowledged in district d, if it was
  /// acknowledged at or before `before_ns`; -1 otherwise.
  int64_t AckedAt(int d, size_t index, int64_t before_ns) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto& a = acks_[static_cast<size_t>(d - 1)];
    return index < a.size() && a[index] <= before_ns ? a[index] : -1;
  }
  size_t Count(int d) {
    std::lock_guard<std::mutex> lk(mu_);
    return acks_[static_cast<size_t>(d - 1)].size();
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<int64_t>> acks_;  // guarded by mu_
};

struct TerminalStats {
  std::array<std::vector<double>, kNumTxnKinds> latency_us;
  std::vector<double> lateness_us;  // open loop: start minus due time
  std::vector<int64_t> commit_ns;    // when each committed transaction ended
  uint64_t attempted = 0, committed = 0, failed = 0;
  uint64_t attempts = 0, retries = 0;
  double retry_wasted_ms = 0;
  std::string first_failure;  // status of the first failed transaction
};

/// Paces a loop. With rate_per_s > 0 the i-th turn is due at
/// start_ns + offset_ns + i / rate; this sleeps until then. With rate 0 (a
/// closed loop) a turn is due when asked. Sets *due_ns and returns false
/// once the due time reaches end_ns.
bool WaitForTurn(int64_t start_ns, int64_t end_ns, double rate_per_s,
                 uint64_t i, int64_t* due_ns, int64_t offset_ns = 0);

class Terminal {
 public:
  Terminal(htap::Database* db, Mirror* mirror, int warehouse, uint64_t seed);
  Terminal(const Terminal&) = delete;
  Terminal& operator=(const Terminal&) = delete;

  /// Runs until `end_ns` (steady-clock nanoseconds). rate_per_s == 0 runs a
  /// closed loop; otherwise transactions are due every 1/rate seconds from
  /// `start_ns + offset_ns` and latency counts from the due time.
  void Run(int64_t start_ns, int64_t end_ns, double rate_per_s,
           int64_t offset_ns);

  int warehouse() const { return w_; }
  AckLog* acks() { return &acks_; }
  const TerminalStats& stats() const { return stats_; }

 private:
  struct Params {
    TxnKind kind = TxnKind::kPayment;
    int64_t d = 1, c = 1, ol_cnt = 0, carrier = 0, now = 0;
    std::array<int64_t, 15> items{}, qty{};
    double amount = 0;
    std::array<int64_t, kDistricts> deliver{};  // o_id per district, 0 = none
  };

  Params Next();
  /// One transaction with retries; returns whether it committed.
  bool Execute(const Params& p);
  htap::Status Attempt(const Params& p);
  htap::Status NewOrder(htap::DbTxn* txn, const Params& p);
  htap::Status Payment(htap::DbTxn* txn, const Params& p);
  htap::Status Delivery(htap::DbTxn* txn, const Params& p);
  htap::Status OrderStatus(htap::DbTxn* txn, const Params& p);
  void Apply(const Params& p);

  htap::Database* db_;
  Mirror* mirror_;
  RefWarehouse* home_;
  const int w_;
  Rng rng_;
  int64_t clock_;  // o_entry_d / ol_delivery_d of the next write
  std::array<int64_t, kDistricts> next_delivery_{};  // oldest undelivered
  AckLog acks_;
  TerminalStats stats_;
};

}  // namespace htapbench

#endif  // HTAPBENCH_TERMINAL_H_
