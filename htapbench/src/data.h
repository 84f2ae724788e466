// CH-benCHmark data for the benchmark: the seven TPC-C tables, the scale of
// each workload, a seeded generator, and the loader that writes the
// generated rows into a Database through its public API.
//
// The generator's output is also the benchmark's own copy of the database
// (`Mirror`): plain structs that the terminals update after every
// acknowledged commit and that the reference evaluator (reference.h) reads.
// Nothing here depends on htapdb's benchlib, so an edit there does not
// change what the benchmark measures.

#ifndef HTAPBENCH_DATA_H_
#define HTAPBENCH_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"

namespace htapbench {

// Column positions, in CreateTables order.
namespace wh { enum { kId = 0, kName, kState, kYtd, kNumCols }; }
namespace di { enum { kKey = 0, kWId, kDId, kName, kYtd, kNextOId, kNumCols }; }
namespace cu {
enum { kKey = 0, kWId, kDId, kCId, kName, kState, kBalance, kYtdPayment,
       kPaymentCnt, kNumCols };
}
namespace it { enum { kId = 0, kName, kPrice, kCategory, kNumCols }; }
namespace st {
enum { kKey = 0, kWId, kIId, kQuantity, kYtd, kOrderCnt, kNumCols };
}
namespace od {
enum { kKey = 0, kWId, kDId, kOId, kCKey, kEntryD, kCarrierId, kOlCnt,
       kNumCols };
}
namespace ol {
enum { kKey = 0, kOKey, kWId, kDId, kOId, kNumber, kIId, kQuantity, kAmount,
       kDeliveryD, kNumCols };
}

// Composite TPC-C keys packed into one INT64 primary key.
inline int64_t DistrictKey(int64_t w, int64_t d) { return (w << 8) | d; }
inline int64_t CustomerKey(int64_t w, int64_t d, int64_t c) {
  return (w << 32) | (d << 24) | c;
}
inline int64_t OrderKey(int64_t w, int64_t d, int64_t o) {
  return (w << 32) | (d << 24) | o;
}
inline int64_t OrderLineKey(int64_t w, int64_t d, int64_t o, int64_t n) {
  return (w << 40) | (d << 32) | (o << 8) | n;
}
inline int64_t StockKey(int64_t w, int64_t i) { return (w << 24) | i; }

constexpr int kDistricts = 10;
constexpr int kNumStates = 8;
extern const char* const kStates[kNumStates];
constexpr double kWarehouseYtd = 300000.0;
constexpr double kDistrictYtd = 30000.0;

struct Scale {
  int warehouses = 1;
  int customers_per_district = 3000;
  int items = 100000;
  int orders_per_district = 3000;
};

/// splitmix64: the benchmark's own generator, so inputs depend only on the
/// seed and this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// TPC-C NURand(A, x, y) with C = 0.
  int64_t NURand(int64_t a, int64_t x, int64_t y) {
    return ((Uniform(0, a) | Uniform(x, y)) % (y - x + 1)) + x;
  }

 private:
  uint64_t s_;
};

// ---- The benchmark's own copy of the database ---------------------------

struct RefItem {
  double price = 0;
  int64_t category = 0;
};
struct RefCustomer {
  double balance = 0, ytd_payment = 0;
  int64_t payment_cnt = 0;
  int state = 0;
};
struct RefStock {
  int64_t quantity = 0, ytd = 0, order_cnt = 0;
};
struct RefOrder {
  int64_t c_id = 0, entry_d = 0, carrier = 0, ol_cnt = 0;
  size_t first_line = 0;  // index into RefDistrict::lines
};
struct RefLine {
  int64_t i_id = 0, quantity = 0, delivery_d = 0;
  double amount = 0;
};
struct RefDistrict {
  double ytd = 0;
  int64_t next_o_id = 1;
  std::vector<RefOrder> orders;  // o_id = index + 1
  std::vector<RefLine> lines;    // each order's lines contiguous
};
struct RefWarehouse {
  double ytd = 0;
  int state = 0;
  std::vector<RefDistrict> districts;   // d = index + 1
  std::vector<RefCustomer> customers;   // (d-1) * per_district + (c-1)
  std::vector<RefStock> stock;          // i = index + 1
};

/// Everything the benchmark generated, kept current by the terminals: each
/// terminal writes only its home warehouse, so no two threads touch one
/// RefWarehouse while the clock runs.
struct Mirror {
  Scale scale;
  int64_t initial_orders = 0;  // per district, before timing
  int64_t max_entry_d = 0;     // largest o_entry_d written at load
  std::vector<RefItem> items;  // i = index + 1
  std::vector<RefWarehouse> warehouses;  // w = index + 1

  RefCustomer& customer(int64_t w, int64_t d, int64_t c) {
    return warehouses[static_cast<size_t>(w - 1)].customers[CustomerIndex(d, c)];
  }
  const RefCustomer& customer(int64_t w, int64_t d, int64_t c) const {
    return warehouses[static_cast<size_t>(w - 1)].customers[CustomerIndex(d, c)];
  }
  size_t CustomerIndex(int64_t d, int64_t c) const {
    return static_cast<size_t>((d - 1) * scale.customers_per_district + (c - 1));
  }
};

Mirror Generate(const Scale& scale, uint64_t seed);

htap::Status CreateTables(htap::Database* db);

/// Loads `m` into `db` in batched transactions. Adds the loaded rows'
/// payload size (8 bytes per number, the length of each string) to
/// *user_bytes.
htap::Status Load(htap::Database* db, const Mirror& m, double* user_bytes);

}  // namespace htapbench

#endif  // HTAPBENCH_DATA_H_
