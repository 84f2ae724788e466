#include "data.h"

namespace htapbench {

using htap::Row;
using htap::Schema;
using htap::Status;
using htap::Type;
using htap::Value;

const char* const kStates[kNumStates] = {"CA", "NY", "TX", "WA",
                                         "IL", "MA", "FL", "PA"};

Mirror Generate(const Scale& scale, uint64_t seed) {
  Mirror m;
  m.scale = scale;
  m.initial_orders = scale.orders_per_district;
  Rng rng(seed);

  m.items.resize(static_cast<size_t>(scale.items));
  for (RefItem& i : m.items) {
    i.price = 1.0 + rng.Unit() * 99.0;
    i.category = rng.Uniform(0, 9);
  }

  // The first 70% of each district's orders are delivered, as in TPC-C's
  // initial population; the rest wait for the Delivery transaction.
  const int64_t delivered = scale.orders_per_district * 7 / 10;
  int64_t entry_d = 0;
  m.warehouses.resize(static_cast<size_t>(scale.warehouses));
  for (size_t wi = 0; wi < m.warehouses.size(); ++wi) {
    RefWarehouse& w = m.warehouses[wi];
    w.ytd = kWarehouseYtd;
    w.state = static_cast<int>(wi % kNumStates);
    w.customers.resize(static_cast<size_t>(kDistricts) *
                       static_cast<size_t>(scale.customers_per_district));
    for (RefCustomer& c : w.customers) {
      c.balance = -10.0;
      c.ytd_payment = 10.0;
      c.payment_cnt = 1;
      c.state = static_cast<int>(rng.Uniform(0, kNumStates - 1));
    }
    w.stock.resize(static_cast<size_t>(scale.items));
    for (RefStock& s : w.stock) s.quantity = rng.Uniform(10, 100);
    w.districts.resize(kDistricts);
    for (RefDistrict& d : w.districts) {
      d.ytd = kDistrictYtd;
      d.next_o_id = scale.orders_per_district + 1;
      d.orders.reserve(static_cast<size_t>(scale.orders_per_district));
      for (int64_t o = 1; o <= scale.orders_per_district; ++o) {
        RefOrder order;
        order.c_id = rng.Uniform(1, scale.customers_per_district);
        order.entry_d = ++entry_d;
        order.carrier = o <= delivered ? rng.Uniform(1, 10) : 0;
        order.ol_cnt = rng.Uniform(5, 15);
        order.first_line = d.lines.size();
        for (int64_t n = 1; n <= order.ol_cnt; ++n) {
          RefLine line;
          line.i_id = rng.Uniform(1, scale.items);
          line.quantity = rng.Uniform(1, 10);
          line.amount = static_cast<double>(line.quantity) *
                        m.items[static_cast<size_t>(line.i_id - 1)].price;
          line.delivery_d = o <= delivered ? order.entry_d : 0;
          d.lines.push_back(line);
        }
        d.orders.push_back(order);
      }
    }
  }
  m.max_entry_d = entry_d;
  return m;
}

Status CreateTables(htap::Database* db) {
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "warehouse", Schema({{"w_id", Type::kInt64},
                           {"w_name", Type::kString},
                           {"w_state", Type::kString},
                           {"w_ytd", Type::kDouble}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "district", Schema({{"d_key", Type::kInt64},
                          {"d_w_id", Type::kInt64},
                          {"d_id", Type::kInt64},
                          {"d_name", Type::kString},
                          {"d_ytd", Type::kDouble},
                          {"d_next_o_id", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "customer", Schema({{"c_key", Type::kInt64},
                          {"c_w_id", Type::kInt64},
                          {"c_d_id", Type::kInt64},
                          {"c_id", Type::kInt64},
                          {"c_name", Type::kString},
                          {"c_state", Type::kString},
                          {"c_balance", Type::kDouble},
                          {"c_ytd_payment", Type::kDouble},
                          {"c_payment_cnt", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "item", Schema({{"i_id", Type::kInt64},
                      {"i_name", Type::kString},
                      {"i_price", Type::kDouble},
                      {"i_category", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "stock", Schema({{"s_key", Type::kInt64},
                       {"s_w_id", Type::kInt64},
                       {"s_i_id", Type::kInt64},
                       {"s_quantity", Type::kInt64},
                       {"s_ytd", Type::kInt64},
                       {"s_order_cnt", Type::kInt64}})));
  HTAP_RETURN_NOT_OK(db->CreateTable(
      "orders", Schema({{"o_key", Type::kInt64},
                        {"o_w_id", Type::kInt64},
                        {"o_d_id", Type::kInt64},
                        {"o_id", Type::kInt64},
                        {"o_c_key", Type::kInt64},
                        {"o_entry_d", Type::kInt64},
                        {"o_carrier_id", Type::kInt64},
                        {"o_ol_cnt", Type::kInt64}})));
  return db->CreateTable(
      "orderline", Schema({{"ol_key", Type::kInt64},
                           {"ol_o_key", Type::kInt64},
                           {"ol_w_id", Type::kInt64},
                           {"ol_d_id", Type::kInt64},
                           {"ol_o_id", Type::kInt64},
                           {"ol_number", Type::kInt64},
                           {"ol_i_id", Type::kInt64},
                           {"ol_quantity", Type::kInt64},
                           {"ol_amount", Type::kDouble},
                           {"ol_delivery_d", Type::kInt64}}));
}

namespace {

/// Buffers rows of one table and commits them 256 to a transaction.
class Loader {
 public:
  Loader(htap::Database* db, std::string table, double* user_bytes)
      : db_(db), table_(std::move(table)), user_bytes_(user_bytes) {}

  Status Add(Row row) {
    for (const Value& v : row.values())
      *user_bytes_ += v.is_string() ? static_cast<double>(v.AsString().size())
                                    : 8.0;
    rows_.push_back(std::move(row));
    return rows_.size() >= 256 ? Flush() : Status::OK();
  }

  Status Flush() {
    if (rows_.empty()) return Status::OK();
    auto txn = db_->Begin();
    for (const Row& r : rows_) HTAP_RETURN_NOT_OK(txn->Insert(table_, r));
    rows_.clear();
    return txn->Commit();
  }

 private:
  htap::Database* db_;
  std::string table_;
  double* user_bytes_;
  std::vector<Row> rows_;
};

Value I(int64_t v) { return Value(v); }

}  // namespace

Status Load(htap::Database* db, const Mirror& m, double* user_bytes) {
  Loader items(db, "item", user_bytes);
  for (size_t i = 0; i < m.items.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i) + 1;
    HTAP_RETURN_NOT_OK(items.Add(Row{I(id), Value("item-" + std::to_string(id)),
                                     Value(m.items[i].price),
                                     I(m.items[i].category)}));
  }
  HTAP_RETURN_NOT_OK(items.Flush());

  Loader whs(db, "warehouse", user_bytes), dists(db, "district", user_bytes),
      custs(db, "customer", user_bytes), stock(db, "stock", user_bytes),
      orders(db, "orders", user_bytes), lines(db, "orderline", user_bytes);
  const int per_d = m.scale.customers_per_district;
  for (size_t wi = 0; wi < m.warehouses.size(); ++wi) {
    const RefWarehouse& w = m.warehouses[wi];
    const int64_t w_id = static_cast<int64_t>(wi) + 1;
    HTAP_RETURN_NOT_OK(whs.Add(Row{I(w_id),
                                   Value("warehouse-" + std::to_string(w_id)),
                                   Value(kStates[w.state]), Value(w.ytd)}));
    for (size_t ci = 0; ci < w.customers.size(); ++ci) {
      const RefCustomer& c = w.customers[ci];
      const int64_t d_id = static_cast<int64_t>(ci) / per_d + 1;
      const int64_t c_id = static_cast<int64_t>(ci) % per_d + 1;
      HTAP_RETURN_NOT_OK(custs.Add(
          Row{I(CustomerKey(w_id, d_id, c_id)), I(w_id), I(d_id), I(c_id),
              Value("customer-" + std::to_string(c_id)), Value(kStates[c.state]),
              Value(c.balance), Value(c.ytd_payment), I(c.payment_cnt)}));
    }
    for (size_t si = 0; si < w.stock.size(); ++si) {
      const RefStock& s = w.stock[si];
      const int64_t i_id = static_cast<int64_t>(si) + 1;
      HTAP_RETURN_NOT_OK(stock.Add(Row{I(StockKey(w_id, i_id)), I(w_id),
                                       I(i_id), I(s.quantity), I(s.ytd),
                                       I(s.order_cnt)}));
    }
    for (size_t dx = 0; dx < w.districts.size(); ++dx) {
      const RefDistrict& d = w.districts[dx];
      const int64_t d_id = static_cast<int64_t>(dx) + 1;
      HTAP_RETURN_NOT_OK(dists.Add(Row{I(DistrictKey(w_id, d_id)), I(w_id),
                                       I(d_id),
                                       Value("district-" + std::to_string(d_id)),
                                       Value(d.ytd), I(d.next_o_id)}));
      for (size_t ox = 0; ox < d.orders.size(); ++ox) {
        const RefOrder& o = d.orders[ox];
        const int64_t o_id = static_cast<int64_t>(ox) + 1;
        const int64_t o_key = OrderKey(w_id, d_id, o_id);
        HTAP_RETURN_NOT_OK(orders.Add(
            Row{I(o_key), I(w_id), I(d_id), I(o_id),
                I(CustomerKey(w_id, d_id, o.c_id)), I(o.entry_d), I(o.carrier),
                I(o.ol_cnt)}));
        for (int64_t n = 1; n <= o.ol_cnt; ++n) {
          const RefLine& l = d.lines[o.first_line + static_cast<size_t>(n - 1)];
          HTAP_RETURN_NOT_OK(lines.Add(
              Row{I(OrderLineKey(w_id, d_id, o_id, n)), I(o_key), I(w_id),
                  I(d_id), I(o_id), I(n), I(l.i_id), I(l.quantity),
                  Value(l.amount), I(l.delivery_d)}));
        }
      }
    }
  }
  for (Loader* l : {&whs, &dists, &custs, &stock, &orders, &lines})
    HTAP_RETURN_NOT_OK(l->Flush());
  return Status::OK();
}

}  // namespace htapbench
