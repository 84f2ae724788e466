#include "queries.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace htapbench {

using htap::AggSpec;
using htap::Predicate;
using htap::Value;

namespace {

Value I(int64_t v) { return Value(v); }

BenchQuery Plan(std::string name, std::string table) {
  BenchQuery q;
  q.name = std::move(name);
  q.plan.table = std::move(table);
  return q;
}

void Join(BenchQuery* q, std::string table, int left_col, int right_col,
          Predicate where = Predicate::True()) {
  q->plan.has_join = true;
  q->plan.join_table = std::move(table);
  q->plan.left_col = left_col;
  q->plan.right_col = right_col;
  q->plan.join_where = std::move(where);
}

void Order(BenchQuery* q, int col, bool desc) {
  q->plan.order_by = col;
  q->plan.order_desc = desc;
  q->order_col = col;
  q->desc = desc;
}

BenchQuery Sql(std::string name, std::string sql, int group_cols,
               int order_col, bool desc) {
  BenchQuery q;
  q.name = std::move(name);
  q.sql = std::move(sql);
  q.group_cols = group_cols;
  q.order_col = order_col;
  q.desc = desc;
  return q;
}

// Q4's entry-date window: the newest two thirds of the loaded orders plus
// everything written while timing.
int64_t Q4Threshold(const Mirror& m) { return m.max_entry_d / 3; }

}  // namespace

std::vector<BenchQuery> Queries(const Mirror& m) {
  std::vector<BenchQuery> qs;
  {  // Q1: delivered lines summarized by line number.
    BenchQuery q = Plan("Q1", "orderline");
    q.plan.where = Predicate::Gt(ol::kDeliveryD, I(0));
    q.plan.group_by = {ol::kNumber};
    q.plan.aggs = {AggSpec::Count("count_order"),
                   AggSpec::Sum(ol::kQuantity, "sum_qty"),
                   AggSpec::Sum(ol::kAmount, "sum_amount"),
                   AggSpec::Avg(ol::kAmount, "avg_amount")};
    q.group_cols = 1;
    Order(&q, 0, false);
    qs.push_back(std::move(q));
  }
  {  // Q3: revenue of undelivered orders per district.
    BenchQuery q = Plan("Q3", "orderline");
    Join(&q, "orders", ol::kOKey, od::kKey,
         Predicate::Eq(od::kCarrierId, I(0)));
    q.plan.group_by = {static_cast<int>(ol::kNumCols) + od::kDId};
    q.plan.aggs = {AggSpec::Sum(ol::kAmount, "revenue")};
    q.group_cols = 1;
    Order(&q, 1, true);
    qs.push_back(std::move(q));
  }
  {  // Q4: order count by line count in an entry-date window.
    BenchQuery q = Plan("Q4", "orders");
    q.plan.where = Predicate::Gt(od::kEntryD, I(Q4Threshold(m)));
    q.plan.group_by = {od::kOlCnt};
    q.plan.aggs = {AggSpec::Count("order_count")};
    q.group_cols = 1;
    Order(&q, 0, false);
    qs.push_back(std::move(q));
  }
  {  // Q5: sold volume per item category.
    BenchQuery q = Plan("Q5", "stock");
    Join(&q, "item", st::kIId, it::kId);
    q.plan.group_by = {static_cast<int>(st::kNumCols) + it::kCategory};
    q.plan.aggs = {AggSpec::Sum(st::kYtd, "volume")};
    q.group_cols = 1;
    Order(&q, 1, true);
    qs.push_back(std::move(q));
  }
  {  // Q6: revenue from mid-quantity lines.
    BenchQuery q = Plan("Q6", "orderline");
    q.plan.where = Predicate::And(
        {Predicate::Between(ol::kQuantity, I(2), I(8)),
         Predicate::Gt(ol::kAmount, Value(50.0))});
    q.plan.aggs = {AggSpec::Sum(ol::kAmount, "revenue")};
    qs.push_back(std::move(q));
  }
  {  // Q12: orders and average size per carrier.
    BenchQuery q = Plan("Q12", "orders");
    q.plan.group_by = {od::kCarrierId};
    q.plan.aggs = {AggSpec::Count("order_count"),
                   AggSpec::Avg(od::kOlCnt, "avg_lines")};
    q.group_cols = 1;
    Order(&q, 0, false);
    qs.push_back(std::move(q));
  }
  {  // Q14: revenue per category of premium items.
    BenchQuery q = Plan("Q14", "orderline");
    Join(&q, "item", ol::kIId, it::kId, Predicate::Gt(it::kPrice, Value(50.0)));
    q.plan.group_by = {static_cast<int>(ol::kNumCols) + it::kCategory};
    q.plan.aggs = {AggSpec::Sum(ol::kAmount, "revenue")};
    q.group_cols = 1;
    qs.push_back(std::move(q));
  }
  {  // Q18: the ten customers with the most ordered lines.
    BenchQuery q = Plan("Q18", "orders");
    q.plan.group_by = {od::kCKey};
    q.plan.aggs = {AggSpec::Sum(od::kOlCnt, "total_lines"),
                   AggSpec::Count("order_count")};
    q.group_cols = 1;
    Order(&q, 1, true);
    q.plan.limit = q.limit = 10;
    qs.push_back(std::move(q));
  }
  {  // Q19: revenue from a quantity band joined to a price band.
    BenchQuery q = Plan("Q19", "orderline");
    q.plan.where = Predicate::Between(ol::kQuantity, I(3), I(7));
    Join(&q, "item", ol::kIId, it::kId,
         Predicate::Between(it::kPrice, Value(20.0), Value(80.0)));
    q.plan.aggs = {AggSpec::Sum(ol::kAmount, "revenue")};
    qs.push_back(std::move(q));
  }
  {  // QSL: low-stock count (TPC-C Stock-Level, all warehouses).
    BenchQuery q = Plan("QSL", "stock");
    q.plan.where = Predicate::Lt(st::kQuantity, I(15));
    q.plan.aggs = {AggSpec::Count("low_stock")};
    qs.push_back(std::move(q));
  }
  {  // QCB: customers and average balance per state.
    BenchQuery q = Plan("QCB", "customer");
    q.plan.group_by = {cu::kState};
    q.plan.aggs = {AggSpec::Count("customers"),
                   AggSpec::Avg(cu::kBalance, "avg_balance")};
    q.group_cols = 1;
    Order(&q, 0, false);
    qs.push_back(std::move(q));
  }
  {  // QOD: orders per district; grows with every NewOrder.
    BenchQuery q = Plan("QOD", "orders");
    q.plan.group_by = {od::kWId, od::kDId};
    q.plan.aggs = {AggSpec::Count("order_count")};
    q.group_cols = 2;
    qs.push_back(std::move(q));
  }
  qs.push_back(Sql("Q3sql",
                   "SELECT o_d_id, SUM(ol_amount) AS revenue FROM orderline "
                   "JOIN orders ON ol_o_key = o_key "
                   "JOIN customer ON o_c_key = c_key "
                   "WHERE c_balance < 0 GROUP BY o_d_id ORDER BY revenue DESC",
                   1, 1, true));
  qs.push_back(Sql("Q5sql",
                   "SELECT i_category, SUM(s_ytd) AS volume FROM stock "
                   "JOIN item ON s_i_id = i_id "
                   "JOIN warehouse ON s_w_id = w_id "
                   "WHERE w_state = 'CA' AND i_price > 20 "
                   "GROUP BY i_category ORDER BY volume DESC",
                   1, 1, true));
  qs.push_back(Sql("Q14sql",
                   "SELECT i_category, SUM(ol_amount) AS revenue FROM orderline "
                   "JOIN item ON ol_i_id = i_id "
                   "JOIN orders ON ol_o_key = o_key "
                   "WHERE i_price > 50 AND o_carrier_id = 0 "
                   "GROUP BY i_category ORDER BY revenue DESC",
                   1, 1, true));
  return qs;
}

// ---- Reference evaluator --------------------------------------------------

namespace {

std::string K(int64_t v) { return std::to_string(v); }

/// Visits every order line with its warehouse id, district id and order.
template <typename F>
void ForEachLine(const Mirror& m, F&& f) {
  for (size_t w = 0; w < m.warehouses.size(); ++w)
    for (size_t d = 0; d < m.warehouses[w].districts.size(); ++d) {
      const RefDistrict& dist = m.warehouses[w].districts[d];
      for (const RefOrder& o : dist.orders)
        for (int64_t n = 0; n < o.ol_cnt; ++n)
          f(static_cast<int64_t>(w) + 1, static_cast<int64_t>(d) + 1, o, n + 1,
            dist.lines[o.first_line + static_cast<size_t>(n)]);
    }
}

template <typename F>
void ForEachOrder(const Mirror& m, F&& f) {
  for (size_t w = 0; w < m.warehouses.size(); ++w)
    for (size_t d = 0; d < m.warehouses[w].districts.size(); ++d)
      for (const RefOrder& o : m.warehouses[w].districts[d].orders)
        f(static_cast<int64_t>(w) + 1, static_cast<int64_t>(d) + 1, o);
}

template <typename F>
void ForEachStock(const Mirror& m, F&& f) {
  for (size_t w = 0; w < m.warehouses.size(); ++w)
    for (size_t i = 0; i < m.warehouses[w].stock.size(); ++i)
      f(static_cast<int64_t>(w) + 1, m.items[i], m.warehouses[w].stock[i]);
}

const RefItem& Item(const Mirror& m, int64_t i_id) {
  return m.items[static_cast<size_t>(i_id - 1)];
}

/// Sums into `a` (created with `width` zeros on first use).
std::vector<Agg>& Slot(Answer* a, const std::string& key, size_t width) {
  auto it = a->find(key);
  if (it == a->end()) it = a->emplace(key, std::vector<Agg>(width)).first;
  return it->second;
}

/// Turns columns holding (sum, count) into averages: `avg_col` holds the
/// sum, `count_col` the count.
void Average(Answer* a, size_t avg_col, size_t count_col) {
  for (auto& [k, v] : *a) {
    v[avg_col].value /= v[count_col].value;
    v[avg_col].magnitude /= v[count_col].value;
  }
}

}  // namespace

Answer Reference(const std::string& name, const Mirror& m) {
  Answer a;
  if (name == "Q1") {
    ForEachLine(m, [&](int64_t, int64_t, const RefOrder&, int64_t n,
                       const RefLine& l) {
      if (l.delivery_d <= 0) return;
      auto& v = Slot(&a, K(n), 4);
      v[0] += 1;
      v[1] += static_cast<double>(l.quantity);
      v[2] += l.amount;
      v[3] += l.amount;
    });
    Average(&a, 3, 0);
  } else if (name == "Q3") {
    ForEachLine(m, [&](int64_t, int64_t d, const RefOrder& o, int64_t,
                       const RefLine& l) {
      if (o.carrier == 0) Slot(&a, K(d), 1)[0] += l.amount;
    });
  } else if (name == "Q4") {
    const int64_t t = Q4Threshold(m);
    ForEachOrder(m, [&](int64_t, int64_t, const RefOrder& o) {
      if (o.entry_d > t) Slot(&a, K(o.ol_cnt), 1)[0] += 1;
    });
  } else if (name == "Q5") {
    ForEachStock(m, [&](int64_t, const RefItem& i, const RefStock& s) {
      Slot(&a, K(i.category), 1)[0] += static_cast<double>(s.ytd);
    });
  } else if (name == "Q6") {
    auto& v = Slot(&a, "", 1);
    ForEachLine(m, [&](int64_t, int64_t, const RefOrder&, int64_t,
                       const RefLine& l) {
      if (l.quantity >= 2 && l.quantity <= 8 && l.amount > 50.0) v[0] += l.amount;
    });
  } else if (name == "Q12") {
    ForEachOrder(m, [&](int64_t, int64_t, const RefOrder& o) {
      auto& v = Slot(&a, K(o.carrier), 2);
      v[0] += 1;
      v[1] += static_cast<double>(o.ol_cnt);
    });
    Average(&a, 1, 0);
  } else if (name == "Q14") {
    ForEachLine(m, [&](int64_t, int64_t, const RefOrder&, int64_t,
                       const RefLine& l) {
      const RefItem& i = Item(m, l.i_id);
      if (i.price > 50.0) Slot(&a, K(i.category), 1)[0] += l.amount;
    });
  } else if (name == "Q18") {
    ForEachOrder(m, [&](int64_t w, int64_t d, const RefOrder& o) {
      auto& v = Slot(&a, K(CustomerKey(w, d, o.c_id)), 2);
      v[0] += static_cast<double>(o.ol_cnt);
      v[1] += 1;
    });
  } else if (name == "Q19") {
    auto& v = Slot(&a, "", 1);
    ForEachLine(m, [&](int64_t, int64_t, const RefOrder&, int64_t,
                       const RefLine& l) {
      const RefItem& i = Item(m, l.i_id);
      if (l.quantity >= 3 && l.quantity <= 7 && i.price >= 20.0 &&
          i.price <= 80.0)
        v[0] += l.amount;
    });
  } else if (name == "QSL") {
    auto& v = Slot(&a, "", 1);
    ForEachStock(m, [&](int64_t, const RefItem&, const RefStock& s) {
      if (s.quantity < 15) v[0] += 1;
    });
  } else if (name == "QCB") {
    for (const RefWarehouse& w : m.warehouses)
      for (const RefCustomer& c : w.customers) {
        auto& v = Slot(&a, kStates[c.state], 2);
        v[0] += 1;
        v[1] += c.balance;
      }
    Average(&a, 1, 0);
  } else if (name == "QOD") {
    ForEachOrder(m, [&](int64_t w, int64_t d, const RefOrder&) {
      Slot(&a, K(w) + "|" + K(d), 1)[0] += 1;
    });
  } else if (name == "Q3sql") {
    ForEachLine(m, [&](int64_t w, int64_t d, const RefOrder& o, int64_t,
                       const RefLine& l) {
      if (m.customer(w, d, o.c_id).balance < 0) Slot(&a, K(d), 1)[0] += l.amount;
    });
  } else if (name == "Q5sql") {
    ForEachStock(m, [&](int64_t w, const RefItem& i, const RefStock& s) {
      if (m.warehouses[static_cast<size_t>(w - 1)].state == 0 && i.price > 20)
        Slot(&a, K(i.category), 1)[0] += static_cast<double>(s.ytd);
    });
  } else if (name == "Q14sql") {
    ForEachLine(m, [&](int64_t, int64_t, const RefOrder& o, int64_t,
                       const RefLine& l) {
      const RefItem& i = Item(m, l.i_id);
      if (i.price > 50.0 && o.carrier == 0)
        Slot(&a, K(i.category), 1)[0] += l.amount;
    });
  }
  return a;
}

std::string GroupKey(const htap::Row& row, int group_cols) {
  std::string key;
  for (int c = 0; c < group_cols; ++c) {
    if (c) key += '|';
    const Value& v = row.Get(static_cast<size_t>(c));
    key += v.is_string() ? v.AsString() : v.ToString();
  }
  return key;
}

void CheckAnswer(Checker* checker, const std::string& kind,
                 const BenchQuery& q, const Answer& expected,
                 const htap::QueryResult& actual) {
  constexpr double kTol = 1e-9;
  for (const htap::Row& row : actual.rows) {
    const std::string key = GroupKey(row, q.group_cols);
    auto it = expected.find(key);
    if (it == expected.end()) {
      checker->Eq(kind, "group [" + key + "] present in reference", 1, 0);
      continue;
    }
    for (size_t a = 0; a < it->second.size(); ++a) {
      const Value& v = row.Get(static_cast<size_t>(q.group_cols) + a);
      checker->Eq(kind, "group [" + key + "] aggregate " + std::to_string(a),
                  it->second[a].value, v.is_null() ? NAN : v.AsDouble(), kTol,
                  it->second[a].magnitude);
    }
  }
  const size_t want_rows =
      q.limit ? std::min(q.limit, expected.size()) : expected.size();
  checker->Eq(kind, "row count", static_cast<double>(want_rows),
              static_cast<double>(actual.rows.size()));
  if (q.order_col >= 0) {
    const size_t col = static_cast<size_t>(q.order_col);
    for (size_t r = 1; r < actual.rows.size(); ++r) {
      const int cmp =
          actual.rows[r - 1].Get(col).Compare(actual.rows[r].Get(col));
      checker->AtLeast(kind, "sort order at row " + std::to_string(r), 0,
                       q.desc ? cmp : -cmp);
    }
  }
  if (q.limit) {
    // With ties the LIMIT may pick any of the tied groups, so compare the
    // sorted top values rather than the keys.
    const size_t col = static_cast<size_t>(q.order_col - q.group_cols);
    std::vector<double> top;
    for (const auto& [k, v] : expected) top.push_back(v[col].value);
    std::sort(top.begin(), top.end(), std::greater<double>());
    for (size_t r = 0; r < actual.rows.size() && r < top.size(); ++r)
      checker->Eq(kind, "top value at row " + std::to_string(r), top[r],
                  actual.rows[r].Get(q.order_col).AsDouble(), kTol);
  }
}

}  // namespace htapbench
