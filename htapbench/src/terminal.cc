#include "terminal.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "trace.h"

namespace htapbench {

using htap::DbTxn;
using htap::Row;
using htap::Status;
using htap::Value;

namespace {

const std::string kWarehouse = "warehouse", kDistrict = "district",
                  kCustomer = "customer", kItem = "item", kStock = "stock",
                  kOrders = "orders", kOrderLine = "orderline";

Status Get(DbTxn* t, const std::string& table, int64_t key, Row* out) {
  Span s(SpanName::kGet);
  return t->Get(table, key, out);
}
Status Update(DbTxn* t, const std::string& table, const Row& row) {
  Span s(SpanName::kUpdate);
  return t->Update(table, row);
}
Status Insert(DbTxn* t, const std::string& table, const Row& row) {
  Span s(SpanName::kInsert);
  return t->Insert(table, row);
}

int64_t NewStockQuantity(int64_t s_qty, int64_t qty) {
  return s_qty - qty >= 10 ? s_qty - qty : s_qty - qty + 91;
}

}  // namespace

Terminal::Terminal(htap::Database* db, Mirror* mirror, int warehouse,
                   uint64_t seed)
    : db_(db),
      mirror_(mirror),
      home_(&mirror->warehouses[static_cast<size_t>(warehouse - 1)]),
      w_(warehouse),
      rng_(seed),
      clock_(mirror->max_entry_d) {
  for (size_t d = 0; d < kDistricts; ++d) {
    const auto& orders = home_->districts[d].orders;
    size_t o = 0;
    while (o < orders.size() && orders[o].carrier != 0) ++o;
    next_delivery_[d] = static_cast<int64_t>(o) + 1;
  }
}

Terminal::Params Terminal::Next() {
  Params p;
  const int64_t customers = mirror_->scale.customers_per_district;
  const int64_t pick = rng_.Uniform(0, 99);
  p.d = rng_.Uniform(1, kDistricts);
  if (pick < 45) {
    p.kind = TxnKind::kNewOrder;
    p.c = rng_.NURand(1023, 1, customers);
    p.ol_cnt = rng_.Uniform(5, 15);
    for (int64_t n = 0; n < p.ol_cnt; ++n) {
      int64_t item;
      bool dup;
      do {  // distinct items, so no order updates one stock row twice
        item = rng_.NURand(8191, 1, mirror_->scale.items);
        dup = false;
        for (int64_t k = 0; k < n; ++k) dup |= p.items[static_cast<size_t>(k)] == item;
      } while (dup);
      p.items[static_cast<size_t>(n)] = item;
      p.qty[static_cast<size_t>(n)] = rng_.Uniform(1, 10);
    }
    p.now = ++clock_;
  } else if (pick < 88) {
    p.kind = TxnKind::kPayment;
    p.c = rng_.NURand(1023, 1, customers);
    // Whole amounts keep every YTD sum exact in doubles.
    p.amount = static_cast<double>(rng_.Uniform(1, 5000));
  } else if (pick < 92) {
    p.kind = TxnKind::kDelivery;
    p.carrier = rng_.Uniform(1, 10);
    p.now = ++clock_;
    for (size_t d = 0; d < kDistricts; ++d)
      p.deliver[d] = next_delivery_[d] < home_->districts[d].next_o_id
                         ? next_delivery_[d]
                         : 0;
  } else {
    p.kind = TxnKind::kOrderStatus;
    p.c = rng_.Uniform(1, customers);
  }
  return p;
}

bool WaitForTurn(int64_t start_ns, int64_t end_ns, double rate_per_s,
                 uint64_t i, int64_t* due_ns, int64_t offset_ns) {
  if (rate_per_s <= 0) {
    *due_ns = NowNs();
    return *due_ns < end_ns;
  }
  *due_ns = start_ns + offset_ns +
            static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_per_s);
  if (*due_ns >= end_ns) return false;
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(*due_ns)));
  return true;
}

void Terminal::Run(int64_t start_ns, int64_t end_ns, double rate_per_s,
                   int64_t offset_ns) {
  int64_t due;
  for (uint64_t i = 0;
       WaitForTurn(start_ns, end_ns, rate_per_s, i, &due, offset_ns); ++i) {
    const Params p = Next();
    if (rate_per_s > 0)
      stats_.lateness_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    if (!Execute(p)) continue;
    const int64_t done = NowNs();
    stats_.commit_ns.push_back(done);
    stats_.latency_us[static_cast<size_t>(p.kind)].push_back(
        static_cast<double>(done - due) / 1e3);
  }
}

bool Terminal::Execute(const Params& p) {
  Span span(SpanName::kTxn);
  ++stats_.attempted;
  for (int a = 1; a <= kMaxAttempts; ++a) {
    ++stats_.attempts;
    const int64_t t0 = NowNs();
    const Status st = Attempt(p);
    if (st.ok()) {
      ++stats_.committed;
      Apply(p);
      return true;
    }
    if (!st.IsConflict() || a == kMaxAttempts) {
      if (stats_.failed == 0)
        stats_.first_failure = "attempt " + std::to_string(a) + ": " +
                               st.ToString();
      break;
    }
    ++stats_.retries;
    stats_.retry_wasted_ms += static_cast<double>(NowNs() - t0) / 1e6;
    // The conflict clears once the commit watermark passes this terminal's
    // previous commit; back off so a slow commit elsewhere can finish.
    if (a < 8)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(std::min(a, 100) * 10));
  }
  ++stats_.failed;
  return false;
}

Status Terminal::Attempt(const Params& p) {
  Span span(SpanName::kAttempt);
  std::unique_ptr<DbTxn> txn;
  {
    Span s(SpanName::kBegin);
    txn = db_->Begin();
  }
  Status st;
  switch (p.kind) {
    case TxnKind::kNewOrder: st = NewOrder(txn.get(), p); break;
    case TxnKind::kPayment: st = Payment(txn.get(), p); break;
    case TxnKind::kDelivery: st = Delivery(txn.get(), p); break;
    case TxnKind::kOrderStatus: st = OrderStatus(txn.get(), p); break;
  }
  if (!st.ok()) return st;  // the handle's destructor aborts
  Span s(SpanName::kCommit);
  return txn->Commit();
}

Status Terminal::NewOrder(DbTxn* txn, const Params& p) {
  Row dist;
  HTAP_RETURN_NOT_OK(Get(txn, kDistrict, DistrictKey(w_, p.d), &dist));
  const int64_t o_id = dist.Get(di::kNextOId).AsInt64();
  dist.Set(di::kNextOId, Value(o_id + 1));
  HTAP_RETURN_NOT_OK(Update(txn, kDistrict, dist));
  Row cust;
  HTAP_RETURN_NOT_OK(Get(txn, kCustomer, CustomerKey(w_, p.d, p.c), &cust));

  const int64_t o_key = OrderKey(w_, p.d, o_id);
  HTAP_RETURN_NOT_OK(Insert(
      txn, kOrders,
      Row{Value(o_key), Value(int64_t{w_}), Value(p.d), Value(o_id),
          Value(CustomerKey(w_, p.d, p.c)), Value(p.now), Value(int64_t{0}),
          Value(p.ol_cnt)}));
  for (int64_t n = 1; n <= p.ol_cnt; ++n) {
    const int64_t i_id = p.items[static_cast<size_t>(n - 1)];
    const int64_t qty = p.qty[static_cast<size_t>(n - 1)];
    Row item;
    HTAP_RETURN_NOT_OK(Get(txn, kItem, i_id, &item));
    Row stock;
    HTAP_RETURN_NOT_OK(Get(txn, kStock, StockKey(w_, i_id), &stock));
    stock.Set(st::kQuantity,
              Value(NewStockQuantity(stock.Get(st::kQuantity).AsInt64(), qty)));
    stock.Set(st::kYtd, Value(stock.Get(st::kYtd).AsInt64() + qty));
    stock.Set(st::kOrderCnt, Value(stock.Get(st::kOrderCnt).AsInt64() + 1));
    HTAP_RETURN_NOT_OK(Update(txn, kStock, stock));
    HTAP_RETURN_NOT_OK(Insert(
        txn, kOrderLine,
        Row{Value(OrderLineKey(w_, p.d, o_id, n)), Value(o_key),
            Value(int64_t{w_}), Value(p.d), Value(o_id), Value(n), Value(i_id),
            Value(qty),
            Value(static_cast<double>(qty) * item.Get(it::kPrice).AsDouble()),
            Value(int64_t{0})}));
  }
  return Status::OK();
}

Status Terminal::Payment(DbTxn* txn, const Params& p) {
  Row wh;
  HTAP_RETURN_NOT_OK(Get(txn, kWarehouse, w_, &wh));
  wh.Set(wh::kYtd, Value(wh.Get(wh::kYtd).AsDouble() + p.amount));
  HTAP_RETURN_NOT_OK(Update(txn, kWarehouse, wh));
  Row dist;
  HTAP_RETURN_NOT_OK(Get(txn, kDistrict, DistrictKey(w_, p.d), &dist));
  dist.Set(di::kYtd, Value(dist.Get(di::kYtd).AsDouble() + p.amount));
  HTAP_RETURN_NOT_OK(Update(txn, kDistrict, dist));
  Row cust;
  HTAP_RETURN_NOT_OK(Get(txn, kCustomer, CustomerKey(w_, p.d, p.c), &cust));
  cust.Set(cu::kBalance, Value(cust.Get(cu::kBalance).AsDouble() - p.amount));
  cust.Set(cu::kYtdPayment,
           Value(cust.Get(cu::kYtdPayment).AsDouble() + p.amount));
  cust.Set(cu::kPaymentCnt, Value(cust.Get(cu::kPaymentCnt).AsInt64() + 1));
  return Update(txn, kCustomer, cust);
}

Status Terminal::Delivery(DbTxn* txn, const Params& p) {
  for (int64_t d = 1; d <= kDistricts; ++d) {
    const int64_t o_id = p.deliver[static_cast<size_t>(d - 1)];
    if (o_id == 0) continue;
    Row order;
    HTAP_RETURN_NOT_OK(Get(txn, kOrders, OrderKey(w_, d, o_id), &order));
    order.Set(od::kCarrierId, Value(p.carrier));
    HTAP_RETURN_NOT_OK(Update(txn, kOrders, order));
    double sum = 0;
    const int64_t ol_cnt = order.Get(od::kOlCnt).AsInt64();
    for (int64_t n = 1; n <= ol_cnt; ++n) {
      Row line;
      HTAP_RETURN_NOT_OK(
          Get(txn, kOrderLine, OrderLineKey(w_, d, o_id, n), &line));
      sum += line.Get(ol::kAmount).AsDouble();
      line.Set(ol::kDeliveryD, Value(p.now));
      HTAP_RETURN_NOT_OK(Update(txn, kOrderLine, line));
    }
    Row cust;
    HTAP_RETURN_NOT_OK(
        Get(txn, kCustomer, order.Get(od::kCKey).AsInt64(), &cust));
    cust.Set(cu::kBalance, Value(cust.Get(cu::kBalance).AsDouble() + sum));
    HTAP_RETURN_NOT_OK(Update(txn, kCustomer, cust));
  }
  return Status::OK();
}

Status Terminal::OrderStatus(DbTxn* txn, const Params& p) {
  Row cust, dist, order, line;
  HTAP_RETURN_NOT_OK(Get(txn, kCustomer, CustomerKey(w_, p.d, p.c), &cust));
  HTAP_RETURN_NOT_OK(Get(txn, kDistrict, DistrictKey(w_, p.d), &dist));
  const int64_t o_id = dist.Get(di::kNextOId).AsInt64() - 1;
  HTAP_RETURN_NOT_OK(Get(txn, kOrders, OrderKey(w_, p.d, o_id), &order));
  const int64_t ol_cnt = order.Get(od::kOlCnt).AsInt64();
  for (int64_t n = 1; n <= ol_cnt; ++n)
    HTAP_RETURN_NOT_OK(
        Get(txn, kOrderLine, OrderLineKey(w_, p.d, o_id, n), &line));
  return Status::OK();
}

void Terminal::Apply(const Params& p) {
  switch (p.kind) {
    case TxnKind::kNewOrder: {
      RefDistrict& dist = home_->districts[static_cast<size_t>(p.d - 1)];
      RefOrder order;
      order.c_id = p.c;
      order.entry_d = p.now;
      order.ol_cnt = p.ol_cnt;
      order.first_line = dist.lines.size();
      for (int64_t n = 0; n < p.ol_cnt; ++n) {
        RefLine line;
        line.i_id = p.items[static_cast<size_t>(n)];
        line.quantity = p.qty[static_cast<size_t>(n)];
        line.amount = static_cast<double>(line.quantity) *
                      mirror_->items[static_cast<size_t>(line.i_id - 1)].price;
        dist.lines.push_back(line);
        RefStock& s = home_->stock[static_cast<size_t>(line.i_id - 1)];
        s.quantity = NewStockQuantity(s.quantity, line.quantity);
        s.ytd += line.quantity;
        ++s.order_cnt;
      }
      dist.orders.push_back(order);
      ++dist.next_o_id;
      acks_.Append(static_cast<int>(p.d), NowNs());
      break;
    }
    case TxnKind::kPayment: {
      home_->ytd += p.amount;
      home_->districts[static_cast<size_t>(p.d - 1)].ytd += p.amount;
      RefCustomer& c = mirror_->customer(w_, p.d, p.c);
      c.balance -= p.amount;
      c.ytd_payment += p.amount;
      ++c.payment_cnt;
      break;
    }
    case TxnKind::kDelivery:
      for (size_t d = 0; d < kDistricts; ++d) {
        if (p.deliver[d] == 0) continue;
        RefDistrict& dist = home_->districts[d];
        RefOrder& o = dist.orders[static_cast<size_t>(p.deliver[d] - 1)];
        o.carrier = p.carrier;
        double sum = 0;
        for (int64_t n = 0; n < o.ol_cnt; ++n) {
          RefLine& l = dist.lines[o.first_line + static_cast<size_t>(n)];
          sum += l.amount;
          l.delivery_d = p.now;
        }
        mirror_->customer(w_, static_cast<int64_t>(d) + 1, o.c_id).balance += sum;
        ++next_delivery_[d];
      }
      break;
    case TxnKind::kOrderStatus:
      break;
  }
}

}  // namespace htapbench
