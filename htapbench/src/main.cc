// htapbench: the repository's HTAP benchmark.
//
//   htapbench --workload <oltp|olap|mixed|mixed_disk> --seed <n>
//             --seconds <s> --trace <0|1> [--selftest 1]
//             [--work-dir <dir>] [--source <id>]
//
// One process sets up a CH-benCHmark database through htapdb's public API,
// runs TPC-C terminals and one analyst against it for --seconds, checks
// every answer against the benchmark's own reference, and prints one JSON
// object as its last line of output: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
// README.md in this directory describes the workloads and metrics.

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "core/database.h"
#include "data.h"
#include "queries.h"
#include "sql/sql.h"
#include "terminal.h"
#include "trace.h"

namespace htapbench {
namespace {

using htap::Database;
using htap::QueryExecInfo;
using htap::QueryPlan;
using htap::QueryResult;

#ifndef HTAPBENCH_BUILD_TYPE
#define HTAPBENCH_BUILD_TYPE "unknown"
#endif

constexpr int kSetups = 3;  // set-ups per run; setup_s is their median

struct WorkloadSpec {
  const char* name;
  htap::ArchitectureKind arch;
  Scale scale;            // one terminal per warehouse
  double terminal_rate;   // transactions/s per terminal; 0 = closed loop
  int64_t think_ms;       // analyst's pause after each query
};

const WorkloadSpec kWorkloads[] = {
    // Three closed-loop terminals; the analyst pauses 100 ms between queries.
    {"oltp", htap::ArchitectureKind::kRowPlusInMemoryColumn,
     {3, 300, 10000, 300}, 0, 100},
    // TPC-C cardinalities on two warehouses; a closed-loop analyst and a
    // light fixed write rate.
    {"olap", htap::ArchitectureKind::kRowPlusInMemoryColumn,
     {2, 3000, 100000, 3000}, 400, 0},
    // The CH-benCHmark rule: open-loop terminals at a fixed rate, one
    // closed-loop analyst.
    {"mixed", htap::ArchitectureKind::kRowPlusInMemoryColumn,
     {3, 1000, 20000, 1000}, 1000, 0},
    {"mixed_disk", htap::ArchitectureKind::kDiskRowPlusDistributedColumn,
     {3, 1000, 20000, 1000}, 1000, 0},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string work_dir = ".";
  std::string source = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: htapbench --workload <oltp|olap|mixed|"
               "mixed_disk> --seed <n> --seconds <s> --trace <0|1> "
               "[--selftest 1] [--work-dir <dir>] [--source <id>]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--selftest") a.selftest = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--source") a.source = v;
    else Usage(("unknown flag " + k).c_str());
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

// ---- Small statistics helpers ---------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Events per second over [start_ns, end_ns): the mean of the per-500 ms
/// window rates between their quartiles, so a stall or a burst of CPU
/// stolen from the machine in a few windows does not move it.
double RobustRate(const std::vector<int64_t>& times_ns, int64_t start_ns,
                  int64_t end_ns) {
  constexpr int64_t kWindowNs = 500'000'000;
  const size_t windows = static_cast<size_t>((end_ns - start_ns) / kWindowNs);
  if (windows == 0) return 0;
  std::vector<double> counts(windows, 0);
  for (int64_t t : times_ns) {
    const int64_t w = (t - start_ns) / kWindowNs;
    if (t >= start_ns && w < static_cast<int64_t>(windows))
      counts[static_cast<size_t>(w)] += 1;
  }
  std::sort(counts.begin(), counts.end());
  const size_t lo = windows / 4, hi = windows - windows / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += counts[i];
  return sum / static_cast<double>(hi - lo) / (kWindowNs / 1e9);
}

double RssMiB() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20)
                : 0;
}

/// Peak resident set size of the process so far (VmHWM).
double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  std::fclose(f);
  return kb / 1024;
}

/// Jiffies the hypervisor took from this machine's CPUs, and all jiffies.
std::pair<double, double> CpuStealAndTotal() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[8] = {0};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  double total = 0;
  for (int i = 0; i < n; ++i) total += v[i];
  return {n == 8 ? v[7] : 0, total};
}

double HeapMiB() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void ReportFailure(const std::string& what, const htap::Status& st,
                   uint64_t earlier_failures) {
  if (earlier_failures < 5)
    std::printf("operation failed: %s: %s\n", what.c_str(),
                st.ToString().c_str());
}

// ---- Queries ----------------------------------------------------------------

/// Runs one benchmark query. `column_only` reads the column store alone
/// (no delta union), which is how the stale-read probe and the second
/// end-of-run pass read.
htap::Result<QueryResult> RunQuery(Database* db, const BenchQuery& q,
                                   QueryExecInfo* info, bool column_only) {
  Span span(SpanName::kQuery);
  if (!q.sql.empty()) {
    // The engine parses inside ExecuteSql; the traced run parses the text
    // once more on its own to time the parser.
    if (TracingEnabled()) {
      Span s(SpanName::kSqlParse);
      auto parsed = htap::sql::Parse(q.sql);
      if (!parsed.ok()) return parsed.status();
    }
    Span s(SpanName::kExec);
    return db->ExecuteSql(q.sql, info);
  }
  Span s(SpanName::kExec);
  if (!column_only) return db->Query(q.plan, info);
  QueryPlan plan = q.plan;
  plan.require_fresh = false;
  plan.path = htap::PathHint::kForceColumn;
  return db->Query(plan, info);
}

/// What the engine reported about the queries it ran (QueryExecInfo).
struct ExecTotals {
  uint64_t queries = 0, vectorized = 0, multi_join = 0, catalog_stats = 0;
  double join_seconds = 0, probe_rows = 0, late_rows = 0, rows_considered = 0,
         groups_total = 0, groups_skipped = 0, delta_rows = 0, qerror_max = 0;

  void Add(const QueryExecInfo& i) {
    ++queries;
    vectorized += i.vectorized;
    rows_considered += static_cast<double>(i.scan.rows_considered);
    groups_total += static_cast<double>(i.scan.groups_total);
    groups_skipped += static_cast<double>(i.scan.groups_skipped);
    delta_rows += static_cast<double>(i.scan.delta_rows_emitted);
    if (!i.join_steps.empty() || i.join.probe_rows > 0) {
      join_seconds += i.join.seconds;
      probe_rows += static_cast<double>(i.join.probe_rows);
      late_rows += static_cast<double>(i.join.rows_late_materialized);
    }
    if (i.join_steps.size() >= 2) {
      ++multi_join;
      catalog_stats += i.join_used_catalog_stats;
      for (size_t s = 0; s < i.join_est_rows.size() &&
                         s < i.join_actual_rows.size();
           ++s) {
        const double est = i.join_est_rows[s];
        const double act = static_cast<double>(i.join_actual_rows[s]);
        if (est > 0 && act > 0)
          qerror_max = std::max(qerror_max, std::max(est / act, act / est));
      }
    }
  }
};

/// The analyst: runs the 15 queries in order, over and over.
class Analyst {
 public:
  Analyst(Database* db, const std::vector<BenchQuery>& queries,
          Checker* checker)
      : db_(db), queries_(queries), checker_(checker),
        query_ms_(queries.size()) {}

  /// A closed loop: each query starts when the previous one has returned
  /// and the analyst has paused `think_ms`.
  void Run(int64_t start_ns, int64_t end_ns, int64_t think_ms) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start_ns)));
    for (uint64_t i = 0;; ++i) {
      if (i > 0 && think_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(think_ms));
      const int64_t begin = NowNs();
      if (begin >= end_ns) break;
      const size_t qi = i % queries_.size();
      if (qi == 0) pass_begin_ns_ = begin;
      const BenchQuery& q = queries_[qi];
      QueryExecInfo info;
      ++attempted;
      auto r = RunQuery(db_, q, &info, false);
      const int64_t done = NowNs();
      if (!r.ok()) {
        ReportFailure(q.name, r.status(), failed++);
        continue;
      }
      query_ms_[qi].push_back(Ms(done - begin));
      if (qi + 1 == queries_.size() && pass_begin_ns_ >= 0)
        pass_s.push_back(static_cast<double>(done - pass_begin_ns_) / 1e9);
      exec.Add(info);
      if (q.name == "QOD") CheckMonotonic(*r);
    }
  }

  const std::vector<std::vector<double>>& query_ms() const { return query_ms_; }
  uint64_t completed() const {
    uint64_t n = 0;
    for (const auto& v : query_ms_) n += v.size();
    return n;
  }

  uint64_t attempted = 0, failed = 0;
  ExecTotals exec;
  std::vector<double> pass_s;  // duration of each pass over the 15 queries

 private:
  /// A district's fresh order count never decreases between two queries.
  void CheckMonotonic(const QueryResult& r) {
    for (const htap::Row& row : r.rows) {
      const std::string key = GroupKey(row, 2);
      const double n = row.Get(2).AsDouble();
      auto it = last_fresh_count_.find(key);
      if (it != last_fresh_count_.end())
        checker_->AtLeast("mixed.fresh_count_monotonic", "district " + key,
                          it->second, n);
      last_fresh_count_[key] = n;
    }
  }

  Database* db_;
  const std::vector<BenchQuery>& queries_;
  Checker* checker_;
  std::vector<std::vector<double>> query_ms_;
  std::map<std::string, double> last_fresh_count_;
  int64_t pass_begin_ns_ = -1;
};

/// The stale-read probe, at a fixed rate: a column-only order count per
/// district. Its lag is the age, when the answer returns, of the oldest
/// acknowledged NewOrder the answer misses (0 when it misses none).
class Prober {
 public:
  static constexpr double kRate = 20;  // probes per second

  Prober(Database* db, const Mirror& mirror,
         const std::map<int, Terminal*>& terminals, Checker* checker)
      : db_(db),
        initial_orders_(mirror.initial_orders),
        terminals_(terminals),
        checker_(checker) {
    probe_.table = "orders";
    probe_.group_by = {od::kWId, od::kDId};
    probe_.aggs = {htap::AggSpec::Count("orders")};
    probe_.require_fresh = false;
    probe_.path = htap::PathHint::kForceColumn;
  }

  void Run(int64_t start_ns, int64_t end_ns) {
    int64_t due;
    for (uint64_t i = 0; WaitForTurn(start_ns, end_ns, kRate, i, &due); ++i)
      Probe();
  }

  uint64_t attempted = 0, failed = 0;
  std::vector<double> lag_ms;
  std::vector<double> pending_entries, delta_mb;  // traced runs only

 private:
  void Probe() {
    ++attempted;
    htap::Result<QueryResult> r = htap::Status::OK();
    {
      Span s(SpanName::kProbe);
      r = db_->Query(probe_);
    }
    const int64_t done = NowNs();
    if (!r.ok()) return ReportFailure("stale-read probe", r.status(), failed++);
    double lag = 0;
    for (const htap::Row& row : r->rows) {
      const int64_t count = row.Get(2).AsInt64();
      checker_->AtLeast("probe.loaded_orders_visible", GroupKey(row, 2),
                        static_cast<double>(initial_orders_),
                        static_cast<double>(count));
      auto t = terminals_.find(static_cast<int>(row.Get(0).AsInt64()));
      if (t == terminals_.end() || count < initial_orders_) continue;
      const int64_t acked = t->second->acks()->AckedAt(
          static_cast<int>(row.Get(1).AsInt64()),
          static_cast<size_t>(count - initial_orders_), done);
      if (acked >= 0) lag = std::max(lag, Ms(done - acked));
    }
    lag_ms.push_back(lag);
    if (TracingEnabled()) {
      size_t pending = 0;
      for (const char* t : {"warehouse", "district", "customer", "item",
                            "stock", "orders", "orderline"})
        pending += db_->Freshness(t).pending_delta_entries;
      pending_entries.push_back(static_cast<double>(pending));
      delta_mb.push_back(static_cast<double>(db_->Stats().delta_bytes) /
                         (1 << 20));
    }
  }

  Database* db_;
  const int64_t initial_orders_;
  const std::map<int, Terminal*>& terminals_;
  Checker* checker_;
  QueryPlan probe_;
};

// ---- End-of-run checks ------------------------------------------------------

/// TPC-C §3.3.2 consistency conditions and the terminals' ledgers, read
/// through the engine in one pass ("fresh" or "column").
void CheckConsistency(Database* db, const Mirror& m,
                      const std::map<int, Terminal*>& terminals,
                      const std::string& pass, bool column_only,
                      Checker* chk) {
  auto run = [&](QueryPlan p) {
    if (column_only) {
      p.require_fresh = false;
      p.path = htap::PathHint::kForceColumn;
    }
    auto r = db->Query(p);
    std::map<std::string, std::vector<double>> out;
    if (!r.ok()) {
      chk->Eq(pass + ".tpcc.query_ok", p.table + ": " + r.status().ToString(),
              1, 0);
      return out;
    }
    const int keys = p.group_by.empty() ? 2 : static_cast<int>(p.group_by.size());
    for (const htap::Row& row : r->rows) {
      std::vector<double> v;
      for (size_t c = static_cast<size_t>(keys); c < row.size(); ++c)
        v.push_back(row.Get(c).is_null() ? NAN : row.Get(c).AsDouble());
      out[GroupKey(row, keys)] = v;
    }
    return out;
  };
  QueryPlan pw;
  pw.table = "warehouse";
  pw.projection = {wh::kId, wh::kId, wh::kYtd};  // key is (w_id, w_id)
  QueryPlan pd;
  pd.table = "district";
  pd.projection = {di::kWId, di::kDId, di::kYtd, di::kNextOId};
  QueryPlan po;
  po.table = "orders";
  po.group_by = {od::kWId, od::kDId};
  po.aggs = {htap::AggSpec::Count(), htap::AggSpec::Max(od::kOId),
             htap::AggSpec::Sum(od::kOlCnt)};
  QueryPlan pl;
  pl.table = "orderline";
  pl.group_by = {ol::kWId, ol::kDId};
  pl.aggs = {htap::AggSpec::Count()};
  auto whs = run(pw), dists = run(pd), orders = run(po), lines = run(pl);
  auto get = [](const std::map<std::string, std::vector<double>>& t,
                const std::string& key, size_t col) {
    auto it = t.find(key);
    return it == t.end() || col >= it->second.size() ? NAN : it->second[col];
  };
  for (int w = 1; w <= m.scale.warehouses; ++w) {
    const std::string wk = std::to_string(w) + "|" + std::to_string(w);
    const double w_ytd = get(whs, wk, 0);
    double d_ytd = 0;
    for (int d = 1; d <= kDistricts; ++d) {
      const std::string k = std::to_string(w) + "|" + std::to_string(d);
      d_ytd += get(dists, k, 0);
      chk->Eq(pass + ".tpcc.next_o_id", "D_NEXT_O_ID-1 = max(O_ID) " + k,
              get(dists, k, 1) - 1, get(orders, k, 1));
      chk->Eq(pass + ".tpcc.ol_cnt", "sum(O_OL_CNT) = orderlines " + k,
              get(orders, k, 2), get(lines, k, 0));
      auto t = terminals.find(w);
      const double acked =
          t == terminals.end() ? 0 : static_cast<double>(t->second->acks()->Count(d));
      chk->Eq(pass + ".ledger.order_count", "initial + acked NewOrders " + k,
              static_cast<double>(m.initial_orders) + acked, get(orders, k, 0));
    }
    chk->Eq(pass + ".tpcc.w_ytd_sum", "W_YTD = sum(D_YTD) w=" + std::to_string(w),
            d_ytd, w_ytd, 1e-9);
    chk->Eq(pass + ".ledger.w_ytd",
            "initial + acked payments w=" + std::to_string(w),
            m.warehouses[static_cast<size_t>(w - 1)].ytd, w_ytd, 1e-9);
  }
}

/// Every query against the reference and the consistency checks, once
/// fresh and once column-only after ForceSyncAll. Returns the time the
/// ForceSyncAll took, in ms.
double EndOfRunChecks(Database* db, const Mirror& m,
                      const std::vector<BenchQuery>& queries,
                      const std::map<int, Terminal*>& terminals,
                      Checker* chk) {
  std::vector<Answer> ref;
  for (const BenchQuery& q : queries) ref.push_back(Reference(q.name, m));
  double drain_ms = 0;
  for (const bool column_only : {false, true}) {
    const std::string pass = column_only ? "column" : "fresh";
    if (column_only) {
      const int64_t t0 = NowNs();
      Span s(SpanName::kSyncForce);
      const htap::Status st = db->ForceSyncAll();
      drain_ms = Ms(NowNs() - t0);
      if (!st.ok()) chk->Eq("column.sync_ok", st.ToString(), 1, 0);
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string kind = pass + ".answer." + queries[i].name;
      QueryExecInfo info;
      auto r = RunQuery(db, queries[i], &info, column_only);
      if (!r.ok())
        chk->Eq(kind, "query ran: " + r.status().ToString(), 1, 0);
      else
        CheckAnswer(chk, kind, queries[i], ref[i], *r);
    }
    CheckConsistency(db, m, terminals, pass, column_only, chk);
  }
  return drain_ms;
}

// ---- Output -------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

const char* CompilerName() {
#if defined(__clang__)
  return "clang";
#elif defined(__GNUC__)
  return "gcc";
#else
  return "unknown";
#endif
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Open-loop clients sleep until each request is due; the default 50 us
  // timer slack would add that much jitter to every latency they time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (spec == nullptr) Usage("unknown workload");

  std::printf("host: cores=%u compiler=%s %s build=%s source=%s\n",
              std::thread::hardware_concurrency(), CompilerName(), __VERSION__,
              HTAPBENCH_BUILD_TYPE, args.source.c_str());
  std::printf("workload: %s architecture=%s warehouses=%d (one terminal each) "
              "terminal_rate=%g/s analyst_think=%lldms seed=%llu seconds=%g "
              "trace=%d\n",
              spec->name, htap::ArchitectureName(spec->arch),
              spec->scale.warehouses, spec->terminal_rate,
              static_cast<long long>(spec->think_ms),
              static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  Mirror mirror = Generate(spec->scale, args.seed);
  const std::vector<BenchQuery> queries = Queries(mirror);

  // ---- Set-up, kSetups times; the last database is the one measured. ----
  namespace fs = std::filesystem;
  std::string private_dir;
  if (spec->arch == htap::ArchitectureKind::kDiskRowPlusDistributedColumn) {
    std::string tmpl = args.work_dir + "/data-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      std::fprintf(stderr, "cannot create a data directory under %s\n",
                   args.work_dir.c_str());
      return 2;
    }
    private_dir = tmpl;
  }
  std::unique_ptr<Database> db;
  std::vector<double> setup_s;
  double setup_sync_ms = 0, user_bytes = 0, setup_rss_mb = 0, setup_heap_mb = 0;
  const double rss_before = RssMiB(), heap_before = HeapMiB();
  for (int rep = 0; rep < kSetups; ++rep) {
    db.reset();
    malloc_trim(0);
    htap::DatabaseOptions opts;
    opts.architecture = spec->arch;
    if (!private_dir.empty()) {
      opts.data_dir = private_dir + "/setup" + std::to_string(rep);
      fs::remove_all(private_dir + "/setup" + std::to_string(rep - 1));
      fs::create_directories(opts.data_dir);
    }
    user_bytes = 0;
    const int64_t t0 = NowNs();
    auto opened = Database::Open(opts);
    if (!opened.ok()) Usage(opened.status().ToString().c_str());
    db = std::move(*opened);
    htap::Status st = CreateTables(db.get());
    if (st.ok()) st = Load(db.get(), mirror, &user_bytes);
    const int64_t t_sync = NowNs();
    if (st.ok()) st = db->ForceSyncAll();
    const int64_t t1 = NowNs();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 2;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_sync_ms = Ms(t1 - t_sync);
    // Resident memory is read after the first set-up, while the process has
    // freed nothing yet: later set-ups reuse freed heap, which hides growth.
    if (rep == 0) setup_rss_mb = RssMiB() - rss_before;
    setup_heap_mb = HeapMiB() - heap_before;
  }
  const htap::EngineStats at_setup = db->Stats();

  // ---- Timing ----
  if (args.trace) EnableTracing();
  Checker checker(args.selftest);
  std::vector<std::unique_ptr<Terminal>> terminals;
  std::map<int, Terminal*> by_warehouse;
  for (int k = 0; k < spec->scale.warehouses; ++k) {
    terminals.push_back(std::make_unique<Terminal>(
        db.get(), &mirror, k + 1, args.seed * 1000003 + static_cast<uint64_t>(k) + 1));
    by_warehouse[k + 1] = terminals.back().get();
  }
  Analyst analyst(db.get(), queries, &checker);
  Prober prober(db.get(), mirror, by_warehouse, &checker);
  const htap::EngineStats before = db->Stats();
  const auto cpu_before = CpuStealAndTotal();
  const int64_t start = NowNs() + 1000000;
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < spec->scale.warehouses; ++k) {
      const int64_t offset =
          spec->terminal_rate > 0
              ? static_cast<int64_t>(1e9 / spec->terminal_rate * k / spec->scale.warehouses)
              : 0;
      threads.emplace_back([&, k, offset] {
        terminals[static_cast<size_t>(k)]->Run(start, end, spec->terminal_rate,
                                               offset);
      });
    }
    threads.emplace_back([&] { analyst.Run(start, end, spec->think_ms); });
    threads.emplace_back([&] { prober.Run(start, end); });
    for (std::thread& t : threads) t.join();
  }
  const htap::EngineStats after = db->Stats();
  const auto cpu_after = CpuStealAndTotal();

  // ---- Checks ----
  const double drain_ms =
      EndOfRunChecks(db.get(), mirror, queries, by_warehouse, &checker);
  const bool pass = checker.Finish();
  if (args.selftest) {
    std::printf("selftest: %s\n", pass ? "pass" : "FAIL");
    db.reset();
    if (!private_dir.empty()) fs::remove_all(private_dir);
    return pass ? 0 : 1;
  }

  // ---- Metrics ----
  TerminalStats tx;  // all terminals merged
  for (const auto& t : terminals) {
    const TerminalStats& s = t->stats();
    for (size_t k = 0; k < kNumTxnKinds; ++k)
      tx.latency_us[k].insert(tx.latency_us[k].end(), s.latency_us[k].begin(),
                              s.latency_us[k].end());
    tx.lateness_us.insert(tx.lateness_us.end(), s.lateness_us.begin(),
                          s.lateness_us.end());
    tx.commit_ns.insert(tx.commit_ns.end(), s.commit_ns.begin(),
                        s.commit_ns.end());
    tx.attempted += s.attempted;
    tx.committed += s.committed;
    tx.failed += s.failed;
    tx.attempts += s.attempts;
    tx.retries += s.retries;
    tx.retry_wasted_ms += s.retry_wasted_ms;
    if (s.failed)
      std::printf("terminal %d: %llu failed, first: %s\n", t->warehouse(),
                  static_cast<unsigned long long>(s.failed),
                  s.first_failure.c_str());
  }
  const auto& no_us = tx.latency_us[static_cast<size_t>(TxnKind::kNewOrder)];
  const auto& pay_us = tx.latency_us[static_cast<size_t>(TxnKind::kPayment)];
  std::vector<double> query_medians;
  double log_sum = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double med = Median(analyst.query_ms()[i]);
    query_medians.push_back(med);
    log_sum += std::log(std::max(med, 1e-6));
  }
  // A closed loop's rate is the interquartile mean of its window rates; an
  // open loop's is set by its schedule, so it is counted whole, up to the
  // last commit.
  const int64_t last_commit =
      tx.commit_ns.empty() ? end
                           : *std::max_element(tx.commit_ns.begin(),
                                               tx.commit_ns.end());
  const double txn_per_s =
      spec->terminal_rate > 0
          ? static_cast<double>(tx.committed) * 1e9 /
                static_cast<double>(std::max<int64_t>(last_commit - start, 1))
          : RobustRate(tx.commit_ns, start, end);
  // One pass runs the 15 queries; its median duration is robust to a stall
  // in a few passes.
  const double query_per_s =
      analyst.pass_s.empty()
          ? static_cast<double>(analyst.completed()) / args.seconds
          : static_cast<double>(queries.size()) / Median(analyst.pass_s);
  const uint64_t attempted = tx.attempted + analyst.attempted + prober.attempted;
  const uint64_t failed = tx.failed + analyst.failed + prober.failed;

  std::printf("transactions: attempted=%llu committed=%llu failed=%llu "
              "attempts=%llu retries=%llu (Conflict, retried with the same "
              "parameters)\n",
              static_cast<unsigned long long>(tx.attempted),
              static_cast<unsigned long long>(tx.committed),
              static_cast<unsigned long long>(tx.failed),
              static_cast<unsigned long long>(tx.attempts),
              static_cast<unsigned long long>(tx.retries));
  std::printf("samples: neworder=%zu payment=%zu queries=%llu probes=%zu; "
              "not gated (spread across runs too wide): neworder_p90_us=%.1f "
              "neworder_p99_us=%.1f payment_p50_us=%.1f\n",
              no_us.size(), pay_us.size(),
              static_cast<unsigned long long>(analyst.completed()),
              prober.lag_ms.size(), Quantile(no_us, 0.90),
              Quantile(no_us, 0.99), Quantile(pay_us, 0.5));
  if (spec->terminal_rate > 0)
    std::printf("generator lateness: p50=%.1fus p99=%.1fus max=%.1fus\n",
                Quantile(tx.lateness_us, 0.5), Quantile(tx.lateness_us, 0.99),
                Quantile(tx.lateness_us, 1.0));
  const double cpu_total = cpu_after.second - cpu_before.second;
  std::printf("cpu steal during timing: %.1f%%\n",
              cpu_total > 0 ? 100 * (cpu_after.first - cpu_before.first) / cpu_total
                            : 0.0);
  std::printf("setup: runs=%d times_s=[%.3f, %.3f, %.3f] rss_after_first=%.0fMiB "
              "peak_rss=%.0fMiB\n",
              kSetups, setup_s[0], setup_s[1], setup_s[2], setup_rss_mb,
              PeakRssMiB());

  const double mib = 1 << 20;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", Median(setup_s)},
        {"setup_heap_mb", "MiB", setup_heap_mb},
        {"txn_per_s", "1/s", txn_per_s},
        {"neworder_p50_us", "us", Quantile(no_us, 0.5)},
        {"query_per_s", "1/s", query_per_s},
        {"query_geomean_ms", "ms",
         std::exp(log_sum / static_cast<double>(queries.size()))},
        {"stale_read_lag_ms", "ms", Median(prober.lag_ms)},
    };
  } else {
    const std::vector<SpanSummary> spans = SummarizeSpans();
    auto span_q = [&](SpanName n, double q) {
      return Quantile(spans[static_cast<size_t>(n)].durations_us, q);
    };
    std::printf("%-18s %10s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (size_t n = 0; n < kNumSpanNames; ++n)
      std::printf("%-18s %10llu %12.1f %12.1f\n",
                  SpanNameString(static_cast<SpanName>(n)),
                  static_cast<unsigned long long>(spans[n].count),
                  spans[n].total_ms, spans[n].self_ms);
    const std::string spans_path = args.work_dir + "/spans-" + spec->name +
                                   "-" + std::to_string(args.seed) + ".jsonl";
    size_t dropped = 0;
    const size_t written = WriteSpans(spans_path, &dropped);
    std::printf("spans: wrote %zu to %s (%zu beyond the per-thread cap "
                "counted but not written)\n",
                written, spans_path.c_str(), dropped);

    const uint64_t merges = after.merges - before.merges;
    const uint64_t merged = after.entries_merged - before.entries_merged;
    const uint64_t bp_hits = after.buffer_pool_hits - before.buffer_pool_hits;
    const uint64_t bp_misses =
        after.buffer_pool_misses - before.buffer_pool_misses;
    const auto& enc = at_setup.column_encodings.bytes;
    const ExecTotals& ex = analyst.exec;
    const double nq = std::max<double>(1, static_cast<double>(ex.queries));
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    std::printf("ratio bases: useful_ratio=%llu commits/%llu attempts "
                "bytes_per_user_byte=%.0f user bytes hit_ratio=%llu hits/%llu "
                "lookups entries_per_merge=%llu entries/%llu merges "
                "zone_skip_ratio=%.0f skipped/%.0f groups "
                "vectorized_queries=%llu/%llu catalog_stats_queries=%llu/%llu "
                "multi-join queries; per-query exec counters averaged over "
                "%llu queries\n",
                static_cast<unsigned long long>(tx.committed),
                static_cast<unsigned long long>(tx.attempts), user_bytes,
                static_cast<unsigned long long>(bp_hits),
                static_cast<unsigned long long>(bp_hits + bp_misses),
                static_cast<unsigned long long>(merged),
                static_cast<unsigned long long>(merges), ex.groups_skipped,
                ex.groups_total, static_cast<unsigned long long>(ex.vectorized),
                static_cast<unsigned long long>(ex.queries),
                static_cast<unsigned long long>(ex.catalog_stats),
                static_cast<unsigned long long>(ex.multi_join),
                static_cast<unsigned long long>(ex.queries));
    std::printf("traced end-to-end (for the tracing overhead): txn_per_s=%.1f "
                "neworder_p50_us=%.1f query_per_s=%.2f query_geomean_ms=%.3f\n",
                txn_per_s,
                Quantile(no_us, 0.5),
                query_per_s,
                std::exp(log_sum / static_cast<double>(queries.size())));

    metrics = {
        {"core.begin_us", "us", span_q(SpanName::kBegin, 0.5)},
        {"txn.commit_p50_us", "us", span_q(SpanName::kCommit, 0.5)},
        {"txn.commit_p99_us", "us", span_q(SpanName::kCommit, 0.99)},
        {"txn.attempts", "count", static_cast<double>(tx.attempts)},
        {"txn.retries", "count", static_cast<double>(tx.retries)},
        {"txn.useful_ratio", "ratio",
         ratio(static_cast<double>(tx.committed), static_cast<double>(tx.attempts))},
        {"txn.retry_wasted_ms", "ms", tx.retry_wasted_ms},
        {"storage.get_p50_us", "us", span_q(SpanName::kGet, 0.5)},
        {"storage.update_p50_us", "us", span_q(SpanName::kUpdate, 0.5)},
        {"storage.insert_p50_us", "us", span_q(SpanName::kInsert, 0.5)},
        {"storage.row_store_mb", "MiB",
         static_cast<double>(at_setup.row_store_bytes) / mib},
        {"storage.bytes_per_user_byte", "ratio",
         ratio(static_cast<double>(at_setup.row_store_bytes), user_bytes)},
        {"storage.buffer_pool_hits", "count", static_cast<double>(bp_hits)},
        {"storage.buffer_pool_misses", "count", static_cast<double>(bp_misses)},
        {"storage.buffer_pool_hit_ratio", "ratio",
         ratio(static_cast<double>(bp_hits),
               static_cast<double>(bp_hits + bp_misses))},
        {"delta.pending_entries_p50", "count", Median(prober.pending_entries)},
        {"delta.mb_p50", "MiB", Median(prober.delta_mb)},
        {"sync.merges", "count", static_cast<double>(merges)},
        {"sync.entries_per_merge", "count",
         ratio(static_cast<double>(merged), static_cast<double>(merges))},
        {"sync.drain_ms", "ms", drain_ms},
        {"sync.setup_ms", "ms", setup_sync_ms},
        {"columnar.mb", "MiB",
         static_cast<double>(at_setup.column_store_bytes) / mib},
        {"columnar.bytes_per_user_byte", "ratio",
         ratio(static_cast<double>(at_setup.column_store_bytes), user_bytes)},
        {"columnar.dictionary_mb", "MiB",
         static_cast<double>(enc[static_cast<size_t>(
             htap::EncodingType::kDictionary)]) / mib},
        {"columnar.rle_mb", "MiB",
         static_cast<double>(enc[static_cast<size_t>(htap::EncodingType::kRle)]) /
             mib},
        {"columnar.for_mb", "MiB",
         static_cast<double>(enc[static_cast<size_t>(
             htap::EncodingType::kForBitPack)]) / mib},
        {"columnar.plain_mb", "MiB",
         static_cast<double>(enc[static_cast<size_t>(htap::EncodingType::kPlain)]) /
             mib},
    };
    for (size_t i = 0; i < queries.size(); ++i)
      metrics.push_back({"query." + queries[i].name + "_ms", "ms",
                         query_medians[i]});
    const double join_s = ex.join_seconds;
    metrics.insert(
        metrics.end(),
        {
            {"exec.join_ms", "ms", join_s * 1e3 / nq},
            {"exec.join_probe_rows_per_s", "1/s", ratio(ex.probe_rows, join_s)},
            {"exec.rows_late_materialized", "count", ex.late_rows / nq},
            {"exec.scan_rows_considered", "count", ex.rows_considered / nq},
            {"exec.scan_groups_total", "count", ex.groups_total / nq},
            {"exec.zone_skip_ratio", "ratio",
             ratio(ex.groups_skipped, ex.groups_total)},
            {"exec.vectorized_queries", "ratio",
             ratio(static_cast<double>(ex.vectorized), nq)},
            {"exec.delta_rows_emitted", "count", ex.delta_rows / nq},
            {"opt.join_qerror_max", "ratio", ex.qerror_max},
            {"opt.catalog_stats_queries", "ratio",
             ratio(static_cast<double>(ex.catalog_stats),
                   static_cast<double>(ex.multi_join))},
            {"sql.parse_us", "us", span_q(SpanName::kSqlParse, 0.5)},
        });
  }

  db.reset();
  if (!private_dir.empty()) fs::remove_all(private_dir);
  PrintResult(pass, attempted, failed, metrics);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace htapbench

int main(int argc, char** argv) { return htapbench::Main(argc, argv); }
