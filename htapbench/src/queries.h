// The analysts' 15 queries — the twelve CH-style plan shapes and the three
// multi-join SQL chains — and the reference evaluator that answers each of
// them from the benchmark's own copy of the data with plain loops and hash
// maps, never through the engine.

#ifndef HTAPBENCH_QUERIES_H_
#define HTAPBENCH_QUERIES_H_

#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "core/database.h"
#include "data.h"

namespace htapbench {

struct BenchQuery {
  std::string name;
  htap::QueryPlan plan;  // runs through Database::Query when sql is empty
  std::string sql;       // runs through Database::ExecuteSql otherwise
  int group_cols = 0;    // leading output columns that form the group key
  int order_col = -1;    // output column the rows must be sorted on
  bool desc = false;
  size_t limit = 0;
};

std::vector<BenchQuery> Queries(const Mirror& m);

/// One reference aggregate, with the sum of the magnitudes of the terms
/// that went into it: a floating-point sum evaluated in another order can
/// differ by a share of that magnitude, not of the result (a cancelling sum
/// such as an average balance near 0 has a tiny result).
struct Agg {
  double value = 0, magnitude = 0;
  Agg& operator+=(double x) {
    value += x;
    magnitude += x < 0 ? -x : x;
    return *this;
  }
};

/// Group key (the group columns' values joined by '|') -> aggregates in
/// output order.
using Answer = std::map<std::string, std::vector<Agg>>;

/// The reference answer of query `name` over `m`.
Answer Reference(const std::string& name, const Mirror& m);

/// Checks an engine result against the reference answer under check kind
/// `kind`: every group and aggregate (relative 1e-9), the group count, the
/// sort order, and for a LIMIT query the top values.
void CheckAnswer(Checker* checker, const std::string& kind,
                 const BenchQuery& q, const Answer& expected,
                 const htap::QueryResult& actual);

/// The group key of an output row, in the same form Reference uses.
std::string GroupKey(const htap::Row& row, int group_cols);

}  // namespace htapbench

#endif  // HTAPBENCH_QUERIES_H_
