#include "columnar/segment.h"

namespace htap {

Segment Segment::Build(const ColumnVector& values) {
  return BuildWithEncoding(values, ChooseEncoding(values));
}

namespace {

/// Positions of the first minimum and first maximum among the non-NULL
/// slots of `v` (ties keep the earliest), or {-1, -1} when all are NULL —
/// the same fold Value::operator< gives, without boxing each slot.
template <typename T>
std::pair<long, long> MinMaxPositions(const std::vector<T>& v,
                                      const ColumnVector& values) {
  long lo = -1, hi = -1;
  const bool any_null = values.nulls().AnySet();
  for (size_t i = 0; i < v.size(); ++i) {
    if (any_null && values.IsNull(i)) continue;
    if (lo < 0) {
      lo = hi = static_cast<long>(i);
      continue;
    }
    if (v[i] < v[static_cast<size_t>(lo)]) lo = static_cast<long>(i);
    if (v[static_cast<size_t>(hi)] < v[i]) hi = static_cast<long>(i);
  }
  return {lo, hi};
}

}  // namespace

Segment Segment::BuildWithEncoding(const ColumnVector& values,
                                   EncodingType enc) {
  Segment s;
  s.data_ = Encode(values, enc);
  s.has_nulls_ = values.nulls().AnySet();
  std::pair<long, long> pos;
  switch (values.type()) {
    case Type::kInt64: pos = MinMaxPositions(values.ints(), values); break;
    case Type::kDouble: pos = MinMaxPositions(values.doubles(), values); break;
    case Type::kString: pos = MinMaxPositions(values.strings(), values); break;
  }
  if (pos.first >= 0) {
    s.min_ = values.GetValue(static_cast<size_t>(pos.first));
    s.max_ = values.GetValue(static_cast<size_t>(pos.second));
  }
  return s;
}

bool Segment::CanSkip(const std::string& op, const Value& v) const {
  if (min_.is_null()) return true;  // empty or all-NULL segment
  if (op == "=") return v < min_ || max_ < v;
  if (op == "<") return !(min_ < v);   // need min < v
  if (op == "<=") return v < min_;
  if (op == ">") return !(v < max_);   // need max > v
  if (op == ">=") return max_ < v;
  return false;  // "!=" and unknown ops: cannot skip
}

}  // namespace htap
