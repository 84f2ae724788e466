// Per-segment compression advisor (the Hyrise-style encoding selector).
//
// ChooseEncoding (encoding.h) picks an encoding from coarse heuristics with
// fixed thresholds. The advisor instead *estimates the encoded size in
// bytes* of every applicable encoding from one pass of observed value
// statistics (row count, distinct values, run structure, integer range,
// null density) and picks the smallest — with a bias requiring a compressed
// encoding to beat PLAIN by at least 1/8 of PLAIN's footprint, so marginal
// wins do not pay dictionary/unpack overhead at scan time.
//
// It runs where segments are (re)built: column-table append at sync time
// and compaction. Opt-in per ColumnTable (EnableCompressionAdvisor), and
// wired on by default in the engines through
// DatabaseOptions::compression_advisor.

#ifndef HTAP_COLUMNAR_COMPRESSION_ADVISOR_H_
#define HTAP_COLUMNAR_COMPRESSION_ADVISOR_H_

#include "columnar/encoding.h"

namespace htap {

/// Estimated encoded footprint of one candidate encoding. `applicable` is
/// false when the encoding cannot represent the column (FOR on non-INT64,
/// dictionary on DOUBLE) — `bytes` is meaningless then.
struct EncodingEstimate {
  EncodingType encoding = EncodingType::kPlain;
  size_t bytes = 0;
  bool applicable = false;
};

/// The advisor's decision plus the per-encoding estimates it compared
/// (indexed by EncodingType), for stats surfacing and tests.
struct CompressionAdvice {
  EncodingType chosen = EncodingType::kPlain;
  std::array<EncodingEstimate, kNumEncodings> candidates{};
};

/// Observed value statistics the estimates derive from; filled by one pass
/// over the segment's values. Distinct/run/range counts are over the RAW
/// slot values (null placeholders included) because that is exactly what
/// the encoders consume — nulls ride in a separate bitmap.
struct SegmentValueStats {
  size_t rows = 0;
  size_t nulls = 0;
  size_t distinct = 0;       // distinct raw slot values
  size_t runs = 0;           // maximal equal-value runs of raw slot values
  size_t string_bytes = 0;   // total payload of all string cells
  size_t distinct_string_bytes = 0;  // payload of the distinct strings
  int64_t int_min = 0;       // raw-slot range — what the FOR encoder frames
  int64_t int_max = 0;
};

/// Collects SegmentValueStats from `values`; distinct counts sort a copy.
SegmentValueStats CollectSegmentStats(const ColumnVector& values);

/// Re-picks the segment encoding from observed stats (see file header).
CompressionAdvice AdviseEncoding(const ColumnVector& values);

}  // namespace htap

#endif  // HTAP_COLUMNAR_COMPRESSION_ADVISOR_H_
