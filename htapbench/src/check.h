// Correctness checks. Each check belongs to a kind (for example
// "fresh.answer.Q3" or "tpcc.next_o_id"); a run is correct when no check of
// any kind fails.
//
// Self-test mode perturbs the first expected value every kind sees and then
// demands that exactly those perturbed comparisons failed: it shows that
// each kind of check can fail, and that the unperturbed run still passes.

#ifndef HTAPBENCH_CHECK_H_
#define HTAPBENCH_CHECK_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace htapbench {

class Checker {
 public:
  explicit Checker(bool selftest) : selftest_(selftest) {}

  /// expected == actual, within rel_tol of the larger of |expected|,
  /// |actual| and `magnitude`.
  void Eq(const std::string& kind, const std::string& what, double expected,
          double actual, double rel_tol = 0, double magnitude = 0) {
    std::lock_guard<std::mutex> lk(mu_);
    Kind& k = kinds_[kind];
    const bool perturb = selftest_ && k.calls == 0;
    if (perturb) expected += std::max(1.0, std::fabs(expected) * 1e-6);
    const double scale =
        std::max({std::fabs(expected), std::fabs(actual), magnitude});
    const bool ok = expected == actual ||
                    std::fabs(expected - actual) <= rel_tol * scale;
    Record(&k, kind, what, perturb, ok, expected, actual);
  }

  /// actual >= lower.
  void AtLeast(const std::string& kind, const std::string& what, double lower,
               double actual) {
    std::lock_guard<std::mutex> lk(mu_);
    Kind& k = kinds_[kind];
    const bool perturb = selftest_ && k.calls == 0;
    if (perturb) lower = actual + 1;
    Record(&k, kind, what, perturb, actual >= lower, lower, actual);
  }

  /// Prints one line per kind and returns whether the run passes: no
  /// failure, or in self-test mode, every kind failed on exactly its
  /// perturbed comparison.
  bool Finish() {
    std::lock_guard<std::mutex> lk(mu_);
    bool pass = true;
    size_t checks = 0;
    for (const auto& [name, k] : kinds_) {
      checks += k.calls;
      const bool kind_ok = selftest_ ? (k.perturbed_failed && k.genuine_failures == 0)
                                     : k.genuine_failures == 0;
      if (!kind_ok) pass = false;
      if (selftest_ || !kind_ok)
        std::printf("check %-32s %s (%zu comparisons, %zu failed%s)\n",
                    name.c_str(), kind_ok ? "ok" : "FAILED", k.calls,
                    k.genuine_failures,
                    selftest_ ? (k.perturbed_failed ? ", perturbed value caught"
                                                    : ", perturbed value MISSED")
                              : "");
    }
    std::printf("checks: %zu kinds, %zu comparisons, %s%s\n", kinds_.size(),
                checks, pass ? "pass" : "FAIL",
                selftest_ ? " (self-test)" : "");
    return pass;
  }

 private:
  struct Kind {
    size_t calls = 0, genuine_failures = 0;
    bool perturbed_failed = false;
  };

  void Record(Kind* k, const std::string& kind, const std::string& what,
              bool perturbed, bool ok, double expected, double actual) {
    ++k->calls;
    if (perturbed) {
      k->perturbed_failed = !ok;
      return;
    }
    if (ok) return;
    if (++k->genuine_failures <= 3 && printed_++ < 40)
      std::printf("CHECK FAILED %s: %s expected %.17g got %.17g\n",
                  kind.c_str(), what.c_str(), expected, actual);
  }

  const bool selftest_;
  std::mutex mu_;
  std::map<std::string, Kind> kinds_;  // guarded by mu_
  size_t printed_ = 0;                 // guarded by mu_
};

}  // namespace htapbench

#endif  // HTAPBENCH_CHECK_H_
