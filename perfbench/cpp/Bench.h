//===- perfbench/cpp/Bench.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: run options, the result record printed as
/// the benchmark's last line, sample sets with nearest-rank percentiles,
/// the monotonic clock, and the process's peak resident size.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Smoke mode: every workload at a fraction of its size, to prove the
  /// code paths and checks run, not to measure.
  bool Smoke = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string TraceDir;
};

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e9;
}

/// A set of measurements; percentiles are nearest-rank.
class Samples {
public:
  void add(double V) {
    Vals.push_back(V);
    Sorted = false;
  }
  void addAll(const Samples &O) {
    Vals.insert(Vals.end(), O.Vals.begin(), O.Vals.end());
    Sorted = false;
  }
  size_t size() const { return Vals.size(); }
  /// \p P in [0, 100]; 0 for an empty set.
  double pct(double P) {
    if (Vals.empty())
      return 0;
    if (!Sorted) {
      std::sort(Vals.begin(), Vals.end());
      Sorted = true;
    }
    size_t Rank = static_cast<size_t>(P / 100.0 * Vals.size() + 0.999999);
    Rank = std::clamp<size_t>(Rank, 1, Vals.size());
    return Vals[Rank - 1];
  }
  double median() { return pct(50); }
  double min() { return pct(0); }

private:
  std::vector<double> Vals;
  bool Sorted = true;
};

/// One run's outcome: the fields of the benchmark's last output line.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Every metric the workload measured, by name (value, unit).
  std::map<std::string, std::pair<double, std::string>> Metrics;
  /// Why Correct is false (printed to stderr).
  std::vector<std::string> Errors;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Records a failed output check; the run is then not correct.
  void fail(std::string Why) {
    Correct = false;
    Errors.push_back(std::move(Why));
  }
  void check(bool Ok, const std::string &Why) {
    if (!Ok)
      fail(Why);
  }
};

/// Peak resident set size of this process in MB (VmHWM).
double peakRssMb();

/// Threads the model checker's parallel mode uses: every core, at most 4.
unsigned parallelThreads();

} // namespace pb

#endif // PERFBENCH_BENCH_H
