//===- perfbench/cpp/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the benchmark's own calls into each layer: name, start,
/// end, parent span and op id. Each thread appends to its own buffer, so
/// recording takes no lock; the buffers are merged when the run ends.
/// With tracing off a Span is one branch on a global flag and records
/// nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Bench.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct SpanRec {
  const char *Name = ""; ///< A string literal naming the layer call.
  uint64_t Id = 0;       ///< Unique across threads; 0 means none.
  uint64_t Parent = 0;
  uint64_t Op = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

namespace trace {

/// Turns recording on or off for the whole process.
void enable(bool On);
bool on();

/// Every span recorded so far, merged over threads and ordered by id.
/// Call only when no thread records any more.
std::vector<SpanRec> collect();

/// Drops every recorded span.
void clear();

/// Writes \p Spans as CSV (id,parent,op,name,start_ns,end_ns).
bool writeCsv(const std::vector<SpanRec> &Spans, const std::string &Path);

/// Per-name duration statistics: total time, self time (duration minus
/// the time covered by direct children) and the duration samples.
struct NameStats {
  uint64_t Count = 0;
  double TotalUs = 0;
  double SelfUs = 0;
  Samples DurUs;
};

/// Aggregates \p Spans by name, restricted to spans whose op id lies in
/// [OpLo, OpHi).
std::map<std::string, NameStats> aggregate(const std::vector<SpanRec> &Spans,
                                           uint64_t OpLo = 0,
                                           uint64_t OpHi = UINT64_MAX);

} // namespace trace

/// RAII span. Nested spans on one thread record the enclosing one as
/// their parent.
class Span {
public:
  explicit Span(const char *Name, uint64_t Op = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRec Rec;
  bool Active;
};

} // namespace pb

#endif // PERFBENCH_TRACE_H
