//===- perfbench/cpp/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace pb;

namespace {

std::atomic<bool> Enabled{false};

/// One thread's spans. Owned by the registry so that spans recorded by
/// threads that have since exited are still collected.
struct Buffer {
  uint64_t ThreadIdx = 0;
  uint64_t NextLocal = 1;
  std::vector<SpanRec> Spans;
  std::vector<uint64_t> Stack; ///< Open span ids, innermost last.
};

std::mutex RegistryMu;
std::vector<std::unique_ptr<Buffer>> Registry;

Buffer &localBuffer() {
  thread_local Buffer *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    Registry.push_back(std::make_unique<Buffer>());
    Mine = Registry.back().get();
    Mine->ThreadIdx = Registry.size();
  }
  return *Mine;
}

} // namespace

void trace::enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }

bool trace::on() { return Enabled.load(std::memory_order_relaxed); }

std::vector<SpanRec> trace::collect() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<SpanRec> All;
  for (const auto &B : Registry)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  std::sort(All.begin(), All.end(),
            [](const SpanRec &A, const SpanRec &B) { return A.Id < B.Id; });
  return All;
}

void trace::clear() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  for (const auto &B : Registry)
    B->Spans.clear();
}

bool trace::writeCsv(const std::vector<SpanRec> &Spans,
                     const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id,parent,op,name,start_ns,end_ns\n");
  for (const SpanRec &S : Spans)
    std::fprintf(F, "%llu,%llu,%llu,%s,%llu,%llu\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Op), S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs));
  return std::fclose(F) == 0;
}

std::map<std::string, trace::NameStats>
trace::aggregate(const std::vector<SpanRec> &Spans, uint64_t OpLo,
                 uint64_t OpHi) {
  // Time covered by each span's direct children. Children of one parent
  // run on the parent's thread, strictly nested, so they never overlap.
  std::unordered_map<uint64_t, uint64_t> ChildNs;
  for (const SpanRec &S : Spans)
    if (S.Parent != 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, NameStats> Out;
  for (const SpanRec &S : Spans) {
    if (S.Op < OpLo || S.Op >= OpHi)
      continue;
    NameStats &N = Out[S.Name];
    double Dur = static_cast<double>(S.EndNs - S.StartNs) / 1e3;
    auto It = ChildNs.find(S.Id);
    double Child = It == ChildNs.end() ? 0 : It->second / 1e3;
    ++N.Count;
    N.TotalUs += Dur;
    N.SelfUs += Dur - Child;
    N.DurUs.add(Dur);
  }
  return Out;
}

Span::Span(const char *Name, uint64_t Op) : Active(trace::on()) {
  if (!Active)
    return;
  Buffer &B = localBuffer();
  Rec.Name = Name;
  Rec.Id = (B.ThreadIdx << 40) | B.NextLocal++;
  Rec.Parent = B.Stack.empty() ? 0 : B.Stack.back();
  Rec.Op = Op;
  B.Stack.push_back(Rec.Id);
  Rec.StartNs = nowNs();
}

Span::~Span() {
  if (!Active)
    return;
  Rec.EndNs = nowNs();
  Buffer &B = localBuffer();
  B.Stack.pop_back();
  B.Spans.push_back(Rec);
}
