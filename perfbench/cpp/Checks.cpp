//===- perfbench/cpp/Checks.cpp - Output checks of every workload ---------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

using namespace pb;

namespace {

std::string str(uint64_t V) { return std::to_string(V); }

} // namespace

Problems pb::checkKvOutcome(
    const std::vector<PutRec> &Puts,
    const std::set<std::pair<uint32_t, uint32_t>> &Applied,
    const std::map<uint64_t, std::map<uint32_t, uint32_t>> &Finals) {
  Problems P;
  // Per key, in issue order: the puts form a chain in which each is
  // issued only after the previous one was acknowledged.
  std::map<uint32_t, std::vector<const PutRec *>> ByKey;
  for (const PutRec &Put : Puts)
    ByKey[Put.Key].push_back(&Put);
  for (auto &[Key, Chain] : ByKey) {
    for (size_t I = 1; I < Chain.size(); ++I) {
      const PutRec &Prev = *Chain[I - 1];
      if (Prev.Ack == 0 || Chain[I]->Issue < Prev.Ack)
        P.push_back("key " + str(Key) + ": put " + str(Chain[I]->Value) +
                    " issued while put " + str(Prev.Value) +
                    " was outstanding");
    }
  }
  for (const PutRec &Put : Puts)
    if (Put.Ok && !Applied.count({Put.Key, Put.Value}))
      P.push_back("acknowledged put key " + str(Put.Key) + " = " +
                  str(Put.Value) + " was never applied");
  for (auto &[Key, Chain] : ByKey) {
    // Admissible final values: the last acknowledged put's value, and
    // that of any later put whose outcome is unknown.
    std::set<uint32_t> Allowed;
    bool AnyAcked = false;
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      Allowed.insert((*It)->Value);
      if ((*It)->Ok) {
        AnyAcked = true;
        break;
      }
    }
    for (const auto &[Replica, Table] : Finals) {
      auto Got = Table.find(Key);
      if (Got == Table.end()) {
        if (AnyAcked)
          P.push_back("replica " + str(Replica) + " lost key " + str(Key));
        continue;
      }
      if (!Allowed.count(Got->second))
        P.push_back("replica " + str(Replica) + " key " + str(Key) +
                    " holds " + str(Got->second) + ", last acknowledged " +
                    str(Chain.back()->Value));
    }
  }
  return P;
}

Problems pb::checkReadFloors(const std::vector<ReadRec> &Reads) {
  Problems P;
  for (size_t I = 0; I != Reads.size(); ++I)
    if (Reads[I].SafeIndex < Reads[I].Floor)
      P.push_back("read " + str(I) + " served at index " +
                  str(Reads[I].SafeIndex) + " below acknowledged index " +
                  str(Reads[I].Floor));
  return P;
}

Problems pb::checkAckedSeen(const std::vector<uint64_t> &Acked,
                            const std::set<uint64_t> &Seen) {
  Problems P;
  for (uint64_t M : Acked)
    if (!Seen.count(M))
      P.push_back("acknowledged write " + str(M) + " never seen applied");
  return P;
}

Problems pb::checkReconfigs(
    const std::vector<Members> &Requested,
    const std::vector<std::pair<size_t, Members>> &Commits) {
  Problems P;
  size_t Next = 0;
  for (size_t I = 0; I != Requested.size(); ++I) {
    while (Next != Commits.size() && Commits[Next].second != Requested[I])
      ++Next;
    if (Next == Commits.size()) {
      P.push_back("membership change " + str(I) + " never seen committed");
      return P;
    }
    ++Next;
  }
  return P;
}

Problems pb::checkThreadInvariance(const adore::mc::ExploreResult &One,
                                   const adore::mc::ExploreResult &Many) {
  Problems P;
  if (One.States != Many.States)
    P.push_back("states differ across thread counts: " + str(One.States) +
                " vs " + str(Many.States));
  if (One.Transitions != Many.Transitions)
    P.push_back("transitions differ across thread counts: " +
                str(One.Transitions) + " vs " + str(Many.Transitions));
  if (One.StatesPerDepth != Many.StatesPerDepth)
    P.push_back("per-depth state counts differ across thread counts");
  if (One.Violation.has_value() != Many.Violation.has_value())
    P.push_back("verdicts differ across thread counts");
  return P;
}
