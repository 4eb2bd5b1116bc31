//===- perfbench/cpp/Checks.h - Output checks of every workload -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks that prove a run's outputs correct. Each takes the
/// benchmark's own record of what it asked for and what it observed, and
/// compares the program's outputs against a computation made apart from
/// the program or against a property the method must have. Each returns
/// the list of discrepancies (empty = pass), so the self-test can feed it
/// doctored records and expect it to fail.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "mc/Engine.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Problems = std::vector<std::string>;

/// One put as the benchmark issued and saw it. Issue and Ack are
/// positions in one logical order of client events, so "issued after
/// the previous put's acknowledgement" is well defined even when both
/// happen at one virtual instant.
struct PutRec {
  uint32_t Key = 0;
  uint32_t Value = 0;
  uint64_t Issue = 0;
  uint64_t Ack = 0; ///< 0 while outstanding.
  bool Ok = false;
};

/// Key-value outcome: no two puts to one key are outstanding together;
/// every acknowledged put is among \p Applied (key, value) pairs; and on
/// every replica of \p Finals each key holds the value of its last
/// acknowledged put (or of a later put whose outcome is unknown).
Problems
checkKvOutcome(const std::vector<PutRec> &Puts,
               const std::set<std::pair<uint32_t, uint32_t>> &Applied,
               const std::map<uint64_t, std::map<uint32_t, uint32_t>> &Finals);

/// One linearizable read: the commit index of the last write the
/// benchmark saw acknowledged before issuing it, and the safe index the
/// program served it at.
struct ReadRec {
  size_t Floor = 0;
  size_t SafeIndex = 0;
};

/// Every read's safe index is at least its floor.
Problems checkReadFloors(const std::vector<ReadRec> &Reads);

/// Every acknowledged write (by method id) was seen applied.
Problems checkAckedSeen(const std::vector<uint64_t> &Acked,
                        const std::set<uint64_t> &Seen);

/// A membership as a sorted member list.
using Members = std::vector<uint32_t>;

/// Every requested membership change was seen committed: walking the
/// \p Commits (log index, members) in index order, request I is matched
/// by the first commit of its member list after request I-1's match.
Problems checkReconfigs(const std::vector<Members> &Requested,
                        const std::vector<std::pair<size_t, Members>> &Commits);

/// State, transition and per-depth counts of one model agree between a
/// single-thread and a parallel exploration.
Problems checkThreadInvariance(const adore::mc::ExploreResult &One,
                               const adore::mc::ExploreResult &Many);

} // namespace pb

#endif // PERFBENCH_CHECKS_H
