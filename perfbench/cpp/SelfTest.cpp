//===- perfbench/cpp/SelfTest.cpp - The checks must catch doctoring -------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each output check first gets a clean record, which it must pass, then
// a copy doctored in one way, which it must fail: an acknowledged write
// dropped, a wrong final value, two puts to one key outstanding together,
// a read served below an already acknowledged index, a membership change
// never committed, and a state count that differs across thread counts.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "mc/AdoreModel.h"
#include "mc/Explorer.h"

#include <cstdio>

using namespace adore;
using namespace pb;

namespace {

int expect(const char *What, bool Clean, const Problems &Doctored) {
  bool Ok = Clean && !Doctored.empty();
  std::printf("  %-44s %s\n", What,
              Ok ? "caught" : (Clean ? "MISSED" : "FAILS ON CLEAN INPUT"));
  return Ok ? 0 : 1;
}

} // namespace

int pb::runSelfTest() {
  int Bad = 0;
  std::printf("selftest: each check on a clean and a doctored record\n");

  // Two keys, two puts each, acknowledged in turn.
  std::vector<PutRec> Puts = {{1, 10, 1, 2, true},
                              {2, 20, 3, 5, true},
                              {1, 11, 4, 6, true},
                              {2, 21, 7, 8, true}};
  std::set<std::pair<uint32_t, uint32_t>> Applied = {
      {1, 10}, {2, 20}, {1, 11}, {2, 21}};
  std::map<uint64_t, std::map<uint32_t, uint32_t>> Finals = {
      {1, {{1, 11}, {2, 21}}}, {2, {{1, 11}, {2, 21}}}};
  bool Clean = checkKvOutcome(Puts, Applied, Finals).empty();
  {
    auto Dropped = Applied;
    Dropped.erase({2, 20});
    Bad += expect("dropped acknowledged write", Clean,
                  checkKvOutcome(Puts, Dropped, Finals));
  }
  {
    auto Wrong = Finals;
    Wrong[2][1] = 10; // Replica 2 kept the older value.
    Bad += expect("wrong final value", Clean,
                  checkKvOutcome(Puts, Applied, Wrong));
  }
  {
    auto Overlap = Puts;
    Overlap[2].Issue = 1; // Issued before put 1 = 10 was acknowledged.
    Bad += expect("two puts to one key outstanding", Clean,
                  checkKvOutcome(Overlap, Applied, Finals));
  }

  std::vector<ReadRec> Reads = {{5, 5}, {7, 9}};
  {
    auto Stale = Reads;
    Stale[1].SafeIndex = 6; // Below the acknowledged index 7.
    Bad += expect("read below an acknowledged index",
                  checkReadFloors(Reads).empty(), checkReadFloors(Stale));
  }
  {
    std::vector<uint64_t> Acked = {100, 101};
    std::set<uint64_t> Seen = {100, 101};
    Bad += expect("acknowledged write never applied",
                  checkAckedSeen(Acked, Seen).empty(),
                  checkAckedSeen(Acked, {100}));
  }
  {
    std::vector<Members> Req = {{1, 3, 4}, {1, 2, 3, 4}, {1, 3, 4}};
    std::vector<std::pair<size_t, Members>> Commits = {
        {10, {1, 3, 4}}, {20, {1, 2, 3, 4}}, {30, {1, 3, 4}}};
    auto Missing = Commits;
    Missing.pop_back(); // The last change never commits.
    Bad += expect("missing Reconfig commit",
                  checkReconfigs(Req, Commits).empty(),
                  checkReconfigs(Req, Missing));
  }
  {
    auto Scheme = makeScheme(SchemeKind::Unanimous);
    mc::AdoreModelOptions O;
    O.MaxCaches = 6;
    O.MaxTime = 2;
    mc::AdoreModel M(*Scheme, Config(NodeSet{1, 2, 3}), SemanticsOptions(), O);
    mc::ExploreOptions One, Two;
    One.Threads = 1;
    Two.Threads = 2;
    mc::ExploreResult A = mc::explore(M, One);
    mc::ExploreResult B = mc::explore(M, Two);
    mc::ExploreResult Off = B;
    Off.States += 1;
    Bad += expect("state count differs across thread counts",
                  checkThreadInvariance(A, B).empty(),
                  checkThreadInvariance(A, Off));
  }
  return Bad;
}
