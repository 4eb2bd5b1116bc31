//===- perfbench/cpp/McAdore.cpp - The model-checking run -----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// mc-adore: the paper's verification workload. One round reaches every
// verdict of a fixed suite, each one a job of the mc engine:
//
//   e4-genesis    raft-single-node from genesis, all guards on, safety
//                 invariants, <= 7 caches, times <= 3 (the E4 bounds);
//                 must exhaust with no violation
//   e5-<scheme>   each of the six schemes, full lemma suite, <= 6 caches,
//                 times <= 2 (the E5 bounds); must exhaust, no violation
//   r3-off, r2-off, r1-off
//                 the guard ablations from their seeded prefixes, the
//                 negative controls; each must find a violation
//   corenet       CoreNetModel over three RaftCores, elections to term 2,
//                 one client append, reconfigurations on, <= 50,000
//                 states; no violation
//   parallel      e5-raft-joint again in the engine's parallel mode at
//                 min(nproc, 4) threads; its state, transition and
//                 per-depth counts must equal the single-thread run's
//
// Every other job runs on one thread: on a shared 4-core machine a job
// spread over every core is slowed by whatever else runs there, and its
// time spread 20% from run to run where one thread's spread 2%.
// An "op" is one job; its latency is the time to its verdict.
//
// Host time on a shared machine: the jobs are deterministic, so whatever
// else the machine runs can only add time, and it comes in spells of
// seconds. So each job's figure is its fastest run: the short jobs run
// twice a round, before and after e4-genesis. The set-ups for setup_s are
// timed in batches between jobs, spread over the whole run, of which the
// fastest batch counts. Floors repeat from run to run where medians over a
// few seconds do not.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Trace.h"
#include "Workloads.h"

#include "mc/AdoreModel.h"
#include "mc/CoreNetModel.h"
#include "mc/Explorer.h"

#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <set>

using namespace adore;
using namespace adore::mc;
using namespace pb;

namespace {

const InvariantSelection SafetyOnly{true, false, false, false, false};

Config initialConfigFor(SchemeKind Kind) {
  Config C(NodeSet{1, 2, 3});
  if (Kind == SchemeKind::PrimaryBackup)
    C.Param = 1; // The primary.
  if (Kind == SchemeKind::DynamicQuorum)
    C.Param = 2; // Quorum size.
  return C;
}

/// R3 off: the Fig. 4 prefix — a leader of {1,2,3,4} shrinks to {1,2,3}
/// and a second leader is elected by {2,3,4} before that commits.
AdoreState r3Seed(const Semantics &Sem) {
  AdoreState St(Sem.scheme(), Config(NodeSet{1, 2, 3, 4}));
  Sem.pull(St, 1, PullChoice{NodeSet{1, 2, 3}, 1});
  Sem.reconfig(St, 1, Config(NodeSet{1, 2, 3}));
  Sem.pull(St, 2, PullChoice{NodeSet{2, 3, 4}, 2});
  return St;
}

/// R2 off: two reconfigurations in a row without a commit between them.
AdoreState r2Seed(const Semantics &Sem) {
  AdoreState St(Sem.scheme(), Config(NodeSet{1, 2, 3}));
  Sem.pull(St, 1, PullChoice{NodeSet{1, 2}, 1});
  Sem.invoke(St, 1, 0);
  Sem.push(St, 1, PushChoice{NodeSet{1, 2}, St.Tree.activeCache(1)});
  Sem.reconfig(St, 1, Config(NodeSet{1, 2}));
  Sem.reconfig(St, 1, Config(NodeSet{1, 2, 4}));
  return St;
}

/// R1+ off: a jump from {1,2,3} to {1,4,5}, whose majorities need not
/// intersect the old ones.
AdoreState r1Seed(const Semantics &Sem) {
  AdoreState St(Sem.scheme(), Config(NodeSet{1, 2, 3}));
  Sem.pull(St, 1, PullChoice{NodeSet{1, 2}, 1});
  Sem.invoke(St, 1, 0);
  Sem.push(St, 1, PushChoice{NodeSet{1, 2}, St.Tree.activeCache(1)});
  Sem.reconfig(St, 1, Config(NodeSet{1, 4, 5}));
  return St;
}

/// One verdict to reach.
struct Job {
  std::string Name;
  bool ExpectViolation = false;
  /// Runs the exploration with the given options.
  std::function<ExploreResult(const ExploreOptions &)> Run;
};

/// Every model of the suite, built once per round.
struct Suite {
  std::deque<std::unique_ptr<ReconfigScheme>> Schemes;
  std::deque<AdoreModel> Adore;
  std::deque<CoreNetModel> CoreNet;
  std::vector<Job> Jobs;
  AdoreModel *Joint = nullptr;

  const ReconfigScheme &scheme(SchemeKind K) {
    Schemes.push_back(makeScheme(K));
    return *Schemes.back();
  }

  void addAdore(std::string Name, AdoreModel M, bool Bug) {
    Adore.push_back(std::move(M));
    AdoreModel *P = &Adore.back();
    Jobs.push_back({std::move(Name), Bug, [P](const ExploreOptions &O) {
                      return explore(*P, O);
                    }});
  }

  Suite() {
    {
      AdoreModelOptions O;
      O.MaxCaches = 7;
      O.MaxTime = 3;
      O.Invariants = SafetyOnly;
      addAdore("e4-genesis",
               AdoreModel(scheme(SchemeKind::RaftSingleNode),
                          Config(NodeSet{1, 2, 3}), SemanticsOptions(), O),
               false);
    }
    for (SchemeKind K : allSchemeKinds()) {
      AdoreModelOptions O;
      O.MaxCaches = 6;
      O.MaxTime = 2;
      const ReconfigScheme &S = scheme(K);
      addAdore(std::string("e5-") + S.name(),
               AdoreModel(S, initialConfigFor(K), SemanticsOptions(), O),
               false);
      if (K == SchemeKind::RaftJoint)
        Joint = &Adore.back();
    }
    struct Ablation {
      const char *Name;
      SemanticsOptions Sem;
      size_t MaxCaches;
      AdoreState (*Seed)(const Semantics &);
      Config Initial;
    };
    SemanticsOptions R3Off, R2Off, R1Off;
    R3Off.EnforceR3 = false;
    R2Off.EnforceR2 = false;
    R2Off.ExtraNodes = NodeSet{4};
    R1Off.EnforceR1 = false;
    R1Off.ExtraNodes = NodeSet{4, 5};
    for (const Ablation &A :
         {Ablation{"r3-off", R3Off, 9, r3Seed, Config(NodeSet{1, 2, 3, 4})},
          Ablation{"r2-off", R2Off, 10, r2Seed, Config(NodeSet{1, 2, 3})},
          Ablation{"r1-off", R1Off, 10, r1Seed, Config(NodeSet{1, 2, 3})}}) {
      AdoreModelOptions O;
      O.MaxCaches = A.MaxCaches;
      O.MaxTime = 3;
      O.Invariants = SafetyOnly;
      AdoreModel M(scheme(SchemeKind::RaftSingleNode), A.Initial, A.Sem, O);
      M.seedWith(A.Seed(M.semantics()));
      addAdore(A.Name, std::move(M), true);
    }
    CoreNetModelOptions CO;
    CO.MaxTerm = 2;
    CO.MaxLog = 1;
    CO.MaxPending = 4;
    CO.WithReconfig = true;
    CoreNet.emplace_back(scheme(SchemeKind::RaftSingleNode),
                         Config(NodeSet{1, 2, 3}), CO);
    CoreNetModel *C = &CoreNet.back();
    Jobs.push_back({"corenet", false, [C](const ExploreOptions &O) {
                      ExploreOptions Capped = O;
                      Capped.MaxStates = 50000;
                      return explore(*C, Capped);
                    }});
  }
};

struct RoundOut {
  double Seconds = 0;   ///< Every job's time, each job counted once.
  double ParallelS = 0; ///< The parallel-mode job's time.
  /// Time to each single-thread verdict, in suite order, at the faster of
  /// the round's runs of the job. The parallel-mode job is kept out: its
  /// time depends on what else the machine runs.
  std::vector<double> JobUs;
  uint64_t Runs = 0; ///< Jobs run, the parallel one included.
  Samples LevelMs;
  uint64_t States = 0, Transitions = 0;
  size_t PeakFrontier = 0;
  double CoreNetStatesPerS = 0;
  std::string Counts; ///< Every job's counts; must repeat exactly.
};

/// Runs every job. Calls \p BetweenJobs before each job, outside the
/// timed spans.
RoundOut runRound(unsigned Threads, Result &R,
                  const std::function<void()> &BetweenJobs) {
  RoundOut Out;
  Suite S;
  Out.JobUs.assign(S.Jobs.size(), 0);
  ExploreResult JointOne;
  // The first job (e4-genesis) takes most of a round. Every other job runs
  // once before it and once after it, so that each is timed at two
  // moments of the round (see the file comment).
  std::vector<size_t> Order;
  for (size_t I = 1; I != S.Jobs.size(); ++I)
    Order.push_back(I);
  Order.push_back(0);
  for (size_t I = 1; I != S.Jobs.size(); ++I)
    Order.push_back(I);
  for (size_t I : Order) {
    BetweenJobs();
    Job &J = S.Jobs[I];
    bool Again = Out.JobUs[I] != 0;
    double LastS = 0;
    ExploreOptions O;
    O.Threads = 1;
    O.OnProgress = [&](const ExploreProgress &P) {
      Out.LevelMs.add((P.Seconds - LastS) * 1e3);
      LastS = P.Seconds;
    };
    uint64_t T0 = nowNs();
    ExploreResult Res;
    {
      Span Sp("mc.job", I);
      Res = J.Run(O);
    }
    double Us = (nowNs() - T0) / 1e3;
    Out.JobUs[I] = Again ? std::min(Out.JobUs[I], Us) : Us;
    ++Out.Runs;
    if (!Again) {
      Out.States += Res.States;
      Out.Transitions += Res.Transitions;
    }
    Out.PeakFrontier = std::max(Out.PeakFrontier, Res.PeakFrontier);
    if (J.Name == "corenet")
      Out.CoreNetStatesPerS = Res.States / (Out.JobUs[I] / 1e6);
    if (J.Name == "e5-raft-joint" && !Again)
      JointOne = Res;
    if (J.ExpectViolation) {
      R.check(Res.foundViolation(),
              "mc: " + J.Name + " found no violation (negative control)");
    } else {
      if (Res.Violation)
        R.fail("mc: " + J.Name + " violated: " + *Res.Violation);
      R.check(J.Name == "corenet" || Res.exhausted(),
              "mc: " + J.Name + " did not exhaust its space");
    }
    Out.Counts += J.Name + ":" + std::to_string(Res.States) + "/" +
                  std::to_string(Res.Transitions) + " ";
  }
  // The same model in the parallel mode.
  ExploreOptions Many;
  Many.Threads = Threads;
  ExploreResult JointMany;
  BetweenJobs();
  uint64_t T0 = nowNs();
  {
    Span Sp("mc.job", S.Jobs.size());
    JointMany = explore(*S.Joint, Many);
  }
  Out.ParallelS = secondsSince(T0);
  ++Out.Runs;
  Out.Seconds = Out.ParallelS;
  for (double Us : Out.JobUs)
    Out.Seconds += Us / 1e6;
  for (const std::string &P : checkThreadInvariance(JointOne, JointMany))
    R.fail("mc: e5-raft-joint: " + P);
  return Out;
}

/// The states a breadth-first walk of the E5 raft-single-node model
/// reaches first, for timing the adore layer's per-state calls.
void measureAdore(Result &R, size_t MaxStates) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  AdoreModelOptions O;
  O.MaxCaches = 6;
  O.MaxTime = 2;
  AdoreModel M(*Scheme, Config(NodeSet{1, 2, 3}), SemanticsOptions(), O);
  std::vector<AdoreState> States = M.initialStates();
  std::set<uint64_t> Seen{States.front().fingerprint()};
  for (size_t I = 0; I < States.size() && States.size() < MaxStates; ++I) {
    // Successors go to a side list: appending to States while expanding
    // one of its elements would move the state being expanded.
    std::vector<AdoreState> Fresh;
    M.forEachSuccessor(States[I], [&](AdoreState Next, const std::string &) {
      if (Seen.insert(Next.fingerprint()).second)
        Fresh.push_back(std::move(Next));
    });
    for (AdoreState &St : Fresh)
      if (States.size() < MaxStates)
        States.push_back(std::move(St));
  }
  Samples Fp, Inv;
  uint64_t Sink = 0;
  for (const AdoreState &St : States) {
    uint64_t T0 = nowNs();
    Sink ^= St.Tree.canonicalFingerprint();
    uint64_t T1 = nowNs();
    bool Bad = checkInvariants(St.Tree, InvariantSelection()).has_value();
    uint64_t T2 = nowNs();
    R.check(!Bad, "mc: a reachable e5 state violates an invariant");
    Fp.add((T1 - T0) / 1e3);
    Inv.add((T2 - T1) / 1e3);
  }
  R.set("adore.fingerprint_us", Fp.median(), "us");
  R.set("adore.invariants_us", Inv.median(), "us");
  if (Sink == 0x5EED)
    std::fprintf(stderr, "(fingerprint sink)\n");
}

} // namespace

Result pb::runMcAdore(const RunOptions &O) {
  Result R;
  unsigned Threads = parallelThreads();
  // Set-up is building every model of the suite and its initial states:
  // everything before the first successor can be generated. One takes
  // about 20 us; they are timed in batches between jobs (see the file
  // comment).
  Samples SetupS;
  size_t PerBatch = O.Smoke ? 1 : 200;
  auto SetupBatch = [&] {
    double Sum = 0;
    for (size_t I = 0; I != PerBatch; ++I) {
      uint64_t T0 = nowNs();
      Suite S;
      uint64_t Fp = 0;
      for (const AdoreModel &M : S.Adore)
        for (const AdoreState &St : M.initialStates())
          Fp ^= M.fingerprint(St);
      for (const CoreNetModel &M : S.CoreNet)
        for (const CoreNetModel::State &St : M.initialStates())
          Fp ^= M.fingerprint(St);
      Sum += secondsSince(T0);
      R.check(Fp != 0, "mc: initial states fingerprint to 0");
    }
    SetupS.add(Sum / static_cast<double>(PerBatch));
  };
  // Rounds until --seconds pass, to the nearest whole round: a round is a
  // large share of a run.
  std::vector<RoundOut> Rounds;
  uint64_t RunStart = nowNs();
  double RoundS = 0;
  do {
    uint64_t T0 = nowNs();
    Rounds.push_back(runRound(Threads, R, SetupBatch));
    RoundS = secondsSince(T0);
    R.Attempted += Rounds.back().Runs;
    if (!R.Correct)
      return R;
  } while (!O.Trace && !O.Smoke &&
           secondsSince(RunStart) + RoundS / 2 < O.Seconds);
  for (const RoundOut &Rd : Rounds)
    R.check(Rd.Counts == Rounds.front().Counts,
            "mc: rounds differ: [" + Rd.Counts + "] vs [" +
                Rounds.front().Counts + "]");
  std::fprintf(stderr, "mc-adore (parallel job at %u threads): %s\n", Threads,
               Rounds.front().Counts.c_str());

  R.set("setup_s", SetupS.min(), "s");

  // Every round runs the same jobs, so each job's time is its fastest run
  // (see the file comment); the slowest job (e4-genesis) is the p99.
  RoundOut &First = Rounds.front();
  std::vector<double> Fastest = First.JobUs;
  double ParallelS = First.ParallelS;
  Samples LevelMs, CoreNet;
  for (RoundOut &Rd : Rounds) {
    for (size_t J = 0; J != Fastest.size(); ++J)
      Fastest[J] = std::min(Fastest[J], Rd.JobUs[J]);
    ParallelS = std::min(ParallelS, Rd.ParallelS);
    LevelMs.addAll(Rd.LevelMs);
    CoreNet.add(Rd.CoreNetStatesPerS);
  }
  Samples JobUs;
  double VerifyS = ParallelS;
  for (double Us : Fastest) {
    JobUs.add(Us);
    VerifyS += Us / 1e6;
  }
  // The single-thread verdicts and the parallel one.
  double Jobs = static_cast<double>(First.JobUs.size() + 1);
  R.set("ops_per_s", Jobs / VerifyS, "ops/s");
  R.set("op_p50_us", JobUs.median(), "us");
  R.set("op_p99_us", JobUs.pct(99), "us");
  R.set("mc.verify_s", VerifyS, "s");
  R.set("mc.states_per_s", First.States / VerifyS, "1/s");
  R.set("mc.transitions_per_s", First.Transitions / VerifyS, "1/s");
  R.set("mc.peak_frontier", static_cast<double>(First.PeakFrontier), "count");
  R.set("mc.level_ms", LevelMs.median(), "ms");
  R.set("mc.corenet_states_per_s", CoreNet.median(), "1/s");

  if (O.Trace) {
    trace::clear();
    trace::enable(true);
    RoundOut T = runRound(Threads, R, [] {});
    trace::enable(false);
    R.Attempted += T.Runs;
    R.set("trace.overhead_pct", (T.Seconds / First.Seconds - 1) * 100, "%");
    std::vector<SpanRec> Spans = trace::collect();
    R.set("trace.spans", static_cast<double>(Spans.size()), "count");
    if (!O.TraceDir.empty() &&
        !trace::writeCsv(Spans, O.TraceDir + "/mc-adore.csv"))
      std::fprintf(stderr, "warning: could not write the span file\n");
    trace::clear();
    measureAdore(R, O.Smoke ? 200 : 3000);
  }
  R.set("peak_rss_mb", peakRssMb(), "MB");
  return R;
}
