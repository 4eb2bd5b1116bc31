//===- perfbench/cpp/SimDurableLog.cpp - Deterministic long-log run -------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// sim-durable-log: three durable replicas on the fault-free in-memory
// disk, a closed loop keeping a few puts outstanding, no membership change
// after genesis, and one leader crash and restart half way. With no
// Reconfig entry every config look-up scans the whole log and every
// persist compares the whole log against the store's mirror, so host time
// per put grows with the log; virtual time does not. The benchmark drives
// the event queue itself, one runNext call at a time.
//
// A round is one fixed op sequence made from the seed; every round of a
// run replays the same sequence, so every count must come out identical
// (checked), and the host time of the rounds is the measurement.
//
// Host time on a shared machine: the work is deterministic and single
// threaded, so whatever else the machine runs can only add time, and it
// comes in spells of seconds (identical batches of set-ups took from 50 to
// 110 us a set-up within one process). So a round is timed in ten
// segments, each segment's figure is its fastest round, and the set-ups
// for setup_s are timed in batches between segments, spread over the
// whole run, of which the fastest batch counts. Floors repeat from run to
// run where medians over a few seconds do not.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Trace.h"
#include "Workloads.h"

#include "kv/KvStore.h"
#include "sim/Cluster.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

using namespace adore;
using namespace pb;

namespace {

struct Shape {
  size_t Puts = 10000;         ///< Puts per round (crash at half).
  size_t Outstanding = 4;      ///< Closed-loop window.
  uint32_t Keys = 64;          ///< Key space; values are unique per put.
  size_t WarmupPuts = 3;       ///< Sequential puts before the clock starts.
  size_t Segments = 10;        ///< Timed parts of a round.
  size_t SetupsPerBatch = 100; ///< Set-ups between two segments.
  sim::SimTime RestartAfterUs = 300000; ///< Crashed leader down this long.
};

/// One cluster, its KV store, and the benchmark's own apply record.
struct Deployment {
  std::unique_ptr<ReconfigScheme> Scheme;
  std::unique_ptr<sim::Cluster> C;
  std::unique_ptr<kv::ReplicatedKvStore> Kv;
  std::set<std::pair<uint32_t, uint32_t>> Applied;
  std::vector<PutRec> Puts;
  uint64_t Clock = 0; ///< Logical order of client events.
};

/// Builds and starts a deployment, elects a leader and commits the
/// warm-up puts: everything before the first op can be served.
std::unique_ptr<Deployment> setUp(uint64_t Seed, const Shape &S,
                                  Result &R) {
  auto D = std::make_unique<Deployment>();
  D->Scheme = makeScheme(SchemeKind::RaftSingleNode);
  sim::ClusterOptions CO;
  CO.DurableStore = true; // Fault-free MemVfs: LoseUnsyncedOnCrash off.
  NodeSet Members{1, 2, 3};
  D->C = std::make_unique<sim::Cluster>(*D->Scheme, Config(Members), Members,
                                        CO, Seed);
  D->Kv = std::make_unique<kv::ReplicatedKvStore>(*D->C);
  Deployment *P = D.get();
  D->C->addApplyHook([P](NodeId, size_t, const sim::SimLogEntry &E) {
    if (E.Kind != raft::EntryKind::Method)
      return;
    kv::KvOp Op = kv::decodeKvOp(E.Method);
    if (Op.Kind == kv::KvOpKind::Put)
      P->Applied.insert({Op.Key, Op.Value});
  });
  D->C->start();
  if (!D->C->runUntilLeader(10000000)) {
    R.fail("sim: no leader elected at set-up");
    return nullptr;
  }
  for (size_t I = 0; I != S.WarmupPuts; ++I) {
    // Warm-up keys sit above the workload's key space.
    PutRec Rec{S.Keys + static_cast<uint32_t>(I), static_cast<uint32_t>(I + 1),
               ++D->Clock, 0, false};
    size_t Idx = D->Puts.size();
    D->Puts.push_back(Rec);
    D->Kv->put(Rec.Key, Rec.Value, [P, Idx](bool Ok, sim::SimTime) {
      P->Puts[Idx].Ack = ++P->Clock;
      P->Puts[Idx].Ok = Ok;
    });
    sim::EventQueue &Q = D->C->queue();
    while (D->Puts[Idx].Ack == 0 && Q.runNext()) {
    }
    if (!D->Puts[Idx].Ok) {
      R.fail("sim: warm-up put failed");
      return nullptr;
    }
  }
  return D;
}

struct RoundOut {
  std::vector<double> SegmentS; ///< Host seconds of each segment's puts.
  Samples LatUs;
  double FailoverMs = 0;
  uint64_t Events = 0;
  uint64_t Messages = 0;
  uint64_t Failed = 0;
  store::StoreStats Store;
  std::vector<ReplayOp> Ops;
  std::string Counts; ///< Everything that must repeat exactly.
};

/// Runs one round on a fresh deployment and checks its outputs. Calls
/// \p BetweenSegments after each segment, outside the timed spans.
RoundOut runRound(uint64_t Seed, const Shape &S, Result &R,
                  const std::function<void()> &BetweenSegments) {
  RoundOut Out;
  std::unique_ptr<Deployment> D = setUp(Seed, S, R);
  if (!D)
    return Out;
  sim::Cluster &C = *D->C;
  sim::EventQueue &Q = C.queue();
  Deployment *P = D.get();

  Rng Pick(Seed ^ 0x9E3779B97F4A7C15ULL);
  std::set<uint32_t> Busy;
  size_t Issued = 0, Done = 0;
  uint32_t NextValue = 1000;
  std::optional<sim::SimTime> CrashAt;
  std::optional<sim::SimTime> FirstAfterCrash;
  // Puts outstanding at the crash whose entry was already committed:
  // their acknowledgements do not show the cluster serving again.
  std::set<size_t> CommittedAtCrash;
  size_t MsgBase = C.messagesSent();

  std::function<void()> IssueOne = [&] {
    if (Issued == S.Puts / 2 && !CrashAt) {
      // Mid-run fault: crash the leader, restart it from its disk later.
      if (std::optional<NodeId> L = C.leader()) {
        C.crash(*L);
        CrashAt = Q.now();
        for (size_t I = 0; I != P->Puts.size(); ++I)
          if (P->Puts[I].Ack == 0 &&
              P->Applied.count({P->Puts[I].Key, P->Puts[I].Value}))
            CommittedAtCrash.insert(I);
        NodeId Id = *L;
        Q.scheduleAfter(S.RestartAfterUs, [&C, Id] { C.restart(Id); });
      }
    }
    uint32_t Key;
    do
      Key = static_cast<uint32_t>(Pick.nextBelow(S.Keys));
    while (Busy.count(Key));
    Busy.insert(Key);
    uint32_t Value = NextValue++;
    size_t Idx = P->Puts.size();
    P->Puts.push_back(PutRec{Key, Value, ++P->Clock, 0, false});
    Out.Ops.push_back(ReplayOp{false, kv::encodeKvOp(
                                          {kv::KvOpKind::Put, Key, Value})});
    ++Issued;
    D->Kv->put(Key, Value, [&, Idx, Key](bool Ok, sim::SimTime LatUs) {
      P->Puts[Idx].Ack = ++P->Clock;
      P->Puts[Idx].Ok = Ok;
      Busy.erase(Key);
      ++Done;
      if (Ok) {
        Out.LatUs.add(static_cast<double>(LatUs));
        if (CrashAt && !FirstAfterCrash && !CommittedAtCrash.count(Idx))
          FirstAfterCrash = Q.now();
      } else {
        ++Out.Failed;
      }
      if (Issued < S.Puts)
        IssueOne();
    });
  };

  size_t PerSegment = S.Puts / S.Segments;
  uint64_t SegmentStart = nowNs();
  for (size_t I = 0; I != S.Outstanding && Issued < S.Puts; ++I)
    IssueOne();
  while (Done < S.Puts) {
    bool Ran;
    {
      Span Sp("sim.event", Issued);
      Ran = Q.runNext();
    }
    if (!Ran)
      break;
    ++Out.Events;
    if (Out.SegmentS.size() + 1 < S.Segments
            ? Done >= (Out.SegmentS.size() + 1) * PerSegment
            : Done == S.Puts) {
      Out.SegmentS.push_back(secondsSince(SegmentStart));
      BetweenSegments();
      SegmentStart = nowNs();
    }
  }
  Out.Messages = C.messagesSent() - MsgBase;
  if (Done < S.Puts)
    R.fail("sim: event queue drained with puts outstanding");
  if (CrashAt && FirstAfterCrash)
    Out.FailoverMs = static_cast<double>(*FirstAfterCrash - *CrashAt) / 1e3;
  else
    R.fail("sim: no put committed after the leader crash");

  // Let heartbeats carry the final commit index everywhere, then check.
  Q.runUntil(Q.now() + 2000000);
  Out.Store = C.storeStats();
  std::map<uint64_t, std::map<uint32_t, uint32_t>> Finals;
  for (NodeId Id : C.universe())
    for (uint32_t K = 0; K != S.Keys + S.WarmupPuts; ++K)
      if (std::optional<uint32_t> V = D->Kv->replica(Id).get(K))
        Finals[Id][K] = *V;
  for (const std::string &E : checkKvOutcome(P->Puts, P->Applied, Finals))
    R.fail("sim: " + E);
  R.check(D->Kv->replicasAgree(), "sim: replicas disagree after drain");
  if (auto E = C.checkCommittedAgreement())
    R.fail("sim: " + *E);
  if (auto E = C.checkLeaderUniqueness())
    R.fail("sim: " + *E);
  for (const std::string &E : C.storeViolations())
    R.fail("sim: store: " + E);

  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "p50=%g p99=%g failover_ms=%g events=%llu messages=%llu "
                "syncs=%llu records=%llu bytes=%llu",
                Out.LatUs.pct(50), Out.LatUs.pct(99), Out.FailoverMs,
                static_cast<unsigned long long>(Out.Events),
                static_cast<unsigned long long>(Out.Messages),
                static_cast<unsigned long long>(Out.Store.Syncs),
                static_cast<unsigned long long>(Out.Store.RecordsWritten),
                static_cast<unsigned long long>(Out.Store.BytesWritten));
  Out.Counts = Buf;
  return Out;
}

} // namespace

Result pb::runSimDurableLog(const RunOptions &O) {
  Result R;
  Shape S;
  if (O.Smoke) {
    S.Puts = 400;
    S.SetupsPerBatch = 1;
  }
  // Set-up batches between segments (see the file comment). Each set-up
  // gets its own seed: how long an election takes depends on the timeouts
  // the seed draws.
  Samples SetupS;
  uint64_t SetupSeed = O.Seed * 1000003;
  auto SetupBatch = [&] {
    double Sum = 0;
    for (size_t I = 0; I != S.SetupsPerBatch && R.Correct; ++I) {
      uint64_t T0 = nowNs();
      std::unique_ptr<Deployment> D = setUp(++SetupSeed, S, R);
      Sum += secondsSince(T0);
    }
    SetupS.add(Sum / static_cast<double>(S.SetupsPerBatch));
  };
  // Untraced rounds until the time is up (at least one). A traced run
  // makes one untraced round, the baseline of the tracing overhead, then
  // one traced round and the replay.
  std::vector<RoundOut> Rounds;
  uint64_t RunStart = nowNs();
  do {
    Rounds.push_back(runRound(O.Seed, S, R, SetupBatch));
    R.Attempted += S.Puts;
    R.Failed += Rounds.back().Failed;
    if (!R.Correct)
      return R;
  } while (!O.Trace && !O.Smoke && secondsSince(RunStart) < O.Seconds);
  for (const RoundOut &Rd : Rounds)
    R.check(Rd.Counts == Rounds.front().Counts,
            "sim: rounds of one seed differ: [" + Rd.Counts + "] vs [" +
                Rounds.front().Counts + "]");
  std::fprintf(stderr, "sim-durable-log seed %llu: %s\n",
               static_cast<unsigned long long>(O.Seed),
               Rounds.front().Counts.c_str());

  if (!R.Correct)
    return R;

  // Each segment at its fastest round (see the file comment).
  RoundOut &First = Rounds.front();
  double HostS = 0;
  for (size_t I = 0; I != S.Segments; ++I) {
    double Fastest = First.SegmentS[I];
    for (const RoundOut &Rd : Rounds)
      Fastest = std::min(Fastest, Rd.SegmentS[I]);
    HostS += Fastest;
  }
  R.set("setup_s", SetupS.min(), "s");
  R.set("ops_per_s", static_cast<double>(S.Puts) / HostS, "ops/s");
  R.set("op_p50_us", First.LatUs.pct(50), "us");
  R.set("op_p99_us", First.LatUs.pct(99), "us");

  double Ops = static_cast<double>(S.Puts);
  R.set("sim.events_per_op", First.Events / Ops, "count");
  R.set("sim.messages_per_op", First.Messages / Ops, "count");
  R.set("sim.failover_ms", First.FailoverMs, "ms");
  const store::StoreStats &St = First.Store;
  R.set("store.syncs_per_op", St.Syncs / Ops, "count");
  R.set("store.records_per_sync",
        St.Syncs ? static_cast<double>(St.RecordsWritten) / St.Syncs : 0,
        "count");
  R.set("store.bytes_per_op", St.BytesWritten / Ops, "B");
  R.set("store.recovery_ms",
        St.Recoveries ? St.RecoveryUsTotal / 1e3 / St.Recoveries : 0, "ms");

  if (O.Trace) {
    trace::enable(true);
    RoundOut Traced = runRound(O.Seed, S, R, [] {});
    R.Attempted += S.Puts;
    R.Failed += Traced.Failed;
    trace::enable(false);
    R.check(Traced.Counts == First.Counts,
            "sim: traced round differs from untraced round");
    auto Total = [](const RoundOut &Rd) {
      return std::accumulate(Rd.SegmentS.begin(), Rd.SegmentS.end(), 0.0);
    };
    R.set("trace.overhead_pct", (Total(Traced) / Total(First) - 1) * 100,
          "%");
    std::vector<SpanRec> Spans = trace::collect();
    auto Agg = trace::aggregate(Spans);
    R.set("sim.event_us", Agg["sim.event"].DurUs.median(), "us");
    size_t SimSpans = Spans.size();
    trace::clear();
    trace::enable(true);
    // sim::NodeOptions defaults map to the default core tuning.
    runReplay(First.Ops, S.Outstanding, core::CoreOptions(), R);
    trace::enable(false);
    std::vector<SpanRec> ReplaySpans = trace::collect();
    R.set("trace.spans", static_cast<double>(SimSpans + ReplaySpans.size()),
          "count");
    if (!O.TraceDir.empty()) {
      Spans.insert(Spans.end(), ReplaySpans.begin(), ReplaySpans.end());
      if (!trace::writeCsv(Spans, O.TraceDir + "/sim-durable-log.csv"))
        std::fprintf(stderr, "warning: could not write the span file\n");
    }
    trace::clear();
  }
  R.set("peak_rss_mb", peakRssMb(), "MB");
  return R;
}
