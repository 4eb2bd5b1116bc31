//===- perfbench/cpp/RtTcpMixed.cpp - TCP read/write/reconfig run ---------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// rt-tcp-mixed: four in-memory replicas of rt::RtCluster over loopback
// TCP with the pipelined tuning, the follower-lease read tier, and two
// closed-loop client threads issuing about half linearizable reads and
// half writes. The run is a sequence of epochs. Each epoch starts with a
// single-node membership change issued under load: odd epochs remove the
// lowest-numbered member that is not the leader, even epochs re-admit
// it. Half way through each epoch the admin thread issues a fixed number
// of follower reads. A run is a fixed number of epoch pairs, so every
// run attempts the same operations.
//
// Each membership change is timed and checked through the apply tap,
// never through reconfigAndWait's answer: that reports success at once
// for a configuration committed at any earlier time, and these recur.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Trace.h"
#include "Workloads.h"

#include "kv/KvStore.h"
#include "net/TcpTransport.h"
#include "read/ReadPath.h"
#include "rt/RtCluster.h"
#include "rt/Wire.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

using namespace adore;
using namespace pb;

namespace {

struct Shape {
  size_t Replicas = 4;
  size_t Clients = 2;
  size_t OpsPerClientPerEpoch = 1500; ///< A change every 3000 client ops.
  size_t ProbeReads = 2;              ///< Follower reads per epoch.
  uint64_t ProbeTimeoutMs = 150;
  uint64_t OpTimeoutMs = 3000;
  uint32_t ReadPermille = 500;
  uint32_t KeysPerClient = 64;
  uint64_t LeaseUs = 30000;
  size_t Setups = 9;
  /// Epoch pairs per second of --seconds: a run does a fixed amount of
  /// work, about --seconds long on a 4-core machine, so its op count and
  /// resident size do not follow the machine's speed of the moment.
  double PairsPerSecond = 0.8;
  size_t ReplayCap = 20000; ///< Ops of the sequence the traced run replays.
  size_t FrameCap = 200000; ///< Frames the traced run keeps for wire.*.
};

/// Times every post and delivery of the real transport and counts frames
/// and bytes; while tracing, keeps a copy of the frames for the codec.
class TimedNet final : public rt::Transport {
public:
  TimedNet(rt::Transport &Inner, size_t FrameCap)
      : Inner(Inner), FrameCap(FrameCap) {}

  void attach(NodeId Id, Handler H) override {
    Inner.attach(Id, [this, H = std::move(H)](std::string Frame) {
      Span Sp("net.deliver");
      H(std::move(Frame));
    });
  }
  void detach(NodeId Id) override { Inner.detach(Id); }
  void post(NodeId To, std::string Frame) override {
    Frames.fetch_add(1, std::memory_order_relaxed);
    Bytes.fetch_add(Frame.size(), std::memory_order_relaxed);
    if (trace::on()) {
      std::lock_guard<std::mutex> Lock(CaptureMu);
      if (Captured.size() < FrameCap)
        Captured.push_back(Frame);
    }
    Span Sp("net.post");
    Inner.post(To, std::move(Frame));
  }

  std::atomic<uint64_t> Frames{0};
  std::atomic<uint64_t> Bytes{0};
  std::mutex CaptureMu;
  std::vector<std::string> Captured;

private:
  rt::Transport &Inner;
  size_t FrameCap;
};

/// The benchmark's own record of commits: the first sighting of every log
/// index on any replica, through RtClusterOptions::OnApplyExtra.
class ApplyTap {
public:
  struct Sighting {
    size_t Index = 0;
    uint64_t AtNs = 0;
  };

  void onApply(size_t Index, const core::LogEntry &E) {
    if (Index <= MaxSeen.load(std::memory_order_acquire))
      return; // Some replica applied it first.
    uint64_t Now = nowNs();
    std::lock_guard<std::mutex> Lock(Mu);
    if (Index <= MaxSeen.load(std::memory_order_relaxed))
      return;
    MaxSeen.store(Index, std::memory_order_release);
    Terms.insert(E.Term);
    if (E.Kind == raft::EntryKind::Method && E.ClientSeq != 0) {
      Writes.emplace(E.Method, Sighting{Index, Now});
      Order.push_back(ReplayOp{false, E.Method});
    } else if (E.Kind == raft::EntryKind::Reconfig) {
      Members M(E.Conf.Members.begin(), E.Conf.Members.end());
      Reconfigs.push_back({Index, M});
      ReconfigAtNs.push_back(Now);
      Order.push_back(ReplayOp{true, 0});
    }
    Cv.notify_all();
  }

  std::optional<Sighting> write(MethodId M) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Writes.find(M);
    if (It == Writes.end())
      return std::nullopt;
    return It->second;
  }

  /// Waits until a Reconfig commit with \p Want appears after position
  /// \p From of the commit list; returns its position, or -1 on timeout.
  long waitReconfig(const Members &Want, size_t From, uint64_t TimeoutMs) {
    std::unique_lock<std::mutex> Lock(Mu);
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      for (size_t I = From; I < Reconfigs.size(); ++I)
        if (Reconfigs[I].second == Want)
          return static_cast<long>(I);
      if (Cv.wait_until(Lock, Deadline) == std::cv_status::timeout)
        return -1;
    }
  }

  size_t reconfigCount() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Reconfigs.size();
  }

  std::mutex Mu;
  std::condition_variable Cv;
  std::atomic<size_t> MaxSeen{0};
  std::map<MethodId, Sighting> Writes;
  std::vector<std::pair<size_t, Members>> Reconfigs;
  std::vector<uint64_t> ReconfigAtNs;
  std::set<Time> Terms;
  std::vector<ReplayOp> Order;
};

/// Everything one client thread measured.
struct ClientOut {
  Samples WriteUs, ReadUs, PostReconfigReadUs, ReplicateUs, NotifyUs;
  std::vector<ReadRec> Reads;
  std::vector<uint64_t> Acked;
  uint64_t Ops = 0;
  uint64_t Failed = 0;
};

/// One deployment: fabric, decorator, tap and cluster, declared in the
/// order that makes the cluster (which detaches its nodes) die first.
struct Deployment {
  net::TcpTransport Tcp;
  TimedNet Net;
  ApplyTap Tap;
  std::unique_ptr<rt::RtCluster> C;
  explicit Deployment(size_t FrameCap) : Net(Tcp, FrameCap) {}
};

/// The replicas' core tuning; the traced replay uses it too.
core::CoreOptions coreOptions(const Shape &S) {
  core::CoreOptions C = rt::RtClusterOptions::fastNodeOptions();
  // The pipelined tuning of bench_throughput's pipelined cell.
  C.PipelineWindow = 8;
  C.MaxAppendBatch = 16;
  read::ReadOptions RO;
  RO.Tier = read::ReadTier::FollowerLease;
  RO.LeaseDurationUs = S.LeaseUs;
  RO.MaxDriftPpm = 100000;
  read::applyTier(RO, C);
  return C;
}

rt::RtClusterOptions clusterOptions(const Shape &S, uint64_t Seed,
                                    Deployment &D) {
  rt::RtClusterOptions CO;
  CO.Scheme = SchemeKind::RaftSingleNode;
  CO.NumNodes = S.Replicas;
  CO.Seed = Seed;
  CO.SharedNet = &D.Net;
  CO.Node = coreOptions(S);
  CO.Host.MaxInboxBatch = 16;
  ApplyTap *Tap = &D.Tap;
  CO.OnApplyExtra = [Tap](NodeId, size_t I, const core::LogEntry &E) {
    Tap->onApply(I, E);
  };
  return CO;
}

/// Builds, starts, elects and warms up a deployment (every connection is
/// dialled before the clock starts).
std::unique_ptr<Deployment> setUp(const Shape &S, uint64_t Seed, Result &R) {
  auto D = std::make_unique<Deployment>(S.FrameCap);
  D->C = std::make_unique<rt::RtCluster>(clusterOptions(S, Seed, *D));
  D->C->start();
  if (D->C->waitForLeader(5000) == InvalidNodeId) {
    R.fail("rt: no leader elected within 5 s");
    return nullptr;
  }
  // Warm-up keys sit above the clients' key space, so that every write
  // the apply tap records has its own MethodId.
  uint32_t WarmKey = static_cast<uint32_t>(S.Clients * S.KeysPerClient);
  for (uint32_t I = 0; I != 3; ++I)
    if (!D->C->submitAndWait(
            kv::encodeKvOp({kv::KvOpKind::Put, WarmKey + I, 1}),
            S.OpTimeoutMs)) {
      R.fail("rt: warm-up write timed out");
      return nullptr;
    }
  if (!D->C->readAndWait(S.OpTimeoutMs)) {
    R.fail("rt: warm-up read timed out");
    return nullptr;
  }
  return D;
}

/// Shared epoch state between the admin thread and the clients.
struct Epochs {
  std::mutex Mu;
  std::condition_variable Cv;
  uint64_t Started = 0;  ///< Epochs the admin has opened.
  size_t Finished = 0;   ///< Clients done with the current epoch.
  bool Stop = false;
  std::atomic<uint64_t> Progress{0}; ///< Client ops done this epoch.
  std::atomic<uint64_t> ReconfigAtNs{0};
  std::atomic<size_t> AckedFloor{0};
};

void atomicMax(std::atomic<size_t> &A, size_t V) {
  size_t Cur = A.load();
  while (Cur < V && !A.compare_exchange_weak(Cur, V)) {
  }
}

void clientLoop(size_t Client, const Shape &S, uint64_t Seed,
                Deployment &D, Epochs &E, ClientOut &Out) {
  Rng Pick(Seed * 1000003 + Client);
  uint32_t Counter = 0;
  uint64_t Seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(E.Mu);
      E.Cv.wait(Lock, [&] { return E.Stop || E.Started > Seen; });
      if (E.Stop)
        return;
      Seen = E.Started;
    }
    for (size_t I = 0; I != S.OpsPerClientPerEpoch; ++I) {
      bool IsRead = Pick.nextBelow(1000) < S.ReadPermille;
      uint32_t Key = static_cast<uint32_t>(Client * S.KeysPerClient +
                                           Pick.nextBelow(S.KeysPerClient));
      uint64_t OpId = Out.Ops++;
      if (IsRead) {
        size_t Floor = E.AckedFloor.load();
        uint64_t T0 = nowNs();
        std::optional<size_t> Idx;
        {
          Span Sp("rt.read", OpId);
          Idx = D.C->readAndWait(S.OpTimeoutMs);
        }
        uint64_t T1 = nowNs();
        if (!Idx) {
          ++Out.Failed;
        } else {
          Out.Reads.push_back(ReadRec{Floor, *Idx});
          double Us = (T1 - T0) / 1e3;
          if (T0 - E.ReconfigAtNs.load() < S.LeaseUs * 1000)
            Out.PostReconfigReadUs.add(Us);
          else
            Out.ReadUs.add(Us);
        }
      } else {
        MethodId M = kv::encodeKvOp({kv::KvOpKind::Put, Key, ++Counter});
        uint64_t T0 = nowNs();
        bool Ok;
        {
          Span Sp("rt.write", OpId);
          Ok = D.C->submitAndWait(M, S.OpTimeoutMs);
        }
        uint64_t T1 = nowNs();
        if (!Ok) {
          ++Out.Failed;
        } else {
          Out.WriteUs.add((T1 - T0) / 1e3);
          Out.Acked.push_back(M);
          if (std::optional<ApplyTap::Sighting> Sg = D.Tap.write(M)) {
            atomicMax(E.AckedFloor, Sg->Index);
            Out.ReplicateUs.add((Sg->AtNs - T0) / 1e3);
            Out.NotifyUs.add((T1 - Sg->AtNs) / 1e3);
          }
        }
      }
      E.Progress.fetch_add(1);
    }
    {
      std::lock_guard<std::mutex> Lock(E.Mu);
      ++E.Finished;
    }
    E.Cv.notify_all();
  }
}

struct PhaseOut {
  double Seconds = 0;
  uint64_t ClientOps = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  ClientOut All;
  Samples ReconfigUs, FollowerUs;
  uint64_t FollowerFailed = 0;
  uint64_t LeaderChanges = 0;
  double FramesPerOp = 0, BytesPerOp = 0;
  net::TcpTransportStats Tcp;
  std::vector<ReplayOp> Order;
  std::vector<std::string> Frames;
};

/// One measured phase on a fresh deployment: the epoch pairs of
/// \p Seconds, then the output checks.
PhaseOut runPhase(const Shape &S, uint64_t Seed, double Seconds,
                  Samples &SetupS, Result &R) {
  PhaseOut Out;
  uint64_t T0 = nowNs();
  std::unique_ptr<Deployment> D = setUp(S, Seed, R);
  SetupS.add(secondsSince(T0));
  if (!D)
    return Out;
  rt::RtCluster &C = *D->C;
  uint64_t FramesBase = D->Net.Frames.load(), BytesBase = D->Net.Bytes.load();
  size_t TermsBase = D->Tap.Terms.size();

  Epochs E;
  std::vector<ClientOut> Outs(S.Clients);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != S.Clients; ++I)
    Threads.emplace_back(clientLoop, I, std::cref(S), Seed, std::ref(*D),
                         std::ref(E), std::ref(Outs[I]));

  std::vector<Members> Requested;
  std::vector<ReadRec> ProbeReads;
  NodeSet Full = C.initialConfig().Members;
  NodeId Removed = InvalidNodeId;
  size_t Matched = D->Tap.reconfigCount();
  uint64_t Start = nowNs();
  uint64_t Epoch = 0;
  uint64_t Epochs = 2 * std::max<uint64_t>(
                            1, std::llround(Seconds * S.PairsPerSecond));
  bool Abort = false;
  while (!Abort && Epoch < Epochs) {
    bool Removing = Epoch % 2 == 0;
    E.Progress.store(0);
    {
      std::lock_guard<std::mutex> Lock(E.Mu);
      E.Finished = 0;
      ++E.Started;
    }
    E.Cv.notify_all();

    // The membership change, under the load the clients just started.
    NodeSet Target = Full;
    if (Removing) {
      NodeId Leader = C.waitForLeader(S.OpTimeoutMs);
      for (NodeId Id : Full)
        if (Id != Leader) {
          Removed = Id;
          break;
        }
      Target = Full.differenceWith(NodeSet{Removed});
    }
    Members Want(Target.begin(), Target.end());
    Requested.push_back(Want);
    uint64_t ReqNs = nowNs();
    E.ReconfigAtNs.store(ReqNs);
    long Pos = -1;
    {
      Span Sp("rt.reconfig", Epoch);
      for (int Try = 0; Try != 100 && Pos < 0; ++Try) {
        // Posts the request; the answer is not used (see file comment).
        (void)C.reconfigAndWait(Config(Target), 1);
        Pos = D->Tap.waitReconfig(Want, Matched, 40);
      }
    }
    ++Out.Attempted;
    if (Pos < 0) {
      R.fail("rt: membership change " + std::to_string(Epoch) +
             " not seen committed within 4 s");
      Abort = true;
    } else {
      Matched = static_cast<size_t>(Pos) + 1;
      std::lock_guard<std::mutex> Lock(D->Tap.Mu);
      Out.ReconfigUs.add((D->Tap.ReconfigAtNs[Pos] - ReqNs) / 1e3);
    }

    // Follower reads half way through the epoch.
    while (E.Progress.load() < S.Clients * S.OpsPerClientPerEpoch / 2)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (size_t I = 0; I != S.ProbeReads; ++I) {
      size_t Floor = E.AckedFloor.load();
      uint64_t P0 = nowNs();
      std::optional<size_t> Idx;
      {
        Span Sp("rt.follower_read", Epoch);
        Idx = C.readAndWait(S.ProbeTimeoutMs, /*AtFollower=*/true);
      }
      ++Out.Attempted;
      if (Idx) {
        ProbeReads.push_back(ReadRec{Floor, *Idx});
        Out.FollowerUs.add((nowNs() - P0) / 1e3);
      } else {
        ++Out.FollowerFailed;
      }
    }

    std::unique_lock<std::mutex> Lock(E.Mu);
    E.Cv.wait(Lock, [&] { return E.Finished == S.Clients; });
    ++Epoch;
  }
  Out.Seconds = secondsSince(Start);
  {
    std::lock_guard<std::mutex> Lock(E.Mu);
    E.Stop = true;
  }
  E.Cv.notify_all();
  for (std::thread &T : Threads)
    T.join();

  C.stop();
  for (const ClientOut &O : Outs) {
    Out.ClientOps += O.Ops;
    Out.Failed += O.Failed;
    Out.All.WriteUs.addAll(O.WriteUs);
    Out.All.ReadUs.addAll(O.ReadUs);
    Out.All.PostReconfigReadUs.addAll(O.PostReconfigReadUs);
    Out.All.ReplicateUs.addAll(O.ReplicateUs);
    Out.All.NotifyUs.addAll(O.NotifyUs);
    Out.All.Reads.insert(Out.All.Reads.end(), O.Reads.begin(), O.Reads.end());
    Out.All.Acked.insert(Out.All.Acked.end(), O.Acked.begin(), O.Acked.end());
  }
  Out.Attempted += Out.ClientOps;
  Out.Failed += Out.FollowerFailed;
  Out.All.Reads.insert(Out.All.Reads.end(), ProbeReads.begin(),
                       ProbeReads.end());

  // Output checks, against the benchmark's own record.
  std::set<uint64_t> Seen;
  {
    std::lock_guard<std::mutex> Lock(D->Tap.Mu);
    for (const auto &[M, Sg] : D->Tap.Writes)
      Seen.insert(M);
    for (const std::string &P : checkReconfigs(Requested, D->Tap.Reconfigs))
      R.fail("rt: " + P);
    Out.LeaderChanges = D->Tap.Terms.size() - TermsBase;
    Out.Order = D->Tap.Order;
  }
  for (const std::string &P : checkAckedSeen(Out.All.Acked, Seen))
    R.fail("rt: " + P);
  for (const std::string &P : checkReadFloors(Out.All.Reads))
    R.fail("rt: " + P);
  for (const std::string &V : C.checkFinalAgreement())
    R.fail("rt: " + V);

  double Ops = static_cast<double>(std::max<uint64_t>(1, Out.ClientOps));
  Out.FramesPerOp = (D->Net.Frames.load() - FramesBase) / Ops;
  Out.BytesPerOp = (D->Net.Bytes.load() - BytesBase) / Ops;
  Out.Tcp = D->Tcp.stats();
  {
    std::lock_guard<std::mutex> Lock(D->Net.CaptureMu);
    Out.Frames = std::move(D->Net.Captured);
  }
  return Out;
}

/// Decodes and re-encodes captured frames through the wire codec.
void measureWire(const std::vector<std::string> &Frames, Result &R) {
  Samples Enc, Dec;
  uint64_t Entries = 0, EntryBytes = 0;
  for (const std::string &F : Frames) {
    core::Msg M;
    uint64_t T0 = nowNs();
    bool Ok = rt::decodeMsg(F, M);
    uint64_t T1 = nowNs();
    if (!Ok) {
      R.fail("rt: a captured frame does not decode");
      return;
    }
    std::string Again = rt::encodeMsg(M);
    uint64_t T2 = nowNs();
    if (Again != F) {
      R.fail("rt: a captured frame does not re-encode to its own bytes");
      return;
    }
    Dec.add((T1 - T0) / 1e3);
    Enc.add((T2 - T1) / 1e3);
    if (M.K == core::Msg::Kind::AppendEntries && !M.Entries.empty()) {
      Entries += M.Entries.size();
      EntryBytes += F.size();
    }
  }
  R.set("wire.encode_us", Enc.median(), "us");
  R.set("wire.decode_us", Dec.median(), "us");
  R.set("wire.bytes_per_entry",
        Entries ? static_cast<double>(EntryBytes) / Entries : 0, "B");
}

void report(PhaseOut &P, Result &R) {
  R.set("ops_per_s", P.ClientOps / P.Seconds, "ops/s");
  R.set("op_p50_us", P.All.WriteUs.pct(50), "us");
  R.set("op_p99_us", P.All.WriteUs.pct(99), "us");
  R.set("read.leader_p50_us", P.All.ReadUs.pct(50), "us");
  R.set("read.leader_p99_us", P.All.ReadUs.pct(99), "us");
  R.set("read.post_reconfig_p50_us", P.All.PostReconfigReadUs.pct(50), "us");
  R.set("read.follower_p50_us", P.FollowerUs.pct(50), "us");
  R.set("read.follower_failed", static_cast<double>(P.FollowerFailed),
        "count");
  R.set("rt.replicate_us", P.All.ReplicateUs.pct(50), "us");
  R.set("rt.notify_us", P.All.NotifyUs.pct(50), "us");
  R.set("rt.leader_changes", static_cast<double>(P.LeaderChanges), "count");
  R.set("rt.reconfig_p50_us", P.ReconfigUs.pct(50), "us");
  R.set("net.frames_per_op", P.FramesPerOp, "count");
  R.set("net.bytes_per_op", P.BytesPerOp, "B");
  R.set("net.frames_dropped", static_cast<double>(P.Tcp.FramesDropped),
        "count");
  R.set("net.connection_drops", static_cast<double>(P.Tcp.ConnectionDrops),
        "count");
}

} // namespace

Result pb::runRtTcpMixed(const RunOptions &O) {
  Result R;
  Shape S;
  if (O.Smoke) {
    S.OpsPerClientPerEpoch = 100;
    S.Setups = 1;
  }
  // Each set-up gets its own seed: the election timeouts it draws set
  // how long the first election takes.
  Samples SetupS;
  for (size_t I = 0; I + 1 < S.Setups; ++I) {
    uint64_t T0 = nowNs();
    std::unique_ptr<Deployment> D = setUp(S, O.Seed * 1000003 + I + 1, R);
    SetupS.add(secondsSince(T0));
    if (!D)
      return R;
  }

  // A traced run splits its time: an untraced phase, the baseline of the
  // tracing overhead, then a traced phase and the replay.
  double PhaseS = O.Trace ? O.Seconds / 2 : O.Seconds;
  PhaseOut P = runPhase(S, O.Seed, PhaseS, SetupS, R);
  R.Attempted += P.Attempted;
  R.Failed += P.Failed;
  std::fprintf(stderr,
               "rt-tcp-mixed seed %llu: %llu client ops in %.2f s, %zu "
               "changes, follower reads failed %llu, leader changes %llu\n",
               static_cast<unsigned long long>(O.Seed),
               static_cast<unsigned long long>(P.ClientOps), P.Seconds,
               P.ReconfigUs.size(),
               static_cast<unsigned long long>(P.FollowerFailed),
               static_cast<unsigned long long>(P.LeaderChanges));
  R.set("setup_s", SetupS.median(), "s");
  report(P, R);

  if (O.Trace && R.Correct) {
    trace::clear();
    trace::enable(true);
    PhaseOut T = runPhase(S, O.Seed, PhaseS, SetupS, R);
    trace::enable(false);
    R.Attempted += T.Attempted;
    R.Failed += T.Failed;
    double Base = P.ClientOps / P.Seconds;
    double Traced = T.ClientOps / T.Seconds;
    R.set("trace.overhead_pct", (Base / Traced - 1) * 100, "%");
    std::vector<SpanRec> Spans = trace::collect();
    auto Agg = trace::aggregate(Spans);
    R.set("net.post_us", Agg["net.post"].DurUs.median(), "us");
    R.set("net.deliver_us", Agg["net.deliver"].DurUs.median(), "us");
    measureWire(T.Frames, R);
    trace::clear();
    trace::enable(true);
    if (T.Order.size() > S.ReplayCap)
      T.Order.resize(S.ReplayCap);
    runReplay(T.Order, /*Outstanding=*/S.Clients, coreOptions(S), R);
    trace::enable(false);
    std::vector<SpanRec> ReplaySpans = trace::collect();
    R.set("trace.spans", static_cast<double>(Spans.size() + ReplaySpans.size()),
          "count");
    if (!O.TraceDir.empty()) {
      Spans.insert(Spans.end(), ReplaySpans.begin(), ReplaySpans.end());
      if (!trace::writeCsv(Spans, O.TraceDir + "/rt-tcp-mixed.csv"))
        std::fprintf(stderr, "warning: could not write the span file\n");
    }
    trace::clear();
  }
  R.set("peak_rss_mb", peakRssMb(), "MB");
  return R;
}
