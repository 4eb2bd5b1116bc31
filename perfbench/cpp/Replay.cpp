//===- perfbench/cpp/Replay.cpp - Traced in-process replay ----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The traced run's view into the layers below the hosts: a runtime
// workload's op sequence re-issued to three core::RaftCores that the
// benchmark steps itself, on one thread, with no clock but a counter and
// no timer but the leader's heartbeat (see below). The cores carry the
// workload's own tuning (stop-and-wait on sim-durable-log, pipelined and
// batched on rt-tcp-mixed). Every frame goes through rt::encodeMsg and
// rt::decodeMsg, every Persist through a store::NodeStore on a
// store::MemVfs (persist, then one sync per effect batch, as both hosts
// do), and every apply through a kv::KvState. Spans around each call give
// every layer's time by log length: the first tenth of the ops against the
// last tenth.
//
// Frames are delivered in FIFO order, and a frame whose bytes equal a
// frame still queued to the same node is not queued again. Without that,
// the stop-and-wait leader's habit of re-sending on every reply from a
// follower that is still behind keeps every duplicate in circulation, and
// the queue (not the core) sets the cost of an op. When no frame is left
// while ops are in flight (a partial append batch waits for one), the
// leader's heartbeat timer fires, as it would on a host.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "core/RaftCore.h"
#include "kv/KvStore.h"
#include "rt/Wire.h"
#include "store/NodeStore.h"

#include <deque>
#include <memory>
#include <unordered_set>

using namespace adore;
using namespace pb;

namespace {

class ReplayHost {
public:
  explicit ReplayHost(const core::CoreOptions &Opts)
      : Scheme(makeScheme(SchemeKind::RaftSingleNode)), Disk(7) {
    NodeSet All{1, 2, 3};
    for (NodeId Id : All) {
      Cores.push_back(std::make_unique<core::RaftCore>(
          Id, *Scheme, Config(All), Opts, 100 + Id));
      Stores.push_back(
          std::make_unique<store::NodeStore>(Disk, std::to_string(Id)));
      Stores.back()->open();
      Kv.emplace_back();
    }
  }

  /// Elects node 1 and lets the cluster go quiet.
  bool elect() {
    for (size_t I = 0; I != Cores.size(); ++I)
      handle(I, Cores[I]->start());
    core::RaftCore &L = *Cores[0];
    step(0, core::TimerFired{core::TimerId::Election, L.electionGen()},
         "core.step.other");
    drain();
    return L.isLeader();
  }

  bool run(const std::vector<ReplayOp> &Ops, size_t Outstanding,
           std::string &Err) {
    size_t CommitBase = Cores[0]->commitIndex();
    size_t Next = 0;
    bool Small = false; // Alternates 3 -> 2 -> 3 members.
    while (Completed < Ops.size()) {
      while (Next < Ops.size() && InFlight < Outstanding &&
             !(Ops[Next].Reconfig && InFlight != 0) && !Barrier) {
        CurOp = Next;
        const ReplayOp &Op = Ops[Next++];
        ++InFlight;
        if (Op.Reconfig) {
          // A membership change waits for the ops before it and holds
          // the ops after it until it is committed.
          Small = !Small;
          NodeSet Members = Small ? NodeSet{1, 2} : NodeSet{1, 2, 3};
          Barrier = true;
          step(0, core::AdminReconfig{Config(Members)}, "core.step.client");
        } else {
          step(0, core::ClientRequest{Op.Method, ++Seq},
               "core.step.client");
        }
      }
      if (Frames.empty() && InFlight > 0 && Heartbeats < Ops.size() + 100) {
        ++Heartbeats;
        step(0, core::TimerFired{core::TimerId::Heartbeat,
                                 Cores[0]->heartbeatGen()},
             "core.step.other");
      }
      if (Frames.empty() || ++Deliveries > 200 * (Ops.size() + 100)) {
        Err = "replay stalled at op " + std::to_string(Next) + " of " +
              std::to_string(Ops.size()) + " with " +
              std::to_string(InFlight) + " in flight, " +
              std::to_string(Frames.size()) + " frames queued; " +
              Cores[0]->describe() + "\n" + Cores[1]->describe() + "\n" +
              Cores[2]->describe();
        return false;
      }
      deliverOne();
    }
    Commits = Cores[0]->commitIndex() - CommitBase;
    return true;
  }

  size_t Commits = 0;
  uint64_t AppendFrames = 0;
  uint64_t AppendEntries = 0;
  uint64_t AppendBytes = 0;
  store::StoreStats storeStats() const {
    store::StoreStats Sum;
    for (const auto &St : Stores)
      Sum.accumulate(St->stats());
    return Sum;
  }

private:
  void drain() {
    while (!Frames.empty())
      deliverOne();
  }

  void deliverOne() {
    auto [To, Bytes] = std::move(Frames.front());
    Frames.pop_front();
    Queued.erase(queueKey(To, Bytes));
    Span Sp("replay.deliver", CurOp);
    core::Msg M;
    bool Ok;
    {
      Span W("wire.decode", CurOp);
      Ok = rt::decodeMsg(Bytes, M);
    }
    if (!Ok || To < 1 || To > Cores.size())
      return;
    const char *Name = M.K == core::Msg::Kind::AppendEntries ? "core.step.append"
                       : M.K == core::Msg::Kind::AppendReply ? "core.step.reply"
                                                             : "core.step.other";
    step(To - 1, core::MsgIn{std::move(M)}, Name);
  }

  void step(size_t I, const core::Input &In, const char *Name) {
    Now += 50;
    core::Effects E;
    {
      Span Sp(Name, CurOp);
      E = Cores[I]->step(In, Now);
    }
    handle(I, std::move(E));
  }

  void handle(size_t I, core::Effects E) {
    bool Persist = false;
    for (const core::Effect &X : E)
      Persist |= X.K == core::Effect::Kind::Persist;
    if (Persist) {
      {
        Span Sp("store.persist", CurOp);
        Stores[I]->persistFrom(*Cores[I]);
      }
      Span Sp("store.sync", CurOp);
      Stores[I]->sync();
    }
    for (core::Effect &X : E) {
      switch (X.K) {
      case core::Effect::Kind::Send: {
        std::string Bytes;
        {
          Span Sp("wire.encode", CurOp);
          Bytes = rt::encodeMsg(X.M);
        }
        if (X.M.K == core::Msg::Kind::AppendEntries) {
          ++AppendFrames;
          AppendEntries += X.M.Entries.size();
          AppendBytes += Bytes.size();
        }
        if (Queued.insert(queueKey(X.M.To, Bytes)).second)
          Frames.emplace_back(X.M.To, std::move(Bytes));
        break;
      }
      case core::Effect::Kind::Apply: {
        if (X.Entry.Kind == raft::EntryKind::Method) {
          Span Sp("kv.apply", CurOp);
          Kv[I].applyMethod(X.Entry.Method);
        }
        if (I == 0 && (X.Entry.ClientSeq != 0 ||
                       X.Entry.Kind == raft::EntryKind::Reconfig) &&
            X.Entry.Term == Cores[0]->term() && InFlight > 0) {
          // The leader applying its own op completes it (the term-start
          // no-op carries no client sequence number).
          if (X.Entry.Kind == raft::EntryKind::Reconfig)
            Barrier = false;
          --InFlight;
          ++Completed;
        }
        break;
      }
      case core::Effect::Kind::CommitAdvanced:
        Stores[I]->noteCommit(X.Index);
        break;
      case core::Effect::Kind::SetTimer:
      case core::Effect::Kind::CancelTimer:
      case core::Effect::Kind::Persist:
      case core::Effect::Kind::LeaderElected:
      case core::Effect::Kind::ReplicaSuspected:
      case core::Effect::Kind::ReplicaRecovered:
      case core::Effect::Kind::ReadReady:
      case core::Effect::Kind::ReadFailed:
        break;
      }
    }
  }

  std::unique_ptr<ReconfigScheme> Scheme;
  store::MemVfs Disk;
  std::vector<std::unique_ptr<store::NodeStore>> Stores;
  std::vector<std::unique_ptr<core::RaftCore>> Cores;
  std::vector<kv::KvState> Kv;
  static std::string queueKey(NodeId To, const std::string &Bytes) {
    return std::to_string(To) + ":" + Bytes;
  }

  std::deque<std::pair<NodeId, std::string>> Frames;
  std::unordered_set<std::string> Queued; ///< queueKey of every queued frame.
  uint64_t Now = 1000;
  uint64_t Seq = 0;
  uint64_t CurOp = 0;
  size_t InFlight = 0;
  size_t Completed = 0;
  uint64_t Deliveries = 0;
  uint64_t Heartbeats = 0;
  bool Barrier = false;
};

double p50(std::map<std::string, trace::NameStats> &A, const char *Name) {
  return A[Name].DurUs.median();
}

} // namespace

void pb::runReplay(const std::vector<ReplayOp> &Ops, size_t Outstanding,
                   const core::CoreOptions &Opts, Result &R) {
  if (Ops.empty())
    return;
  ReplayHost H(Opts);
  if (!H.elect()) {
    R.fail("replay: node 1 did not win the scripted election");
    return;
  }
  trace::clear(); // Measure the ops only, not the election.
  std::string Err;
  if (!H.run(Ops, Outstanding, Err)) {
    R.fail("replay: " + Err);
    return;
  }
  std::vector<SpanRec> Spans = trace::collect();
  uint64_t N = Ops.size();
  uint64_t Tenth = std::max<uint64_t>(1, N / 10);
  auto All = trace::aggregate(Spans);
  auto First = trace::aggregate(Spans, 0, Tenth);
  auto Last = trace::aggregate(Spans, N - Tenth, N);

  R.set("core.client_step_us.first10", p50(First, "core.step.client"), "us");
  R.set("core.client_step_us.last10", p50(Last, "core.step.client"), "us");
  R.set("core.append_step_us.first10", p50(First, "core.step.append"), "us");
  R.set("core.append_step_us.last10", p50(Last, "core.step.append"), "us");
  R.set("core.reply_step_us.first10", p50(First, "core.step.reply"), "us");
  R.set("core.reply_step_us.last10", p50(Last, "core.step.reply"), "us");
  auto CoreUs = [](std::map<std::string, trace::NameStats> &A) {
    return A["core.step.client"].TotalUs + A["core.step.append"].TotalUs +
           A["core.step.reply"].TotalUs + A["core.step.other"].TotalUs;
  };
  double FirstCore = CoreUs(First);
  R.set("core.cost_growth", FirstCore > 0 ? CoreUs(Last) / FirstCore : 0,
        "ratio");
  R.set("core.frames_per_commit",
        H.Commits ? static_cast<double>(H.AppendFrames) / H.Commits : 0,
        "count");
  R.set("core.entries_per_frame",
        H.AppendFrames ? static_cast<double>(H.AppendEntries) / H.AppendFrames
                       : 0,
        "count");
  double Ops1 = static_cast<double>(N);
  R.set("core.self_us_per_op",
        (All["core.step.client"].SelfUs + All["core.step.append"].SelfUs +
         All["core.step.reply"].SelfUs + All["core.step.other"].SelfUs) /
            Ops1,
        "us");
  R.set("store.persist_us.first10", p50(First, "store.persist"), "us");
  R.set("store.persist_us.last10", p50(Last, "store.persist"), "us");
  R.set("store.sync_us.first10", p50(First, "store.sync"), "us");
  R.set("store.sync_us.last10", p50(Last, "store.sync"), "us");
  R.set("store.self_us_per_op",
        (All["store.persist"].SelfUs + All["store.sync"].SelfUs) / Ops1, "us");
  R.set("kv.apply_us", p50(All, "kv.apply"), "us");
  R.set("kv.self_us_per_op", All["kv.apply"].SelfUs / Ops1, "us");
  R.set("wire.encode_us", p50(All, "wire.encode"), "us");
  R.set("wire.decode_us", p50(All, "wire.decode"), "us");
  R.set("wire.self_us_per_op",
        (All["wire.encode"].SelfUs + All["wire.decode"].SelfUs) / Ops1, "us");
  if (!R.Metrics.count("wire.bytes_per_entry"))
    R.set("wire.bytes_per_entry",
          H.AppendEntries ? static_cast<double>(H.AppendBytes) / H.AppendEntries
                          : 0,
          "B");
  // A workload without a store of its own takes the store counts from
  // the replay.
  if (!R.Metrics.count("store.syncs_per_op")) {
    store::StoreStats St = H.storeStats();
    R.set("store.syncs_per_op", St.Syncs / Ops1, "count");
    R.set("store.records_per_sync",
          St.Syncs ? static_cast<double>(St.RecordsWritten) / St.Syncs : 0,
          "count");
    R.set("store.bytes_per_op", St.BytesWritten / Ops1, "B");
  }
}
