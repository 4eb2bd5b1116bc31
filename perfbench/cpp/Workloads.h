//===- perfbench/cpp/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads, the traced replay they share,
/// and the self-test of the output checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include "core/RaftCore.h"
#include "support/Ids.h"

#include <vector>

namespace pb {

/// sim::Cluster + kv::ReplicatedKvStore, 3 durable replicas, closed-loop
/// puts, no membership change after genesis, one leader crash.
Result runSimDurableLog(const RunOptions &O);

/// rt::RtCluster over loopback TCP, 4 replicas, pipelined, mixed reads
/// and writes under a membership change every fixed number of ops.
Result runRtTcpMixed(const RunOptions &O);

/// The mc engine over the ADORE model and one CoreNetModel run.
Result runMcAdore(const RunOptions &O);

/// One client op of a runtime workload, as the traced replay re-issues
/// it: a write, or a single-node membership change.
struct ReplayOp {
  bool Reconfig = false;
  adore::MethodId Method = 0;
};

/// Replays \p Ops through three core::RaftCores stepped in-process, each
/// tuned by the workload's own \p Opts and with a store::NodeStore on a
/// store::MemVfs, every frame through rt::encodeMsg/decodeMsg, every apply
/// through kv::KvState, with \p Outstanding ops in flight. Records spans
/// (tracing must be on) and adds the core, store, wire and kv metrics to
/// \p R.
void runReplay(const std::vector<ReplayOp> &Ops, size_t Outstanding,
               const adore::core::CoreOptions &Opts, Result &R);

/// Feeds each output check a doctored record and expects it to fail.
/// Returns the number of checks that did not behave.
int runSelfTest();

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
