//===- perfbench/cpp/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --smoke        every workload briefly, checks on
//   perfbench --selftest     doctored records through every check
//
// A run prints, as its last line, one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). It exits 1 when an output check failed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/resource.h>
#include <thread>

using namespace pb;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// What a user of each workload sees; every workload reports all of
/// them (README.md says what "op" is on each).
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "ops/s"},
    {"op_p50_us", "us"},      {"op_p99_us", "us"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
const MetricDef PerLayer[] = {
    {"core.client_step_us.first10", "us"},
    {"core.client_step_us.last10", "us"},
    {"core.append_step_us.first10", "us"},
    {"core.append_step_us.last10", "us"},
    {"core.reply_step_us.first10", "us"},
    {"core.reply_step_us.last10", "us"},
    {"core.cost_growth", "ratio"},
    {"core.frames_per_commit", "count"},
    {"core.entries_per_frame", "count"},
    {"core.self_us_per_op", "us"},
    {"store.persist_us.first10", "us"},
    {"store.persist_us.last10", "us"},
    {"store.sync_us.first10", "us"},
    {"store.sync_us.last10", "us"},
    {"store.syncs_per_op", "count"},
    {"store.records_per_sync", "count"},
    {"store.bytes_per_op", "B"},
    {"store.recovery_ms", "ms"},
    {"store.self_us_per_op", "us"},
    {"sim.events_per_op", "count"},
    {"sim.event_us", "us"},
    {"sim.messages_per_op", "count"},
    {"sim.failover_ms", "ms"},
    {"kv.apply_us", "us"},
    {"kv.self_us_per_op", "us"},
    {"net.post_us", "us"},
    {"net.deliver_us", "us"},
    {"net.frames_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.frames_dropped", "count"},
    {"net.connection_drops", "count"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.bytes_per_entry", "B"},
    {"wire.self_us_per_op", "us"},
    {"rt.replicate_us", "us"},
    {"rt.notify_us", "us"},
    {"rt.leader_changes", "count"},
    {"rt.reconfig_p50_us", "us"},
    {"read.leader_p50_us", "us"},
    {"read.leader_p99_us", "us"},
    {"read.follower_p50_us", "us"},
    {"read.post_reconfig_p50_us", "us"},
    {"read.follower_failed", "count"},
    {"mc.states_per_s", "1/s"},
    {"mc.transitions_per_s", "1/s"},
    {"mc.peak_frontier", "count"},
    {"mc.level_ms", "ms"},
    {"mc.corenet_states_per_s", "1/s"},
    {"mc.verify_s", "s"},
    {"adore.fingerprint_us", "us"},
    {"adore.invariants_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

std::string num(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

/// Prints the result line with exactly the metrics of \p Defs.
template <size_t N>
void printResult(const Result &R, const MetricDef (&Defs)[N]) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != N; ++I) {
    auto It = R.Metrics.find(Defs[I].Name);
    double V = It == R.Metrics.end() ? 0.0 : It->second.first;
    if (I)
      Out += ", ";
    Out += std::string("\"") + Defs[I].Name + "\": {\"value\": " + num(V) +
           ", \"unit\": \"" + Defs[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

Result runWorkload(const RunOptions &O) {
  if (O.Workload == "sim-durable-log")
    return runSimDurableLog(O);
  if (O.Workload == "rt-tcp-mixed")
    return runRtTcpMixed(O);
  return runMcAdore(O);
}

void reportErrors(const std::string &Workload, const Result &R) {
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "%s: CHECK FAILED: %s\n", Workload.c_str(),
                 E.c_str());
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim-durable-log|rt-tcp-mixed|mc-adore "
               "--seed N --seconds S --trace 0|1\n"
               "       %s --smoke | --selftest\n",
               Argv0, Argv0);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  auto Res = std::from_chars(S, S + std::strlen(S), Out);
  return Res.ec == std::errc() && *Res.ptr == '\0';
}

} // namespace

double pb::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

unsigned pb::parallelThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : std::min(N, 4u);
}

int main(int Argc, char **Argv) {
  RunOptions O;
  bool Smoke = false, SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](uint64_t &Out) {
      return I + 1 < Argc && parseU64(Argv[++I], Out);
    };
    uint64_t V = 0;
    if (A == "--workload" && I + 1 < Argc) {
      O.Workload = Argv[++I];
    } else if (A == "--seed" && Next(V)) {
      O.Seed = V;
    } else if (A == "--seconds" && Next(V) && V >= 1 && V <= 3600) {
      O.Seconds = static_cast<double>(V);
    } else if (A == "--trace" && Next(V) && V <= 1) {
      O.Trace = V == 1;
    } else if (A == "--trace-dir" && I + 1 < Argc) {
      O.TraceDir = Argv[++I];
    } else if (A == "--smoke") {
      Smoke = true;
    } else if (A == "--selftest") {
      SelfTest = true;
    } else {
      std::fprintf(stderr, "error: bad argument '%s'\n", A.c_str());
      return usage(Argv[0]);
    }
  }

  if (SelfTest) {
    int Bad = runSelfTest();
    std::printf("selftest: %s\n", Bad == 0 ? "all checks caught their "
                                             "doctored records"
                                           : "FAILED");
    return Bad == 0 ? 0 : 1;
  }

  if (Smoke) {
    // Every workload briefly, untraced then traced: proves each path and
    // each check runs. Sizes are not representative.
    int Failures = 0;
    for (const char *W : {"sim-durable-log", "rt-tcp-mixed", "mc-adore"})
      for (bool Traced : {false, true}) {
        RunOptions S = O;
        S.Workload = W;
        S.Smoke = true;
        S.Seconds = 1;
        S.Trace = Traced;
        trace::enable(false);
        trace::clear();
        Result R = runWorkload(S);
        reportErrors(W, R);
        std::printf("smoke %s trace=%d: correct=%s attempted=%llu "
                    "failed=%llu\n",
                    W, Traced ? 1 : 0, R.Correct ? "true" : "false",
                    static_cast<unsigned long long>(R.Attempted),
                    static_cast<unsigned long long>(R.Failed));
        Failures += R.Correct ? 0 : 1;
      }
    return Failures == 0 ? 0 : 1;
  }

  if (O.Workload != "sim-durable-log" && O.Workload != "rt-tcp-mixed" &&
      O.Workload != "mc-adore")
    return usage(Argv[0]);

  Result R = runWorkload(O);
  reportErrors(O.Workload, R);
  if (O.Trace)
    printResult(R, PerLayer);
  else
    printResult(R, EndToEnd);
  return R.Correct ? 0 : 1;
}
