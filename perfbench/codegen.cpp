//===- perfbench/codegen.cpp - codegen-batch --------------------*- C++ -*-===//
//
// The Table 2 pipeline in-process, no daemon: per application,
// compileProgram(Target::Sequential), then emitCpp, gcc and the timed
// generated run (compileAndRun), then a src/refimpl timing of the same
// input with the same iteration count, interleaved so machine noise hits
// both sides alike. Datasets are Table 2 sized and derived from the seed.
// Generated checksums are checked against the interpreter's, or against
// the hand-written result where the interpreter needs tens of seconds at
// Table 2 sizes (k-means, gda).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "ir/Traversal.h"
#include "observe/Trace.h"
#include "service/Catalog.h"
#include "service/Protocol.h"

#include <algorithm>
#include <cstdio>
#include <sys/resource.h>
#include <sys/stat.h>

using namespace dmll;
using namespace perfbench;

namespace {

struct AppSpec {
  const char *Name;
  int Iters; ///< timed iterations: about 250 ms of generated-code work
};

const AppSpec Apps[] = {{"tpch-q1", 20}, {"gene", 60},    {"gda", 40},
                        {"k-means", 50}, {"logreg", 250}, {"pagerank", 800}};
constexpr size_t NumApps = sizeof(Apps) / sizeof(Apps[0]);

/// Goodput latency limit for one application's compile-and-run job.
constexpr double JobLimitMs = 10000;

/// One application's set-up: dataset and reference checksum.
struct Prepared {
  Program P;
  AppData Data;
  Checksum Want;
  double DataMs = 0;
  double RefEvalMs = 0; ///< interpreter reference run; 0 when refimpl's
  engine::KernelStats Kernels;
  ExecProfile Profile;
};

CompileOptions sequential() {
  CompileOptions CO;
  CO.T = Target::Sequential;
  return CO;
}

bool prepare(const Options &O, const AppSpec &A, ThreadPool &Pool,
             Prepared &Out) {
  if (!service::makeProgram(A.Name, Out.P))
    return false;
  auto T0 = Clock::now();
  if (!makeAppData(A.Name, 1, true, O.Seed, Out.Data))
    return false;
  Out.DataMs = msSince(T0);
  if (Out.Data.RefChecksum) {
    Out.Want = Out.Data.RefChecksum();
    return true;
  }
  // CodegenTest's reference: the compiled program on the adapted inputs,
  // here on the daemon's engine settings (bit-identical to the interpreter
  // by the engine contract, and fast enough at Table 2 sizes).
  CompileResult CR = compileProgram(Out.P, sequential());
  InputMap In = adaptInputs(Out.P, CR, Out.Data.Inputs);
  EvalOptions EO = daemonEvalOptions(Pool);
  EO.Kernels = &Out.Kernels;
  EO.Profile = &Out.Profile;
  T0 = Clock::now();
  ExecResult Res = evalProgramRecover(CR.P, In, EO);
  Out.RefEvalMs = msSince(T0);
  if (!Res.ok())
    return false;
  Out.Want = checksumValue(Res.Out);
  return true;
}

/// One compile-and-run job's measurements.
struct Job {
  double CompileMs = 0, EmitMs = 0, BuildMs = 0, GenMs = 0, RefMs = 0,
         LatencyMs = 0;
  double SourceBytes = 0;
  int64_t Rewrites = 0, Nodes = 0;
  bool Ok = false;
};

Job runJob(const Options &O, const AppSpec &A, const Prepared &Pr,
           SpanLog &Log, const std::string &TreeId) {
  Job J;
  auto T0 = Clock::now();
  CompileResult CR = compileProgram(Pr.P, sequential());
  auto T1 = Clock::now();
  InputMap In = adaptInputs(Pr.P, CR, Pr.Data.Inputs);
  auto T2 = Clock::now();
  J.CompileMs = msBetween(T0, T1);
  J.Rewrites = CR.Stats.total();
  J.Nodes = static_cast<int64_t>(countNodes(CR.P.Result));

  // compileAndRun's own codegen spans split its time into emit, input
  // serialization, gcc and the generated run.
  CppEmitOptions EO;
  EO.TimingIters = A.Iters;
  TraceSession Session;
  auto SessionT0 = Clock::now();
  GeneratedRunResult G;
  {
    TraceActivation Active(Session);
    G = compileAndRun(CR.P, In, O.WorkDir, std::string("cg_") + A.Name, EO);
  }
  J.LatencyMs = msSince(T0);
  std::vector<TraceEvent> Phases;
  for (const TraceEvent &E : Session.events()) {
    if (E.Name == "codegen.emit-cpp")
      J.EmitMs += E.DurMs;
    else if (E.Name == "codegen.gcc")
      J.BuildMs += E.DurMs;
    else if (E.Name != "codegen.write-inputs" && E.Name != "codegen.run")
      continue;
    Phases.push_back(E);
  }
  J.GenMs = G.MillisPerIter;
  J.Ok = G.Ok && checksumsAgree(G.Sum, Pr.Want);
  if (!J.Ok)
    std::fprintf(stderr,
                 "perfbench: %s generated code %s: count=%lld sum=%.17g "
                 "abs=%.17g (want %lld %.17g %.17g)\n",
                 A.Name, G.Ok ? "checksum mismatch" : "failed to build or run",
                 static_cast<long long>(G.Sum.Count), G.Sum.Sum, G.Sum.Abs,
                 static_cast<long long>(Pr.Want.Count), Pr.Want.Sum,
                 Pr.Want.Abs);
  struct stat St;
  std::string Src = O.WorkDir + "/cg_" + A.Name + ".cpp";
  J.SourceBytes = ::stat(Src.c_str(), &St) == 0 ? static_cast<double>(St.st_size) : 0;

  // Hand-written reference, same input, same iteration count.
  auto R0 = Clock::now();
  Pr.Data.Ref();
  auto R1 = Clock::now();
  for (int I = 0; I < A.Iters; ++I)
    Pr.Data.Ref();
  auto R2 = Clock::now();
  J.RefMs = msBetween(R1, R2) / A.Iters;

  if (Log.enabled()) {
    int Root = Log.add(TreeId, "codegen.job", T0, R2);
    Log.add(TreeId, "transform.compileProgram", T0, T1, Root);
    Log.add(TreeId, "transform.aosToSoa", T1, T2, Root);
    for (const TraceEvent &E : Phases) {
      auto Start = SessionT0 + std::chrono::microseconds(
                                   static_cast<int64_t>(E.StartMs * 1000));
      auto End = Start + std::chrono::microseconds(
                             static_cast<int64_t>(E.DurMs * 1000));
      Log.add(TreeId, E.Name == "codegen.gcc" ? "codegen.build" : E.Name,
              Start, End, Root);
    }
    Log.add(TreeId, "refimpl.run", R0, R2, Root);
  }
  return J;
}

double maxRssMb() {
  rusage Self, Kids;
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return static_cast<double>(std::max(Self.ru_maxrss, Kids.ru_maxrss)) / 1024;
}

} // namespace

int perfbench::runCodegen(const Options &O, Result &R) {
  ThreadPool Pool(Threads);
  std::vector<Prepared> Prep(NumApps);
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    auto T0 = Clock::now();
    for (size_t I = 0; I < NumApps; ++I) {
      Prep[I] = Prepared();
      if (!prepare(O, Apps[I], Pool, Prep[I])) {
        std::fprintf(stderr, "perfbench: set-up of %s failed\n", Apps[I].Name);
        return 2;
      }
    }
    SetupS.push_back(msSince(T0) / 1000);
  }
  // The datasets are the seed's whole input: hash their digests.
  std::string Inputs;
  for (size_t I = 0; I < NumApps; ++I)
    for (const auto &[Name, V] : Prep[I].Data.Inputs) {
      Checksum C = checksumValue(V);
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "%s %s %lld %.17g %.17g\n", Apps[I].Name,
                    Name.c_str(), static_cast<long long>(C.Count), C.Sum, C.Abs);
      Inputs += Buf;
    }
  std::printf("schedule_hash=%s apps=%zu\n", service::hashKey(Inputs).c_str(),
              NumApps);

  SpanLog Log(O.Trace);
  std::vector<std::vector<Job>> ByApp(NumApps);
  std::vector<double> Latency, CompileS;
  int64_t Good = 0;
  auto T0 = Clock::now();
  for (int Cycle = 0; Cycle == 0 || msSince(T0) < O.Seconds * 1000; ++Cycle) {
    double CycleCompileMs = 0;
    for (size_t I = 0; I < NumApps; ++I) {
      Job J = runJob(O, Apps[I], Prep[I], Log,
                     std::string(Apps[I].Name) + "#" + std::to_string(Cycle));
      ++R.Attempted;
      if (!J.Ok)
        ++R.Failed;
      else if (J.LatencyMs <= JobLimitMs)
        ++Good;
      Latency.push_back(J.LatencyMs);
      CycleCompileMs += J.CompileMs + J.EmitMs + J.BuildMs;
      ByApp[I].push_back(J);
    }
    CompileS.push_back(CycleCompileMs / 1000);
  }
  double ElapsedS = msSince(T0) / 1000;

  // Per-app medians over cycles.
  auto PerApp = [&](double Job::*F) {
    std::vector<double> V;
    for (const auto &Js : ByApp) {
      std::vector<double> X;
      for (const Job &J : Js)
        X.push_back(J.*F);
      V.push_back(median(X));
    }
    return V;
  };
  std::vector<double> Gen = PerApp(&Job::GenMs), Ref = PerApp(&Job::RefMs);
  std::vector<double> Ratios;
  for (size_t I = 0; I < NumApps; ++I) {
    Ratios.push_back(Ref[I] / Gen[I]);
    std::printf("table2 %-8s generated %.4f ms  refimpl %.4f ms  speedup %.3fx\n",
                Apps[I].Name, Gen[I], Ref[I], Ref[I] / Gen[I]);
  }
  const double GoodputRps = static_cast<double>(Good) / ElapsedS;
  std::printf("latency samples n=%zu cycles=%zu\n", Latency.size(),
              CompileS.size());
  if (!O.Trace) {
    R.metric("latency_p50_ms", quantile(Latency, 0.5), "ms");
    R.metric("latency_p90_ms", quantile(Latency, 0.9), "ms");
    R.metric("setup_s", median(SetupS), "s");
    R.metric("peak_rss_mb", maxRssMb(), "MB");
    R.metric("compile_s", median(CompileS), "s");
    R.metric("speedup_vs_ref", geomean(Ratios), "x");
    return 0;
  }

  auto Sum = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return S;
  };
  double CompileMs = Sum(PerApp(&Job::CompileMs)),
         EmitMs = Sum(PerApp(&Job::EmitMs)),
         BuildMs = Sum(PerApp(&Job::BuildMs));
  double Total = CompileMs + EmitMs + BuildMs;
  std::printf("reconcile codegen-batch (sum of per-app medians, ms): compile "
              "%.3f = transform %.3f (%.1f%%) + emit %.3f (%.1f%%) + build "
              "%.3f (%.1f%%)\n",
              Total, CompileMs, 100 * CompileMs / Total, EmitMs,
              100 * EmitMs / Total, BuildMs, 100 * BuildMs / Total);
  std::string TracePath = O.WorkDir + "/trace-" + O.Workload + "-seed" +
                          std::to_string(O.Seed) + ".jsonl";
  if (Log.writeJsonLines(TracePath))
    std::printf("spans written to %s\n", TracePath.c_str());
  for (const auto &[Name, Ms] : Log.selfMs())
    std::printf("self_ms %-28s %.3f\n", Name.c_str(), Ms);

  std::vector<double> DataMs, ExecMs, Busy, Wait;
  int64_t Launches = 0, FallbackRuns = 0, FallbackLoops = 0, Steals = 0,
          ParLoops = 0, SeqLoops = 0;
  double KernelCompileMs = 0;
  for (const Prepared &P : Prep) {
    DataMs.push_back(P.DataMs);
    if (P.RefEvalMs == 0)
      continue;
    ExecMs.push_back(P.RefEvalMs);
    Launches += P.Kernels.Launches;
    FallbackRuns += P.Kernels.FallbackRuns;
    FallbackLoops += P.Kernels.FallbackLoops;
    KernelCompileMs += P.Kernels.CompileMillis;
    double B = 0, Wt = 0;
    for (const WorkerStats &WS : P.Profile.Workers) {
      B += WS.BusyMs;
      Wt += WS.WaitMs;
      Steals += WS.Steals;
    }
    Busy.push_back(B);
    Wait.push_back(Wt);
    ParLoops += P.Profile.ParallelLoops;
    SeqLoops += P.Profile.SequentialLoops;
  }
  int64_t Rewrites = 0, Nodes = 0;
  for (const auto &Js : ByApp) {
    Rewrites += Js.front().Rewrites;
    Nodes += Js.front().Nodes;
  }
  R.metric("service.daemon_p50_ms", 0, "ms");
  R.metric("service.daemon_p99_ms", 0, "ms");
  R.metric("service.transport_p50_ms", 0, "ms");
  R.metric("service.transport_p99_ms", 0, "ms");
  R.metric("service.residual_p50_ms", 0, "ms");
  R.metric("service.residual_p99_ms", 0, "ms");
  R.metric("service.residual_share", 0, "ratio");
  R.metric("service.cache_hit_ratio", 0, "ratio");
  R.metric("protocol.codec_us", 0, "us");
  R.metric("data.inputs_ms", median(DataMs), "ms");
  R.metric("transform.compile_ms", CompileMs, "ms");
  R.metric("transform.rewrites", static_cast<double>(Rewrites), "count");
  R.metric("transform.ir_nodes", static_cast<double>(Nodes), "count");
  R.metric("exec.ms", median(ExecMs), "ms");
  R.metric("engine.kernel_share",
           Launches + FallbackRuns
               ? static_cast<double>(Launches) /
                     static_cast<double>(Launches + FallbackRuns)
               : 0,
           "ratio");
  R.metric("engine.fallback_loops", static_cast<double>(FallbackLoops), "count");
  R.metric("engine.compile_ms", KernelCompileMs, "ms");
  R.metric("runtime.busy_ms", median(Busy), "ms");
  R.metric("runtime.wait_ms", median(Wait), "ms");
  R.metric("runtime.steals", static_cast<double>(Steals), "count");
  R.metric("runtime.parallel_loop_share",
           ParLoops + SeqLoops ? static_cast<double>(ParLoops) /
                                     static_cast<double>(ParLoops + SeqLoops)
                               : 0,
           "ratio");
  R.metric("codegen.emit_ms", EmitMs, "ms");
  R.metric("codegen.build_ms", BuildMs, "ms");
  R.metric("codegen.run_ms", geomean(Gen), "ms");
  R.metric("codegen.source_bytes", Sum(PerApp(&Job::SourceBytes)), "bytes");
  R.metric("refimpl.run_ms", geomean(Ref), "ms");
  R.metric("bench.goodput_rps", GoodputRps, "req/s");
  R.metric("bench.late_p99_ms", 0, "ms");
  R.metric("bench.trace_overhead_ratio", Log.bookkeepingMs() / (ElapsedS * 1000),
           "ratio");
  return 0;
}
