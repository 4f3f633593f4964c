//===- perfbench/bench.h - Shared pieces of the benchmark ------*- C++ -*-===//
//
// Options, sample statistics, the in-memory span log, the result record
// every workload fills, and the seeded Table 2 datasets shared by the serve
// workloads (hand-written reference timings) and codegen-batch. README.md
// in this directory defines every workload and metric.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "codegen/CppEmitter.h"
#include "interp/Interp.h"
#include "runtime/ThreadPool.h"
#include "transform/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string ServeBin; ///< the dmll-serve binary the serve workloads drive
  std::string WorkDir;  ///< scratch directory inside the checkout
};

/// Daemon-equivalent execution settings: the serve workloads start
/// dmll-serve with these, and every in-process run (reference digests,
/// traced replay, codegen reference checksums) uses the same values.
constexpr unsigned Threads = 3;
constexpr int64_t MinChunk = 1024; ///< dmll-serve's default --min-chunk

/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 3;

double msBetween(Clock::time_point A, Clock::time_point B);
double msSince(Clock::time_point A);

/// Exact sample quantile: linear interpolation between order statistics
/// (no histogram buckets). \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double geomean(const std::vector<double> &V);

/// splitmix64 step: derives independent sub-seeds from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// \p In with every input the compiler converted to SoA adapted to the
/// compiled program's layout (what dmll-serve does once per (app, scale)).
dmll::InputMap adaptInputs(const dmll::Program &P, const dmll::CompileResult &CR,
                           dmll::InputMap In);

/// dmll-serve's EvalOptions for a request: Auto engine, Threads, MinChunk,
/// and the persistent \p Pool.
dmll::EvalOptions daemonEvalOptions(dmll::ThreadPool &Pool);

/// Spans kept in memory during a run and written out at its end, one tree
/// per request (or codegen job) id. Parent is an index into the same tree;
/// -1 marks the root.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }
  int add(const std::string &Id, std::string Name, Clock::time_point Start,
          Clock::time_point End, int Parent = -1);
  /// Self time of every span name summed over all trees (a span's
  /// duration minus the part its children cover).
  std::map<std::string, double> selfMs() const;
  bool writeJsonLines(const std::string &Path) const;
  /// Time spent inside add(): the tracing overhead.
  double bookkeepingMs() const { return BookkeepingMs; }

private:
  struct Span {
    std::string Name;
    double StartMs, DurMs;
    int Parent;
  };
  bool Enabled;
  Clock::time_point Epoch = Clock::now();
  double BookkeepingMs = 0;
  std::vector<std::string> Order; ///< ids in first-seen order
  std::map<std::string, std::vector<Span>> Trees;
};

/// What one run reports: the run's counters plus named metrics in
/// insertion order.
struct Result {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  bool Valid = true; ///< false when the measurement itself is untrustworthy
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
};

/// The generated program's and the interpreter's checksums agree within
/// CodegenTest's tolerance: exact count, 1e-6 relative on sum and abs.
bool checksumsAgree(const dmll::Checksum &Got, const dmll::Checksum &Want);

/// One Table 2 application's dataset with its hand-written reference.
struct AppData {
  dmll::InputMap Inputs; ///< AoS inputs as service::makeInputs builds them
  std::function<void()> Ref; ///< one src/refimpl call on the same data
  /// Checksum of the refimpl result, laid out as the program's output;
  /// set only for the apps whose interpreter reference is too slow at
  /// Table 2 sizes (k-means, gda).
  std::function<dmll::Checksum()> RefChecksum;
};

/// Builds \p App's dataset at 1/\p Scale of the Table 2 size. With
/// \p Seeded false the dataset seeds are service::makeInputs's own, so the
/// inputs equal what dmll-serve materializes; with \p Seeded true each
/// dataset seed is derived from \p Seed.
bool makeAppData(const std::string &App, int64_t Scale, bool Seeded,
                 uint64_t Seed, AppData &Out);

int runServe(const Options &O, Result &R);
int runCodegen(const Options &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
