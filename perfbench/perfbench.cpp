//===- perfbench/perfbench.cpp - Benchmark entry point ----------*- C++ -*-===//
//
//   perfbench --workload serve-nested|serve-flat|codegen-batch --seed N
//             --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR
//
// Runs one workload (README.md) and prints, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit codes:
// 0 ok, 1 some output failed its check, 2 usage or set-up error, 3 the
// measurement is invalid (the open-loop generator fell behind schedule).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "data/Datasets.h"
#include "graph/Graph.h"
#include "refimpl/RefImpl.h"
#include "transform/Soa.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

using namespace dmll;
using namespace perfbench;

double perfbench::msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double perfbench::msSince(Clock::time_point A) {
  return msBetween(A, Clock::now());
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

InputMap perfbench::adaptInputs(const Program &P, const CompileResult &CR,
                                InputMap In) {
  for (const auto &[Name, Kept] : CR.SoaConverted) {
    const InputExpr *I = P.findInput(Name);
    if (I && In.count(Name))
      In[Name] = aosToSoa(In[Name], *I->type()->elem(), Kept);
  }
  return In;
}

EvalOptions perfbench::daemonEvalOptions(ThreadPool &Pool) {
  EvalOptions EO;
  EO.Threads = Threads;
  EO.MinChunk = MinChunk;
  EO.Mode = engine::EngineMode::Auto;
  EO.Pool = &Pool;
  return EO;
}

int SpanLog::add(const std::string &Id, std::string Name,
                 Clock::time_point Start, Clock::time_point End, int Parent) {
  if (!Enabled)
    return -1;
  auto T0 = Clock::now();
  auto [It, New] = Trees.try_emplace(Id);
  if (New)
    Order.push_back(Id);
  It->second.push_back(
      {std::move(Name), msBetween(Epoch, Start), msBetween(Start, End), Parent});
  BookkeepingMs += msSince(T0);
  return static_cast<int>(It->second.size()) - 1;
}

std::map<std::string, double> SpanLog::selfMs() const {
  std::map<std::string, double> Self;
  for (const auto &[Id, Spans] : Trees) {
    std::vector<double> Covered(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Covered[static_cast<size_t>(S.Parent)] += S.DurMs;
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[Spans[I].Name] += Spans[I].DurMs - Covered[I];
  }
  return Self;
}

bool SpanLog::writeJsonLines(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const std::string &Id : Order) {
    std::fprintf(F, "{\"id\":\"%s\",\"spans\":[", Id.c_str());
    const auto &Spans = Trees.at(Id);
    for (size_t I = 0; I < Spans.size(); ++I)
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"start_ms\":%.6f,\"dur_ms\":%.6f,"
                   "\"parent\":%d}",
                   I ? "," : "", Spans[I].Name.c_str(), Spans[I].StartMs,
                   Spans[I].DurMs, Spans[I].Parent);
    std::fprintf(F, "]}\n");
  }
  return std::fclose(F) == 0;
}

bool perfbench::checksumsAgree(const Checksum &Got, const Checksum &Want) {
  double Tol = 1e-6 * std::max(1.0, std::fabs(Want.Abs));
  return Got.Count == Want.Count && std::fabs(Got.Sum - Want.Sum) <= Tol &&
         std::fabs(Got.Abs - Want.Abs) <= Tol;
}

namespace {

void addToChecksum(Checksum &C, double D) {
  ++C.Count;
  C.Sum += D;
  C.Abs += std::fabs(D);
}

} // namespace

bool perfbench::makeAppData(const std::string &App, int64_t Scale, bool Seeded,
                            uint64_t Seed, AppData &Out) {
  // Shapes and seeds follow service::makeInputs (src/service/Catalog.cpp),
  // which follows bench/table2_sequential.cpp at scale 1.
  auto S = [&](uint64_t CatalogSeed) {
    return Seeded ? mixSeed(Seed, CatalogSeed) : CatalogSeed;
  };
  if (Scale < 1)
    Scale = 1;
  const size_t Rows = static_cast<size_t>(50000 / Scale) + 1;
  const size_t Cols = 20, K = 10;
  if (App == "tpch-q1") {
    auto L = std::make_shared<data::LineItems>(
        data::makeLineItems(static_cast<size_t>(500000 / Scale) + 1, S(1)));
    int64_t Cutoff = 9500;
    Out.Inputs = {{"lineitems", L->toAosValue()}, {"cutoff", Value(Cutoff)}};
    Out.Ref = [L, Cutoff] { (void)refimpl::tpchQ1(*L, Cutoff); };
    return true;
  }
  if (App == "gene") {
    auto G = std::make_shared<data::GeneReads>(data::makeGeneReads(
        static_cast<size_t>(500000 / Scale) + 1, 10000, S(2)));
    Out.Inputs = {{"genes", G->toAosValue()}, {"min_quality", Value(10.0)}};
    Out.Ref = [G] { (void)refimpl::gene(*G, 10.0); };
    return true;
  }
  if (App == "gda") {
    auto X = std::make_shared<data::MatrixData>(
        data::makeGaussianMixture(Rows, Cols, 2, S(3)));
    auto Y = std::make_shared<std::vector<int64_t>>(data::makeLabels(*X, S(4)));
    Out.Inputs = {{"x", X->toValue()}, {"y", Value::arrayOfInts(*Y)}};
    Out.Ref = [X, Y] { (void)refimpl::gda(*X, *Y); };
    Out.RefChecksum = [X, Y] {
      // Field order of the program's result struct (src/apps/Gda.cpp). A
      // class with no samples has an empty mean vector in the program (its
      // row reduction runs over no rows); refimpl reports zeros for it.
      refimpl::GdaResult G = refimpl::gda(*X, *Y);
      Checksum C;
      addToChecksum(C, G.Phi);
      for (const auto &[Mu, Count] :
           {std::make_pair(&G.Mu0, G.Count0), std::make_pair(&G.Mu1, G.Count1)})
        if (Count > 0)
          for (double D : *Mu)
            addToChecksum(C, D);
      for (double D : G.Sigma)
        addToChecksum(C, D);
      addToChecksum(C, static_cast<double>(G.Count0));
      addToChecksum(C, static_cast<double>(G.Count1));
      return C;
    };
    return true;
  }
  if (App == "k-means") {
    auto M = std::make_shared<data::MatrixData>(
        data::makeGaussianMixture(Rows, Cols, K, S(5)));
    auto C = std::make_shared<data::MatrixData>(
        data::makeCentroids(*M, K, S(6)));
    Out.Inputs = {{"matrix", M->toValue()}, {"clusters", C->toValue()}};
    Out.Ref = [M, C] { (void)refimpl::kmeansStep(*M, *C); };
    Out.RefChecksum = [M, C] {
      Checksum Sum;
      for (const auto &Row : refimpl::kmeansStep(*M, *C))
        for (double D : Row)
          addToChecksum(Sum, D);
      return Sum;
    };
    return true;
  }
  if (App == "logreg") {
    auto X = std::make_shared<data::MatrixData>(
        data::makeGaussianMixture(Rows, Cols, 2, S(7)));
    auto Y = data::makeLabels(*X, S(8));
    auto YD = std::make_shared<std::vector<double>>(Y.begin(), Y.end());
    auto Theta = std::make_shared<std::vector<double>>(Cols, 0.01);
    Out.Inputs = {{"x", X->toValue()},
                  {"y", Value::arrayOfDoubles(*YD)},
                  {"theta", Value::arrayOfDoubles(*Theta)},
                  {"alpha", Value(0.1)}};
    Out.Ref = [X, YD, Theta] {
      (void)refimpl::logregStep(*X, *YD, *Theta, 0.1);
    };
    return true;
  }
  if (App == "pagerank") {
    unsigned RmatScale = 14;
    for (int64_t Sc = Scale; Sc > 1 && RmatScale > 8; Sc /= 2)
      --RmatScale;
    auto G = std::make_shared<data::CsrGraph>(data::makeRmat(RmatScale, 8, S(9)));
    auto Ranks = std::make_shared<std::vector<double>>(
        static_cast<size_t>(G->NumV), 1.0 / static_cast<double>(G->NumV));
    auto In = std::make_shared<data::CsrGraph>(G->transposed());
    Out.Inputs = graph::pageRankInputs(*G, *Ranks);
    Out.Ref = [G, In, Ranks] {
      (void)refimpl::pageRankStep(*In, G->OutDeg, *Ranks);
    };
    return true;
  }
  return false;
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-nested|serve-flat|"
               "codegen-batch --seed N --seconds S --trace 0|1\n"
               "                 --serve-bin PATH --work-dir DIR\n");
  return 2;
}

void printResult(const Result &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted) +
         ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", R.Metrics[I].second.first);
    Out += (I ? ", \"" : "\"") + R.Metrics[I].first + "\": {\"value\": " +
           Buf + ", \"unit\": \"" + R.Metrics[I].second.second + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string A = Argv[I], V = Argv[I + 1];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--serve-bin")
      O.ServeBin = V;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else
      return usage();
  }
  if (!HaveSeed || O.Seconds <= 0 || O.WorkDir.empty())
    return usage();

  Result R;
  int Rc;
  try {
    // Unwinding on an error runs the destructors that stop the daemon.
    if (O.Workload == "serve-nested" || O.Workload == "serve-flat") {
      if (O.ServeBin.empty())
        return usage();
      Rc = runServe(O, R);
    } else if (O.Workload == "codegen-batch") {
      Rc = runCodegen(O, R);
    } else {
      return usage();
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  if (Rc != 0)
    return Rc;
  std::fflush(stderr);
  if (!R.Valid) {
    std::fprintf(stderr, "perfbench: run invalid; no result reported\n");
    return 3;
  }
  printResult(R);
  return R.Failed == 0 ? 0 : 1;
}
