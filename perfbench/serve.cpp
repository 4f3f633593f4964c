//===- perfbench/serve.cpp - serve-nested and serve-flat --------*- C++ -*-===//
//
// Drives the shipped dmll-serve over loopback from one generator thread.
// serve-nested is a closed loop of one client over the paper's nested
// programs; serve-flat is an open loop of Poisson arrivals over short flat
// programs, fresh (app, scale) pairs and the trapping tenant. Every response
// is checked against a digest the interpreter computed in-process before
// the daemon started. With --trace 1 the same schedule is replayed
// in-process through the public functions the daemon calls, in daemon
// order, to split each request into layers (README.md).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "ir/Traversal.h"
#include "runtime/ThreadPool.h"
#include "service/Catalog.h"
#include "service/Protocol.h"
#include "support/Json.h"
#include "support/Net.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace dmll;
using namespace perfbench;

namespace {

using Key = std::pair<std::string, int64_t>; ///< (app, scale)

struct Workload {
  bool OpenLoop;
  std::vector<Key> Fixed; ///< warmed up at set-up; the mix's base keys
  double LimitMs;         ///< goodput latency limit
};

Workload workloadFor(const std::string &Name) {
  if (Name == "serve-nested")
    return {false, {{"k-means", 100}, {"gda", 50}}, 1000};
  return {true,
          {{"tpch-q1", 20}, {"gene", 20}, {"pagerank", 8}, {"logreg", 50},
           {"trapdiv", 1}},
          50};
}

/// serve-flat's fixed arrival rate: about a quarter of the daemon's capacity
/// on the base mix (mean warm service time about 10 ms with three threads).
/// Queueing still shows in the p90; at half capacity the p50 doubled in
/// the slow phases of a shared host.
constexpr double FlatRatePerSec = 20;
/// The open-loop generator keeps at most this many connections open.
constexpr size_t MaxOpen = 4;
/// A run whose generator sent requests this late (p99, beyond the moment a
/// connection slot was free) measured the generator, not the daemon. Half
/// of serve-flat's latency limit: scheduling jitter of a few milliseconds
/// on a shared host is expected and counted in latency from the due time.
constexpr double MaxGeneratorLagMs = 25;

struct Req {
  std::string Id, App;
  int64_t Scale = 1;
  double DueMs = 0;
  bool Fresh = false;
};

std::vector<Req> makeSchedule(const Options &O, const Workload &W) {
  std::vector<Req> S;
  Rng R(mixSeed(O.Seed, 1));
  if (!W.OpenLoop) {
    // Closed loop: blocks of four requests, three k-means and one gda, in a
    // seeded order. The fixed proportion keeps the p50 and the p90 inside
    // the k-means mode, away from the gap between the two apps' latencies.
    size_t N = static_cast<size_t>(O.Seconds * 10) + 4;
    while (S.size() < N) {
      std::vector<Key> Block = {W.Fixed[0], W.Fixed[0], W.Fixed[0],
                                W.Fixed[1]};
      for (size_t I = Block.size(); I > 1; --I)
        std::swap(Block[I - 1], Block[R.nextBelow(I)]);
      for (const Key &K : Block)
        S.push_back({"", K.first, K.second, 0, false});
    }
  } else {
    // Open loop: a Poisson process conditioned on its count, i.e. a fixed
    // number of arrivals at sorted uniform times, so the offered load is
    // the same for every seed.
    size_t N = static_cast<size_t>(std::lround(FlatRatePerSec * O.Seconds));
    std::vector<double> Due;
    for (size_t I = 0; I < N; ++I)
      Due.push_back(R.nextDouble() * O.Seconds * 1000);
    std::sort(Due.begin(), Due.end());
    // Fresh scales: each block has three fresh slots, dealt to the apps in
    // turn; app A's slots take the scales 2*base+1 .. 2*base+slots (at most
    // half the base dataset) in a seeded order, so the set of inserted
    // datasets is the same for every seed.
    const size_t NumApps = W.Fixed.size() - 1; // the last one is trapdiv
    const size_t FreshSlots = 3 * ((N + 31) / 32);
    std::map<std::string, std::vector<int64_t>> Pool;
    for (size_t A = 0; A < NumApps; ++A) {
      auto &P = Pool[W.Fixed[A].first];
      for (size_t F = A; F < FreshSlots; F += NumApps)
        P.push_back(2 * W.Fixed[A].second + 1 + static_cast<int64_t>(P.size()));
      for (size_t I = P.size(); I > 1; --I)
        std::swap(P[I - 1], P[R.nextBelow(I)]);
    }
    // The mix in blocks of 32 arrivals, shuffled: one trapdiv, three fresh
    // (app, scale) pairs, seven base requests per app. Fixed proportions
    // keep the offered work the same for every seed.
    std::vector<Req> Block;
    size_t FreshApp = 0;
    for (double D : Due) {
      if (Block.empty()) {
        Block.push_back({"", W.Fixed.back().first, W.Fixed.back().second, 0, false});
        for (int F = 0; F < 3; ++F, ++FreshApp) {
          const std::string &App = W.Fixed[FreshApp % NumApps].first;
          auto &P = Pool[App];
          Block.push_back({"", App, P.back(), 0, true});
          P.pop_back();
        }
        for (size_t A = 0; A < NumApps; ++A)
          for (int I = 0; I < 7; ++I)
            Block.push_back({"", W.Fixed[A].first, W.Fixed[A].second, 0, false});
        for (size_t I = Block.size(); I > 1; --I)
          std::swap(Block[I - 1], Block[R.nextBelow(I)]);
      }
      S.push_back(Block.back());
      S.back().DueMs = D;
      Block.pop_back();
    }
  }
  for (size_t I = 0; I < S.size(); ++I)
    S[I].Id = "r" + std::to_string(I);
  return S;
}

std::string scheduleText(const std::vector<Req> &S) {
  std::string T;
  for (const Req &Q : S)
    T += Q.Id + " " + Q.App + " " + std::to_string(Q.Scale) + " " +
         std::to_string(std::llround(Q.DueMs * 1000)) + "\n";
  return T;
}

std::string digestOf(const Value &V) {
  // Serve.cpp's response digest format.
  Checksum CS = checksumValue(V);
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%lld:%.17g:%.17g",
                static_cast<long long>(CS.Count), CS.Sum, CS.Abs);
  return Buf;
}

struct Expected {
  std::string Status, Digest;
};

/// One dmll-serve child process. The destructor always shuts it down and
/// reaps it.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const Options &O, int Index, std::string &Err) {
    std::string PortFile = O.WorkDir + "/serve-" + std::to_string(Index) + ".port";
    ::unlink(PortFile.c_str());
    std::vector<std::string> Args = {O.ServeBin,      "--threads",
                                     std::to_string(Threads), "--port",
                                     "0",             "--port-file",
                                     PortFile};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    if (posix_spawn(&Pid, O.ServeBin.c_str(), nullptr, nullptr, Argv.data(),
                    environ) != 0) {
      Pid = -1;
      Err = "cannot start " + O.ServeBin;
      return false;
    }
    auto T0 = Clock::now();
    while (msSince(T0) < 20000) {
      std::ifstream F(PortFile);
      int P = 0;
      if (F >> P && P > 0) {
        Port = P;
        return true;
      }
      int St;
      if (waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        Err = "dmll-serve exited during start-up";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Err = "dmll-serve did not report its port";
    return false;
  }

  int port() const { return Port; }

  /// VmHWM of the daemon process, in MB.
  double peakRssMb() const {
    std::ifstream F("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(F, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::atof(Line.c_str() + 6) / 1024.0;
    return 0;
  }

  void stop() {
    if (Pid < 0)
      return;
    if (Port > 0) {
      int Fd = net::connectLoopback(Port);
      if (Fd >= 0) {
        service::Request R;
        R.Cmd = "shutdown";
        service::sendFrame(Fd, service::renderRequest(R));
        std::string Body;
        service::recvFrame(Fd, Body);
        ::close(Fd);
      }
    }
    auto T0 = Clock::now();
    int St;
    while (waitpid(Pid, &St, WNOHANG) == 0) {
      if (msSince(T0) > 10000) {
        ::kill(Pid, SIGKILL);
        waitpid(Pid, &St, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
    Port = 0;
  }

private:
  pid_t Pid = -1;
  int Port = 0;
};

int connectTo(int Port) {
  int Fd = net::connectLoopback(Port);
  if (Fd >= 0) {
    timeval Tv{60, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  return Fd;
}

/// One closed-loop request/response exchange on a fresh connection.
bool exchange(int Port, const service::Request &R, service::Response &Resp,
              std::string &Err) {
  int Fd = connectTo(Port);
  if (Fd < 0) {
    Err = "connect failed";
    return false;
  }
  std::string Body;
  bool Ok = service::sendFrame(Fd, service::renderRequest(R)) &&
            service::recvFrame(Fd, Body, &Err) &&
            service::parseResponse(Body, Resp, Err);
  ::close(Fd);
  return Ok;
}

service::Request runRequest(const std::string &Id, const Key &K) {
  service::Request R;
  R.Id = Id;
  R.App = K.first;
  R.Scale = K.second;
  return R;
}

/// What the client saw for one timed request.
struct Sample {
  bool Done = false, Good = false;
  double LatencyMs = 0;  ///< from due time (open loop) or send (closed)
  double FromSendMs = 0; ///< from connect to the response fully read
  double DaemonMs = 0;   ///< the response's Ms
  double LateMs = 0;     ///< send time minus due time
  double LagMs = 0;      ///< send time minus the moment it could be sent
  Clock::time_point Sent, Recv;
  service::Response Resp;
};

class Checker {
public:
  Checker(const std::map<Key, Expected> &Want, Result &R) : Want(Want), R(R) {}
  /// Counts one response; true when it is correct.
  bool check(const Key &K, bool Transported, const service::Response &Resp,
             const std::string &Err) {
    ++R.Attempted;
    const Expected &E = Want.at(K);
    bool Ok = Transported && Resp.Status == E.Status &&
              (E.Status != "ok" || Resp.Digest == E.Digest);
    if (!Ok) {
      ++R.Failed;
      std::fprintf(stderr, "perfbench: %s@%lld failed: %s status=%s digest=%s "
                   "(want %s %s) %s\n",
                   K.first.c_str(), static_cast<long long>(K.second),
                   Transported ? "" : Err.c_str(), Resp.Status.c_str(),
                   Resp.Digest.c_str(), E.Status.c_str(), E.Digest.c_str(),
                   Resp.Error.c_str());
    }
    return Ok;
  }

private:
  const std::map<Key, Expected> &Want;
  Result &R;
};

/// Reference digests from the interpreter at the daemon's Threads and
/// MinChunk (the engine contract makes Auto and Interp bit-identical).
bool referenceDigests(const std::set<Key> &Keys, std::map<Key, Expected> &Want,
                      std::string &Err) {
  ThreadPool Pool(Threads);
  std::map<std::string, std::pair<Program, CompileResult>> Compiled;
  for (const Key &K : Keys) {
    auto It = Compiled.find(K.first);
    if (It == Compiled.end()) {
      Program P;
      if (!service::makeProgram(K.first, P)) {
        Err = "unknown app " + K.first;
        return false;
      }
      CompileResult CR = compileProgram(P, CompileOptions());
      It = Compiled.emplace(K.first, std::make_pair(P, std::move(CR))).first;
    }
    InputMap Raw;
    int64_t N = 0;
    service::makeInputs(K.first, K.second, Raw, N);
    const auto &[P, CR] = It->second;
    EvalOptions EO = daemonEvalOptions(Pool);
    EO.Mode = engine::EngineMode::Interp;
    ExecResult Res = evalProgramRecover(CR.P, adaptInputs(P, CR, std::move(Raw)), EO);
    Expected E{execStatusName(Res.Status), Res.ok() ? digestOf(Res.Out) : ""};
    if (K.first == "trapdiv" && E.Status != "trapped") {
      Err = "trapdiv did not trap in the interpreter";
      return false;
    }
    Want[K] = E;
  }
  return true;
}

/// In-process control timings on the workload's base keys: compileProgram
/// per app (compile_s) and the hand-written reference on the inputs
/// dmll-serve materializes (speedup_vs_ref). Samples are taken before and
/// after the timed phase and interleaved with it whenever the daemon is
/// idle, so they cover the same stretch of host time as the latencies.
class Controls {
public:
  bool init(const Workload &W, std::string &Err) {
    for (const Key &K : W.Fixed) {
      Entry E{K, Program(), AppData(), {}, {}};
      InputMap Served;
      int64_t N = 0;
      if (!service::makeProgram(K.first, E.P) ||
          !service::makeInputs(K.first, K.second, Served, N)) {
        Err = "no program or dataset for " + K.first;
        return false;
      }
      if (K.first != "trapdiv") {
        if (!makeAppData(K.first, K.second, false, 0, E.D)) {
          Err = "no refimpl dataset for " + K.first;
          return false;
        }
        for (const auto &[Name, V] : Served) {
          auto It = E.D.Inputs.find(Name);
          Checksum A = checksumValue(V), B;
          if (It != E.D.Inputs.end())
            B = checksumValue(It->second);
          if (It == E.D.Inputs.end() || A.Count != B.Count || A.Sum != B.Sum ||
              A.Abs != B.Abs) {
            Err = "refimpl dataset for " + K.first +
                  " differs from service::makeInputs (input " + Name + ")";
            return false;
          }
        }
      }
      Es.push_back(std::move(E));
    }
    return true;
  }

  /// Three samples per app, taken before and after the timed phase.
  void measure() {
    for (int I = 0; I < 3; ++I)
      for (Entry &E : Es)
        sample(E);
  }

  /// One sample of the next app: a compileProgram and, where the app has a
  /// hand-written reference, about half a millisecond of it.
  void sample() { sample(Es[Next++ % Es.size()]); }

  /// Sum over the apps of the median compileProgram time, in seconds.
  double compileS() const {
    double S = 0;
    for (const Entry &E : Es)
      S += median(E.CompileMs) / 1000;
    return S;
  }

  std::map<Key, double> refMs() const {
    std::map<Key, double> M;
    for (const Entry &E : Es)
      if (!E.RefMs.empty())
        M[E.K] = median(E.RefMs);
    return M;
  }

private:
  struct Entry;
  void sample(Entry &E) {
    auto T0 = Clock::now();
    (void)compileProgram(E.P, CompileOptions());
    E.CompileMs.push_back(msSince(T0));
    if (!E.D.Ref)
      return;
    T0 = Clock::now();
    int N = 0;
    do {
      E.D.Ref();
      ++N;
    } while (msSince(T0) < 0.5);
    E.RefMs.push_back(msSince(T0) / N);
  }

  struct Entry {
    Key K;
    Program P;
    AppData D;
    std::vector<double> CompileMs, RefMs;
  };
  std::vector<Entry> Es;
  size_t Next = 0;
};

/// The replayed layers of one request.
struct Layers {
  double CompileMs = 0, InputsMs = 0, ExecMs = 0, DigestMs = 0, CodecUs = 0;
  bool Insert = false;
  engine::KernelStats Kernels;
  ExecProfile Profile;
};

/// In-process replay of requests through the public functions dmll-serve
/// calls, with the daemon's cache structure: per app a compiled program and
/// a KernelReuseCache, per (app, scale) SoA-adapted inputs.
class Replayer {
public:
  explicit Replayer(SpanLog &Log) : Log(Log), Pool(Threads) {}

  Layers replay(const std::string &TreeId, const Key &K,
                const service::Response &Resp, int Root) {
    Layers L;
    auto Span = [&](const char *Name, Clock::time_point T0) {
      auto T1 = Clock::now();
      Log.add(TreeId, Name, T0, T1, Root);
      return msBetween(T0, T1);
    };
    auto &A = Apps[K.first];
    if (!A) {
      A = std::make_unique<App>();
      auto T0 = Clock::now();
      service::makeProgram(K.first, A->P);
      L.CompileMs += Span("service.makeProgram", T0);
      T0 = Clock::now();
      A->CR = compileProgram(A->P, CompileOptions());
      double Ms = Span("transform.compileProgram", T0);
      L.CompileMs += Ms;
      CompileTotal += Ms;
      A->Rewrites = A->CR.Stats.total();
      A->Nodes = static_cast<int64_t>(countNodes(A->CR.P.Result));
    }
    auto In = A->Inputs.find(K.second);
    if (In == A->Inputs.end()) {
      L.Insert = true;
      InputMap Raw;
      int64_t N = 0;
      auto T0 = Clock::now();
      service::makeInputs(K.first, K.second, Raw, N);
      L.InputsMs += Span("data.makeInputs", T0);
      T0 = Clock::now();
      In = A->Inputs.emplace(K.second, adaptInputs(A->P, A->CR, std::move(Raw)))
               .first;
      L.InputsMs += Span("transform.aosToSoa", T0);
    }
    EvalOptions EO = daemonEvalOptions(Pool);
    EO.KernelReuse = &A->Kernels;
    EO.Kernels = &L.Kernels;
    EO.Profile = &L.Profile;
    auto T0 = Clock::now();
    ExecResult Res = evalProgramRecover(A->CR.P, In->second, EO);
    L.ExecMs = Span("exec.evalProgramRecover", T0);
    T0 = Clock::now();
    if (Res.ok())
      (void)digestOf(Res.Out);
    L.DigestMs = Span("service.digest", T0);
    T0 = Clock::now();
    service::Request Rq = runRequest(TreeId, K), RqBack;
    service::Response RsBack;
    std::string Err;
    service::parseRequest(service::renderRequest(Rq), RqBack, Err);
    service::parseResponse(service::renderResponse(Resp), RsBack, Err);
    L.CodecUs = Span("protocol.codec", T0) * 1000;
    A->FallbackLoops = std::max(A->FallbackLoops, L.Kernels.FallbackLoops);
    return L;
  }

  double compileMsTotal() const { return CompileTotal; }
  int64_t rewrites() const {
    int64_t N = 0;
    for (const auto &[Name, A] : Apps)
      N += A->Rewrites;
    return N;
  }
  int64_t nodes() const {
    int64_t N = 0;
    for (const auto &[Name, A] : Apps)
      N += A->Nodes;
    return N;
  }
  int64_t fallbackLoops() const {
    int64_t N = 0;
    for (const auto &[Name, A] : Apps)
      N += A->FallbackLoops;
    return N;
  }

private:
  struct App {
    Program P;
    CompileResult CR;
    KernelReuseCache Kernels;
    std::map<int64_t, InputMap> Inputs;
    int64_t Rewrites = 0, Nodes = 0, FallbackLoops = 0;
  };
  SpanLog &Log;
  ThreadPool Pool;
  std::map<std::string, std::unique_ptr<App>> Apps;
  double CompileTotal = 0;
};

/// Closed loop: one client, next request after the previous response.
void runClosed(int Port, const Options &O, const std::vector<Req> &S,
               std::vector<Sample> &Out, size_t &Used, SpanLog &Log,
               Controls &Ctl) {
  auto T0 = Clock::now();
  for (Used = 0; Used < S.size() && msSince(T0) < O.Seconds * 1000; ++Used) {
    Sample &X = Out[Used];
    X.Sent = Clock::now();
    std::string Err;
    X.Done = exchange(Port, runRequest(S[Used].Id, {S[Used].App, S[Used].Scale}),
                      X.Resp, Err);
    X.Recv = Clock::now();
    X.FromSendMs = X.LatencyMs = msBetween(X.Sent, X.Recv);
    X.DaemonMs = X.Resp.Ms;
    if (!Err.empty())
      X.Resp.Error = Err;
    Log.add(S[Used].Id, "client.exchange", X.Sent, X.Recv);
    Ctl.sample(); // the daemon is idle between closed-loop requests
  }
}

/// Open loop: requests leave at their due times from one thread with at
/// most MaxOpen connections open; latency counts from the due time.
void runOpen(int Port, const std::vector<Req> &S, std::vector<Sample> &Out,
             SpanLog &Log, Controls &Ctl) {
  struct Conn {
    int Fd;
    size_t Idx;
  };
  std::vector<Conn> Open;
  size_t Next = 0;
  bool Blocked = false, SampleOwed = false;
  auto LastFree = Clock::now();
  const auto T0 = Clock::now();
  auto DueAt = [&](size_t I) {
    return T0 + std::chrono::microseconds(std::llround(S[I].DueMs * 1000));
  };
  while (Next < S.size() || !Open.empty()) {
    auto Now = Clock::now();
    while (Next < S.size() && DueAt(Next) <= Now) {
      if (Open.size() >= MaxOpen) {
        Blocked = true;
        break;
      }
      Sample &X = Out[Next];
      auto Due = DueAt(Next);
      X.Sent = Clock::now();
      X.LateMs = msBetween(Due, X.Sent);
      X.LagMs = msBetween(Blocked ? std::max(Due, LastFree) : Due, X.Sent);
      Blocked = false;
      int Fd = connectTo(Port);
      if (Fd >= 0 &&
          service::sendFrame(Fd, service::renderRequest(runRequest(
                                     S[Next].Id, {S[Next].App, S[Next].Scale}))))
        Open.push_back({Fd, Next});
      else {
        if (Fd >= 0)
          ::close(Fd);
        X.Recv = Clock::now();
        X.Resp.Error = "connect or send failed";
      }
      ++Next;
      Now = Clock::now();
    }
    // One control sample per response, taken when nothing is in flight
    // and the next request is over 10 ms away, so the daemon is idle and
    // the generator is back before the next due time.
    if (SampleOwed && Open.empty() &&
        (Next == S.size() || msBetween(Clock::now(), DueAt(Next)) > 10)) {
      Ctl.sample();
      SampleOwed = false;
      continue;
    }
    // Sleep until the next due time (when a slot is free) or a response.
    timespec Ts{0, 200 * 1000 * 1000};
    if (Next < S.size() && Open.size() < MaxOpen) {
      double Wait = std::max(0.0, msBetween(Clock::now(), DueAt(Next)));
      Wait = std::min(Wait, 200.0);
      Ts.tv_sec = 0;
      Ts.tv_nsec = static_cast<long>(Wait * 1e6);
    }
    std::vector<pollfd> Fds;
    for (const Conn &C : Open)
      Fds.push_back({C.Fd, POLLIN, 0});
    if (ppoll(Fds.data(), Fds.size(), &Ts, nullptr) <= 0)
      continue;
    for (size_t I = Fds.size(); I-- > 0;) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Sample &X = Out[Open[I].Idx];
      std::string Body, Err;
      X.Done = service::recvFrame(Open[I].Fd, Body, &Err) &&
               service::parseResponse(Body, X.Resp, Err);
      X.Recv = Clock::now();
      if (!Err.empty())
        X.Resp.Error = Err;
      X.LatencyMs = msBetween(DueAt(Open[I].Idx), X.Recv);
      X.FromSendMs = msBetween(X.Sent, X.Recv);
      X.DaemonMs = X.Resp.Ms;
      Log.add(S[Open[I].Idx].Id, "client.exchange", X.Sent, X.Recv);
      ::close(Open[I].Fd);
      Open.erase(Open.begin() + static_cast<long>(I));
      LastFree = X.Recv;
      SampleOwed = true;
    }
  }
}

/// Cache hit ratio from the daemon's `stats` command.
double cacheHitRatio(int Port) {
  service::Request R;
  R.Cmd = "stats";
  int Fd = connectTo(Port);
  if (Fd < 0)
    return 0;
  std::string Body;
  json::JValue V;
  bool Ok = service::sendFrame(Fd, service::renderRequest(R)) &&
            service::recvFrame(Fd, Body) && json::parse(Body, V);
  ::close(Fd);
  if (!Ok)
    return 0;
  double Hits = V.numField("cache_hits"), Misses = V.numField("cache_misses");
  return Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
}

} // namespace

int perfbench::runServe(const Options &O, Result &R) {
  const Workload W = workloadFor(O.Workload);
  std::vector<Req> S = makeSchedule(O, W);
  std::printf("schedule_hash=%s requests=%zu\n",
              service::hashKey(scheduleText(S)).c_str(), S.size());

  std::set<Key> Keys(W.Fixed.begin(), W.Fixed.end());
  for (const Req &Q : S)
    Keys.insert({Q.App, Q.Scale});
  std::map<Key, Expected> Want;
  Controls Ctl;
  std::string Err;
  if (!referenceDigests(Keys, Want, Err) || !Ctl.init(W, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  Ctl.measure();
  Checker Check(Want, R);

  // Set up SetupRepeats daemons; the last one serves the timed phase.
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  for (int I = 0; I < SetupRepeats; ++I) {
    D = std::make_unique<Daemon>();
    auto T0 = Clock::now();
    if (!D->start(O, I, Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      return 2;
    }
    for (const Key &K : W.Fixed) {
      service::Response Resp;
      std::string E;
      bool T = exchange(D->port(), runRequest("warmup", K), Resp, E);
      Check.check(K, T, Resp, E);
    }
    SetupS.push_back(msSince(T0) / 1000);
    if (I + 1 < SetupRepeats)
      D->stop();
  }

  SpanLog Log(O.Trace);
  std::vector<Sample> Out(S.size());
  size_t Used = S.size();
  auto T0 = Clock::now();
  if (W.OpenLoop)
    runOpen(D->port(), S, Out, Log, Ctl);
  else
    runClosed(D->port(), O, S, Out, Used, Log, Ctl);
  double ElapsedS = msSince(T0) / 1000;
  double BookkeepingMs = Log.bookkeepingMs();
  double HitRatio = O.Trace ? cacheHitRatio(D->port()) : 0;
  double RssMb = D->peakRssMb();
  D->stop();
  Ctl.measure();
  const std::map<Key, double> RefMs = Ctl.refMs();

  std::vector<double> Lat, Late, Lag;
  std::map<Key, std::vector<double>> ByKey;
  int64_t Good = 0;
  for (size_t I = 0; I < Used; ++I) {
    Sample &X = Out[I];
    Key K{S[I].App, S[I].Scale};
    X.Good = Check.check(K, X.Done, X.Resp, X.Resp.Error);
    if (!X.Done)
      continue;
    if (X.Good && X.LatencyMs <= W.LimitMs)
      ++Good;
    Lat.push_back(X.LatencyMs);
    Late.push_back(X.LateMs);
    Lag.push_back(X.LagMs);
    if (!S[I].Fresh)
      ByKey[K].push_back(X.LatencyMs);
  }
  for (const auto &[K, Ms] : ByKey)
    std::printf("latency %s@%lld n=%zu p50=%.3f p90=%.3f ms\n", K.first.c_str(),
                static_cast<long long>(K.second), Ms.size(), quantile(Ms, 0.5),
                quantile(Ms, 0.9));
  std::vector<double> Ratios, Refs;
  for (const auto &[K, Ms] : RefMs) {
    Refs.push_back(Ms);
    if (!ByKey[K].empty())
      Ratios.push_back(Ms / median(ByKey[K]));
  }
  std::printf("latency samples n=%zu p50=%.3f p90=%.3f p99=%.3f ms "
              "(p99 reported only at n>=1000)\n",
              Lat.size(), quantile(Lat, 0.5), quantile(Lat, 0.9),
              quantile(Lat, 0.99));
  if (W.OpenLoop) {
    double LagP99 = quantile(Lag, 0.99);
    std::printf("generator late_p99=%.3f ms lag_p99=%.3f ms\n",
                quantile(Late, 0.99), LagP99);
    if (LagP99 > MaxGeneratorLagMs) {
      std::fprintf(stderr,
                   "perfbench: generator fell behind its schedule (lag p99 "
                   "%.3f ms > %.0f ms)\n",
                   LagP99, MaxGeneratorLagMs);
      R.Valid = false;
    }
  }

  const double GoodputRps = static_cast<double>(Good) / ElapsedS;
  if (!O.Trace) {
    R.metric("latency_p50_ms", quantile(Lat, 0.5), "ms");
    R.metric("latency_p90_ms", quantile(Lat, 0.9), "ms");
    R.metric("setup_s", median(SetupS), "s");
    R.metric("peak_rss_mb", RssMb, "MB");
    R.metric("compile_s", Ctl.compileS(), "s");
    R.metric("speedup_vs_ref", geomean(Ratios), "x");
    return 0;
  }

  // Traced: replay the warm-ups, then every timed request in send order
  // (the daemon's single executor serves in arrival order).
  Replayer Rp(Log);
  std::vector<Layers> WarmL;
  for (const Key &K : W.Fixed) {
    std::string Id = "warmup-" + K.first + "@" + std::to_string(K.second);
    service::Response Resp;
    WarmL.push_back(Rp.replay(Id, K, Resp, -1));
  }
  std::vector<size_t> Order;
  for (size_t I = 0; I < Used; ++I)
    Order.push_back(I);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Out[A].Sent < Out[B].Sent;
  });
  std::vector<Layers> L(Used);
  for (size_t I : Order)
    L[I] = Rp.replay(S[I].Id, {S[I].App, S[I].Scale}, Out[I].Resp, 0);

  std::vector<double> DaemonMs, Transport, Residual, Exec, Codec, Inputs, Busy,
      Wait;
  double SumClient = 0, SumTransport = 0, SumResidual = 0, SumCompile = 0,
         SumInputs = 0, SumExec = 0, SumDigest = 0, SumDaemon = 0;
  int64_t Launches = 0, FallbackRuns = 0, Steals = 0, ParLoops = 0,
          SeqLoops = 0;
  double KernelCompileMs = 0;
  for (const Layers &X : WarmL) {
    KernelCompileMs += X.Kernels.CompileMillis;
    if (X.Insert)
      Inputs.push_back(X.InputsMs);
  }
  for (size_t I = 0; I < Used; ++I) {
    const Sample &X = Out[I];
    const Layers &Y = L[I];
    double Replayed = Y.CompileMs + Y.InputsMs + Y.ExecMs + Y.DigestMs;
    DaemonMs.push_back(X.DaemonMs);
    Transport.push_back(X.FromSendMs - X.DaemonMs);
    Residual.push_back(X.DaemonMs - Replayed);
    Exec.push_back(Y.ExecMs);
    Codec.push_back(Y.CodecUs);
    if (Y.Insert)
      Inputs.push_back(Y.InputsMs);
    SumClient += X.FromSendMs;
    SumDaemon += X.DaemonMs;
    SumTransport += X.FromSendMs - X.DaemonMs;
    SumResidual += X.DaemonMs - Replayed;
    SumCompile += Y.CompileMs;
    SumInputs += Y.InputsMs;
    SumExec += Y.ExecMs;
    SumDigest += Y.DigestMs;
    Launches += Y.Kernels.Launches;
    FallbackRuns += Y.Kernels.FallbackRuns;
    KernelCompileMs += Y.Kernels.CompileMillis;
    double B = 0, Wt = 0;
    for (const WorkerStats &WS : Y.Profile.Workers) {
      B += WS.BusyMs;
      Wt += WS.WaitMs;
      Steals += WS.Steals;
    }
    Busy.push_back(B);
    Wait.push_back(Wt);
    ParLoops += Y.Profile.ParallelLoops;
    SeqLoops += Y.Profile.SequentialLoops;
  }
  double N = static_cast<double>(std::max<size_t>(Used, 1));
  std::printf("reconcile %s (means over %zu requests, ms): client %.3f = "
              "transport %.3f + residual %.3f + compile %.3f + inputs %.3f + "
              "exec %.3f + digest %.3f\n",
              O.Workload.c_str(), Used, SumClient / N, SumTransport / N,
              SumResidual / N, SumCompile / N, SumInputs / N, SumExec / N,
              SumDigest / N);
  std::printf("reconcile %s: residual share of client latency %.1f%%, "
              "transport+residual share %.1f%%, exec share of daemon_ms "
              "%.1f%%\n",
              O.Workload.c_str(), 100 * SumResidual / SumClient,
              100 * (SumResidual + SumTransport) / SumClient,
              100 * SumExec / SumDaemon);
  std::string TracePath = O.WorkDir + "/trace-" + O.Workload + "-seed" +
                          std::to_string(O.Seed) + ".jsonl";
  if (Log.writeJsonLines(TracePath))
    std::printf("spans written to %s\n", TracePath.c_str());
  for (const auto &[Name, Ms] : Log.selfMs())
    std::printf("self_ms %-28s %.3f\n", Name.c_str(), Ms);

  R.metric("service.daemon_p50_ms", quantile(DaemonMs, 0.5), "ms");
  R.metric("service.daemon_p99_ms", quantile(DaemonMs, 0.99), "ms");
  R.metric("service.transport_p50_ms", quantile(Transport, 0.5), "ms");
  R.metric("service.transport_p99_ms", quantile(Transport, 0.99), "ms");
  R.metric("service.residual_p50_ms", quantile(Residual, 0.5), "ms");
  R.metric("service.residual_p99_ms", quantile(Residual, 0.99), "ms");
  R.metric("service.residual_share", SumResidual / SumClient, "ratio");
  R.metric("service.cache_hit_ratio", HitRatio, "ratio");
  R.metric("protocol.codec_us", median(Codec), "us");
  R.metric("data.inputs_ms", median(Inputs), "ms");
  R.metric("transform.compile_ms", Rp.compileMsTotal(), "ms");
  R.metric("transform.rewrites", static_cast<double>(Rp.rewrites()), "count");
  R.metric("transform.ir_nodes", static_cast<double>(Rp.nodes()), "count");
  R.metric("exec.ms", median(Exec), "ms");
  R.metric("engine.kernel_share",
           Launches + FallbackRuns
               ? static_cast<double>(Launches) /
                     static_cast<double>(Launches + FallbackRuns)
               : 0,
           "ratio");
  R.metric("engine.fallback_loops", static_cast<double>(Rp.fallbackLoops()),
           "count");
  R.metric("engine.compile_ms", KernelCompileMs, "ms");
  R.metric("runtime.busy_ms", median(Busy), "ms");
  R.metric("runtime.wait_ms", median(Wait), "ms");
  R.metric("runtime.steals", static_cast<double>(Steals), "count");
  R.metric("runtime.parallel_loop_share",
           ParLoops + SeqLoops ? static_cast<double>(ParLoops) /
                                     static_cast<double>(ParLoops + SeqLoops)
                               : 0,
           "ratio");
  R.metric("codegen.emit_ms", 0, "ms");
  R.metric("codegen.build_ms", 0, "ms");
  R.metric("codegen.run_ms", 0, "ms");
  R.metric("codegen.source_bytes", 0, "bytes");
  R.metric("refimpl.run_ms", geomean(Refs), "ms");
  R.metric("bench.goodput_rps", GoodputRps, "req/s");
  R.metric("bench.late_p99_ms", W.OpenLoop ? quantile(Late, 0.99) : 0, "ms");
  R.metric("bench.trace_overhead_ratio", BookkeepingMs / (ElapsedS * 1000),
           "ratio");
  return 0;
}
