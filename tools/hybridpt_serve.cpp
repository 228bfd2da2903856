//===- tools/hybridpt_serve.cpp - Resident analysis daemon ----------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// hybridpt-serve: the fault-tolerant resident analysis daemon
/// (docs/SERVING.md).  Loads one program as epoch 1 and answers NDJSON
/// requests — one JSON object per line in, one JSON reply line per
/// request out — over stdin/stdout (default) or a unix socket
/// (--listen PATH).
///
/// Signals: SIGTERM starts a graceful drain (stop admitting, finish
/// in-flight work, exit 0); SIGINT trips the process cancel token, which
/// every per-request guard chains under, so in-flight solves abort with
/// structured "cancelled" errors before the daemon exits.  A second
/// signal kills the process (SA_RESETHAND).
///
//===----------------------------------------------------------------------===//

#include "checks/Cli.h"
#include "serve/Server.h"
#include "support/Cancel.h"
#include "support/FaultPlan.h"

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pt;
using namespace pt::serve;

namespace {

/// Upper bound of --workers: a typo must not ask for billions of threads.
constexpr uint64_t MaxWorkers = 1024;

void printUsage() {
  std::cout
      << "usage: hybridpt-serve --program <benchmark|file.ptir> [options]\n"
         "\n"
         "Resident NDJSON analysis daemon (docs/SERVING.md).\n"
         "\n"
         "options:\n"
         "  --program SPEC      program to load as epoch 1 (required)\n"
         "  --policy NAME       default context policy (default 2obj+H)\n"
         "  --workers N         worker threads, 1..1024 (default 2)\n"
         "  --queue N           admission queue bound (default 64)\n"
         "  --cache N           result cache entries (default 32)\n"
         "  --deadline-ms MS    default per-request deadline (0 = none)\n"
         "  --budget MS         default solver time budget (0 = none)\n"
         "  --max-facts N       default solver fact budget (0 = none)\n"
         "  --max-memory-mb N   default solver memory budget (0 = none)\n"
         "  --retry-after-ms MS back-off hint on shed replies (default 50)\n"
         "  --no-ladder         fail budget-blown solves instead of\n"
         "                      descending the fallback ladder\n"
         "  --fault-plan SPEC   per-request fault schedule, e.g.\n"
         "                      '3=oom-at-step=50;7=cancel-at-step=1'\n"
         "                      (HYBRIDPT_SERVE_FAULT_PLAN when absent)\n"
         "  --trace-out FILE    stream request/heartbeat JSONL telemetry\n"
         "  --listen PATH       serve a unix socket instead of stdio\n";
}

/// Thread-safe line sink over one output FILE (workers reply from the
/// pool, so writes must be serialized and flushed per line).
struct LineWriter {
  std::mutex Mu;
  FILE *Out = nullptr;

  void write(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::fwrite(Line.data(), 1, Line.size(), Out);
    std::fputc('\n', Out);
    std::fflush(Out);
  }
};

/// Thread-safe line sink over one socket fd.  Kept alive by shared_ptr in
/// every queued reply closure, so a connection that goes away mid-drain
/// still has a live (if EPIPE-dead) fd to write to — never a crash.
struct FdWriter {
  std::mutex Mu;
  int Fd = -1;

  explicit FdWriter(int Fd) : Fd(Fd) {}
  ~FdWriter() {
    if (Fd >= 0)
      ::close(Fd);
  }

  void write(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::string Buf = Line;
    Buf += '\n';
    size_t Off = 0;
    while (Off < Buf.size()) {
      ssize_t N = ::write(Fd, Buf.data() + Off, Buf.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return; // Client gone (EPIPE with SIGPIPE ignored): drop the reply.
      }
      Off += static_cast<size_t>(N);
    }
  }
};

enum class ReadOutcome { Eof, DrainRequested, Cancelled };

/// Reads NDJSON lines from \p Fd into the server until EOF, a drain
/// request, or a tripped token.  poll()-driven so SIGTERM/SIGINT (whose
/// handlers are installed without SA_RESTART) wake the reader promptly.
ReadOutcome pumpLines(int Fd, Server &S, const Server::ReplyFn &Reply,
                      const CancelToken &DrainTok,
                      const CancelToken &CancelTok) {
  std::string Buf;
  char Chunk[4096];
  for (;;) {
    if (CancelTok.cancelled())
      return ReadOutcome::Cancelled;
    if (DrainTok.cancelled())
      return ReadOutcome::DrainRequested;
    struct pollfd P = {Fd, POLLIN, 0};
    int Ready = ::poll(&P, 1, 200);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      return ReadOutcome::Eof;
    }
    if (Ready == 0)
      continue;
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ReadOutcome::Eof;
    }
    if (N == 0)
      return ReadOutcome::Eof;
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Pos;
    while ((Pos = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Pos);
      Buf.erase(0, Pos + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      if (!S.handleLine(Line, Reply))
        return ReadOutcome::DrainRequested;
    }
  }
}

int runStdio(Server &S, const CancelToken &DrainTok,
             const CancelToken &CancelTok) {
  LineWriter Out;
  Out.Out = stdout;
  Server::ReplyFn Reply = [&Out](const std::string &L) { Out.write(L); };
  ReadOutcome R =
      pumpLines(STDIN_FILENO, S, Reply, DrainTok, CancelTok);
  // Every exit path drains: admitted work is always answered before the
  // process goes away (replies may land after the drain reply itself).
  S.drain();
  return R == ReadOutcome::Cancelled ? 130 : 0;
}

int runSocket(Server &S, const std::string &Path,
              const CancelToken &DrainTok, const CancelToken &CancelTok) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::cerr << "hybridpt-serve: socket path too long: " << Path << "\n";
    return 1;
  }
  ::unlink(Path.c_str());
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::perror("hybridpt-serve: socket");
    return 1;
  }
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 16) < 0) {
    std::perror("hybridpt-serve: bind/listen");
    ::close(Fd);
    return 1;
  }
  std::cerr << "hybridpt-serve: listening on " << Path << "\n";

  std::vector<std::thread> Readers;
  bool Drain = false;
  while (!Drain && !CancelTok.cancelled() && !DrainTok.cancelled() &&
         !S.draining()) {
    struct pollfd P = {Fd, POLLIN, 0};
    int Ready = ::poll(&P, 1, 200);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Ready == 0)
      continue;
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Readers.emplace_back([Conn, &S, &DrainTok, &CancelTok] {
      auto W = std::make_shared<FdWriter>(Conn);
      Server::ReplyFn Reply = [W](const std::string &L) { W->write(L); };
      pumpLines(Conn, S, Reply, DrainTok, CancelTok);
    });
  }
  ::close(Fd);
  ::unlink(Path.c_str());
  for (std::thread &T : Readers)
    T.join();
  S.drain();
  return CancelTok.cancelled() ? 130 : 0;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  std::string FaultSpec, TraceOut, Listen;
  bool HaveFaultSpec = false;

  // A missing or malformed flag value exits 2 here, before any worker
  // thread starts.
  cli::Args Args("hybridpt-serve", argc, argv, 2);
  while (Args.more()) {
    std::string_view Arg = Args.next();
    if (Args.guard(Opts.Solver, Opts.DefaultDeadlineMs))
      continue;
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    }
    if (Arg == "--program")
      Opts.ProgramSpec = Args.value();
    else if (Arg == "--policy")
      Opts.DefaultPolicy = Args.value();
    else if (Arg == "--workers")
      Opts.Workers = static_cast<unsigned>(Args.number(1, MaxWorkers));
    else if (Arg == "--queue")
      Opts.QueueLimit = Args.number(0, SIZE_MAX);
    else if (Arg == "--cache")
      Opts.CacheEntries = Args.number(0, SIZE_MAX);
    else if (Arg == "--retry-after-ms")
      Opts.RetryAfterMs = Args.number();
    else if (Arg == "--no-ladder")
      Opts.UseLadder = false;
    else if (Arg == "--fault-plan") {
      FaultSpec = Args.value();
      HaveFaultSpec = true;
    } else if (Arg == "--trace-out")
      TraceOut = Args.value();
    else if (Arg == "--listen")
      Listen = Args.value();
    else {
      std::cerr << "hybridpt-serve: unknown option '" << Arg << "'\n";
      printUsage();
      return 2;
    }
  }
  if (Opts.ProgramSpec.empty()) {
    std::cerr << "hybridpt-serve: --program is required\n";
    printUsage();
    return 2;
  }

  if (HaveFaultSpec) {
    std::string Error;
    if (!RequestFaultPlan::parse(FaultSpec, Opts.Faults, Error)) {
      std::cerr << "hybridpt-serve: bad --fault-plan: " << Error << "\n";
      return 2;
    }
  } else {
    Opts.Faults = RequestFaultPlan::fromEnv();
  }

  trace::TraceRecorder Trace;
  if (!TraceOut.empty()) {
    std::string Error;
    if (!Trace.openJsonl(TraceOut, Error)) {
      std::cerr << "hybridpt-serve: " << Error << "\n";
      return 1;
    }
    Opts.Trace = &Trace;
  }

  // SIGINT cancels in-flight work (per-request tokens chain under this
  // one); SIGTERM drains gracefully.  Both are installed without
  // SA_RESTART so the poll()-based readers wake immediately.
  CancelToken ProcessCancel;
  CancelToken DrainTok;
  installSignalCancel(SIGINT, ProcessCancel);
  installSignalCancel(SIGTERM, DrainTok);
  std::signal(SIGPIPE, SIG_IGN);
  Opts.ProcessCancel = &ProcessCancel;

  Server S(std::move(Opts));
  std::string Error;
  if (!S.start(Error)) {
    std::cerr << "hybridpt-serve: " << Error << "\n";
    return 1;
  }

  int RC = Listen.empty()
               ? runStdio(S, DrainTok, ProcessCancel)
               : runSocket(S, Listen, DrainTok, ProcessCancel);
  S.shutdown();
  return RC;
}
