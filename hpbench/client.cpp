//===- hpbench/client.cpp - Closed-loop NDJSON serve client -----*- C++ -*-===//
//
// `hpbench serve-client --stream F --out F --window N --timeout-ms MS
//  --log F [--setup-per-reload K] [--keep-lines 1] -- <daemon command...>`
//
// Starts the daemon on stdio pipes, times the start up to its first
// `health` reply (the set-up), and sends it the request stream with at most
// N requests outstanding: a closed loop, as IDE and CI callers wait for
// their replies.  A `reload` request first waits for every outstanding
// reply and is itself answered before the next request goes out, so each
// block of the stream starts from a cleared cache.  A request unanswered
// after MS milliseconds is recorded as timed out and its window slot freed.
// One process, one thread, one connection.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "support/Json.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <iostream>
#include <memory>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace hpbench;

namespace {

/// A child process on stdio pipes.
class Child {
public:
  Child(const std::vector<std::string> &Cmd, const std::string &LogPath) {
    int In[2], Out[2];
    if (pipe(In) != 0 || pipe(Out) != 0) {
      std::perror("hpbench serve-client: pipe");
      return;
    }
    Pid = fork();
    if (Pid == 0) {
      dup2(In[0], 0);
      dup2(Out[1], 1);
      int Log = open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0)
        dup2(Log, 2);
      for (int Fd = 3; Fd < 1024; ++Fd)
        close(Fd);
      std::vector<char *> Args;
      for (const std::string &A : Cmd)
        Args.push_back(const_cast<char *>(A.c_str()));
      Args.push_back(nullptr);
      execv(Args[0], Args.data());
      _exit(127);
    }
    close(In[0]);
    close(Out[1]);
    ToChild = In[1];
    FromChild = Out[0];
    if (Pid < 0)
      stop();
  }
  ~Child() { stop(); }
  Child(const Child &) = delete;
  Child &operator=(const Child &) = delete;

  bool alive() const { return Pid > 0; }
  pid_t pid() const { return Pid; }

  bool send(const std::string &Line) {
    std::string Buf = Line + "\n";
    size_t Off = 0;
    while (Off < Buf.size()) {
      ssize_t N = write(ToChild, Buf.data() + Off, Buf.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Next reply line, waiting at most until \p DeadlineMs; false on
  /// timeout or end of output (\p Eof tells them apart).
  bool readLine(std::string &Line, double DeadlineMs, bool &Eof) {
    Eof = false;
    for (;;) {
      // A lint reply is megabytes: scan only what arrived since the last
      // look, so the client's cost stays linear in the reply.
      size_t Nl = Pending.find('\n', Scanned);
      if (Nl != std::string::npos) {
        Line.assign(Pending, 0, Nl);
        Pending.erase(0, Nl + 1);
        Scanned = 0;
        return true;
      }
      Scanned = Pending.size();
      double Left = DeadlineMs - nowMs();
      if (Left <= 0)
        return false;
      pollfd P{FromChild, POLLIN, 0};
      int R = poll(&P, 1, static_cast<int>(Left) + 1);
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        return false;
      char Buf[1 << 16];
      ssize_t N = read(FromChild, Buf, sizeof(Buf));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Eof = true;
        return false;
      }
      Pending.append(Buf, static_cast<size_t>(N));
    }
  }

  /// Closes stdin (the daemon drains and exits), waits for the exit, and
  /// kills the process if it has not ended within ten seconds.
  void stop() {
    if (ToChild >= 0)
      close(ToChild);
    ToChild = -1;
    if (Pid > 0) {
      int Status = 0;
      double Deadline = nowMs() + 10000;
      while (waitpid(Pid, &Status, WNOHANG) == 0) {
        if (nowMs() > Deadline) {
          kill(Pid, SIGKILL);
          waitpid(Pid, &Status, 0);
          break;
        }
        usleep(2000);
      }
    }
    Pid = -1;
    if (FromChild >= 0)
      close(FromChild);
    FromChild = -1;
  }

private:
  pid_t Pid = -1;
  int ToChild = -1;
  int FromChild = -1;
  std::string Pending;
  size_t Scanned = 0; // Pending[0, Scanned) holds no newline
};

const pt::json::Value *field(const pt::json::Value &V, const char *Key) {
  return V.isObject() ? V.find(Key) : nullptr;
}

std::string str(const pt::json::Value &V, const char *Key) {
  const pt::json::Value *F = field(V, Key);
  return F && F->isString() ? F->Str : std::string();
}

bool flag(const pt::json::Value &V, const char *Key) {
  const pt::json::Value *F = field(V, Key);
  return F && F->isBool() && F->B;
}

uint64_t number(const pt::json::Value &V, const char *Key) {
  const pt::json::Value *F = field(V, Key);
  uint64_t N = 0;
  return F && F->asU64(N) ? N : 0;
}

/// A degraded answer carries `"degraded":{"from":..,"landed":..}`; a
/// health reply's `"degraded"` is a counter.
bool degraded(const pt::json::Value &V) {
  const pt::json::Value *F = field(V, "degraded");
  return F && F->isObject();
}

pt::json::ParseLimits replyLimits() {
  pt::json::ParseLimits L;
  L.MaxBytes = size_t(1) << 28;
  L.MaxStringBytes = size_t(1) << 24;
  L.MaxValues = size_t(1) << 24;
  return L;
}

struct Request {
  uint64_t Id = 0;
  bool Reload = false;
  std::string Line;
};

/// The record of one answered request: timing, status and a digest of the
/// answer body (`lines`), which holds everything but per-request fields.
/// With \p KeepLines the answer body itself is kept too (record mode).
std::string replyRecord(size_t Index, const Request &Rq, double Sent,
                        double Recv, const std::string &Reply,
                        const pt::json::Value &V, bool KeepLines) {
  const pt::json::Value *Lines = field(V, "lines");
  Digest D;
  std::string Text;
  if (Lines && Lines->isArray())
    for (const pt::json::Value &L : Lines->Arr) {
      D.addBytes(L.Str);
      Text += (Text.empty() ? "\"" : ",\"") + pt::json::escape(L.Str) + "\"";
    }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "{\"type\":\"req\",\"i\":%zu,\"id\":%llu,\"sent\":%.6f,"
                "\"recv\":%.6f,\"bytes\":%zu,",
                Index, static_cast<unsigned long long>(Rq.Id), Sent, Recv,
                Reply.size());
  return std::string(Buf) + "\"ok\":" + (flag(V, "ok") ? "true" : "false") +
         ",\"kind\":\"" + pt::json::escape(str(V, "kind")) +
         "\",\"hit\":" + (flag(V, "cache_hit") ? "true" : "false") +
         ",\"code\":\"" + pt::json::escape(str(V, "code")) +
         "\",\"degraded\":" + (degraded(V) ? "true" : "false") +
         ",\"faulted\":" + (flag(V, "faulted") ? "true" : "false") +
         ",\"epoch\":" + std::to_string(number(V, "epoch")) +
         ",\"lines\":" + D.json() +
         (KeepLines ? ",\"text\":[" + Text + "]}" : "}");
}

} // namespace

int hpbench::runServeClient(int Argc, char **Argv) {
  std::vector<std::string> Cmd;
  auto O = parseOptions(Argc, Argv, &Cmd);
  const uint64_t Window = optU64(O, "window");
  const double TimeoutMs = static_cast<double>(optU64(O, "timeout-ms"));
  const uint64_t Off = 0;
  const uint64_t SetupPerReload = optU64(O, "setup-per-reload", &Off);
  const bool KeepLines = optU64(O, "keep-lines", &Off) != 0;
  if (Cmd.empty() || Window == 0) {
    std::cerr << "hpbench serve-client: need --window and a daemon command "
                 "after --\n";
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<Request> Stream;
  {
    std::ifstream In(O["stream"]);
    std::string Line, Err;
    while (std::getline(In, Line)) {
      pt::json::Value V;
      if (!pt::json::parse(Line, V, Err) || !field(V, "id")) {
        std::cerr << "hpbench serve-client: bad stream line: " << Line << "\n";
        return 2;
      }
      Stream.push_back({number(V, "id"), str(V, "kind") == "reload", Line});
    }
  }
  std::FILE *Out = std::fopen(O["out"].c_str(), "w");
  if (!Out) {
    std::cerr << "hpbench serve-client: cannot write --out\n";
    return 1;
  }

  // Set-up: start to the epoch-loaded first health reply.  It is repeated
  // with K throwaway daemons before every reload, while the measured daemon
  // is idle, so that its median samples the machine across the whole run.
  auto start = [&]() -> std::unique_ptr<Child> {
    double T0 = nowMs();
    auto C = std::make_unique<Child>(Cmd, O["log"]);
    std::string Reply;
    bool Eof = false;
    if (!C->alive() || !C->send("{\"id\":0,\"kind\":\"health\"}") ||
        !C->readLine(Reply, T0 + TimeoutMs, Eof)) {
      std::cerr << "hpbench serve-client: daemon did not answer health\n";
      return nullptr;
    }
    emit(Out, "{\"type\":\"setup\",\"ms\":" + std::to_string(nowMs() - T0) +
                  "}");
    return C;
  };
  std::unique_ptr<Child> D = start();
  if (!D)
    return 1;

  // The stream, closed loop.
  struct Outstanding {
    size_t Index;
    double Sent;
  };
  std::map<uint64_t, Outstanding> Open;
  const pt::json::ParseLimits Limits = replyLimits();
  bool Dead = false;
  auto fail = [&](size_t Index, double Sent, const char *Why) {
    emit(Out, "{\"type\":\"req\",\"i\":" + std::to_string(Index) +
                  ",\"id\":" + std::to_string(Stream[Index].Id) +
                  ",\"sent\":" + std::to_string(Sent) + ",\"error\":\"" +
                  Why + "\"}");
  };
  // Waits for one reply; on a timeout fails the oldest outstanding request.
  auto waitOne = [&] {
    double Oldest = 1e300;
    uint64_t OldestId = 0;
    for (const auto &[Id, Rq] : Open)
      if (Rq.Sent < Oldest) {
        Oldest = Rq.Sent;
        OldestId = Id;
      }
    std::string Reply;
    bool Eof = false;
    if (Dead || !D->readLine(Reply, Oldest + TimeoutMs, Eof)) {
      Dead = Dead || Eof;
      fail(Open[OldestId].Index, Oldest, Dead ? "daemon-exited" : "timeout");
      Open.erase(OldestId);
      return;
    }
    double Recv = nowMs();
    pt::json::Value V;
    std::string Err;
    uint64_t Id = 0;
    if (!pt::json::parse(Reply, V, Err, Limits) || !field(V, "id") ||
        !field(V, "id")->asU64(Id) || !Open.count(Id))
      return; // A late reply to a timed-out request, or noise.
    const Outstanding Rq = Open[Id];
    Open.erase(Id);
    emit(Out, replyRecord(Rq.Index, Stream[Rq.Index], Rq.Sent, Recv, Reply, V,
                          KeepLines));
  };

  for (size_t I = 0; I < Stream.size(); ++I) {
    const Request &Rq = Stream[I];
    while (!Open.empty() && (Rq.Reload || Open.size() >= Window))
      waitOne();
    for (uint64_t Rep = 0; Rq.Reload && Rep < SetupPerReload; ++Rep)
      if (!start())
        return 1;
    double Sent = nowMs();
    if (Dead || !D->send(Rq.Line)) {
      Dead = true;
      fail(I, Sent, "daemon-exited");
      continue;
    }
    Open[Rq.Id] = {I, Sent};
    while (Rq.Reload && Open.count(Rq.Id))
      waitOne();
  }
  while (!Open.empty())
    waitOne();

  emit(Out, "{\"type\":\"rss\",\"peak_kb\":" +
                std::to_string(peakRssKb(std::to_string(D->pid()))) + "}");
  D->stop();
  return std::fclose(Out) == 0 ? 0 : 1;
}
