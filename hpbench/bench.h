//===- hpbench/bench.h - Shared helpers of the benchmark -------*- C++ -*-===//
//
// Clock, output digests and record writing shared by the in-process
// workloads (inproc.cpp) and the serve client (client.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef HPBENCH_BENCH_H
#define HPBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hpbench {

/// Milliseconds on the monotonic clock since the first call.
inline double nowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point T0 = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Order-independent digest of a set of rows: the row count plus the sum
/// of a mixed FNV-1a hash of each row.  Solver relations and the Datalog
/// reference emit rows in different orders; a sum needs no sort, so the
/// check allocates nothing beside the solver's own peak.
class Digest {
public:
  void addWords(const uint32_t *W, size_t N) {
    uint64_t H = 1469598103934665603ULL;
    for (size_t I = 0; I < N; ++I)
      for (int B = 0; B < 4; ++B) {
        H ^= (W[I] >> (8 * B)) & 0xff;
        H *= 1099511628211ULL;
      }
    add(H);
  }
  void addWords(const std::vector<uint32_t> &Row) {
    addWords(Row.data(), Row.size());
  }
  void addBytes(std::string_view S) {
    uint64_t H = 1469598103934665603ULL;
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ULL;
    }
    add(H);
  }
  /// `[count,"hex"]`, the form stored in expected.json.
  std::string json() const {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "[%llu,\"%016llx\"]",
                  static_cast<unsigned long long>(Count),
                  static_cast<unsigned long long>(Sum));
    return Buf;
  }

private:
  void add(uint64_t H) {
    // splitmix64 finalizer: spreads FNV's weak low bits before summing.
    H = (H ^ (H >> 30)) * 0xBF58476D1CE4E5B9ULL;
    H = (H ^ (H >> 27)) * 0x94D049BB133111EBULL;
    Sum += H ^ (H >> 31);
    ++Count;
  }
  uint64_t Count = 0;
  uint64_t Sum = 0;
};

/// Digest of one blob (a rendered report), as `[bytes,"hex"]`.
inline std::string blobDigest(std::string_view S) {
  Digest D;
  D.addBytes(S);
  std::string J = D.json();
  return "[" + std::to_string(S.size()) + J.substr(J.find(','));
}

/// Peak resident set of a process in KiB (VmHWM), 0 when unreadable.
uint64_t peakRssKb(const std::string &Pid = "self");

/// `--key value` options after the subcommand; a bare `--` ends them and
/// the rest is returned in \p Rest.  Exits with code 2 on a malformed list.
std::map<std::string, std::string>
parseOptions(int Argc, char **Argv, std::vector<std::string> *Rest = nullptr);

/// Reads an option as an unsigned integer; exits with code 2 when absent
/// (and no default) or malformed.
uint64_t optU64(const std::map<std::string, std::string> &O,
                const std::string &Key, const uint64_t *Default = nullptr);

/// Writes one JSON record line to \p Out.
inline void emit(std::FILE *Out, const std::string &Line) {
  std::fputs(Line.c_str(), Out);
  std::fputc('\n', Out);
}

int runServeClient(int Argc, char **Argv);

} // namespace hpbench

#endif // HPBENCH_BENCH_H
