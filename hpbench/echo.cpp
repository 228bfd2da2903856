//===- hpbench/echo.cpp - Echo stub for the serve client --------*- C++ -*-===//
//
// Answers each NDJSON request line at once with a reply of the size the
// request names in "reply_bytes" (the size the real daemon's reply had when
// the expected answers were recorded).  Driving it with the same stream and
// window as the daemon measures the client's own cost per request, the
// floor under every daemon latency.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace {

/// The unsigned integer following `"Key":` in \p Line, or 0.
unsigned long long numberAfter(const std::string &Line, const char *Key) {
  size_t At = Line.find(Key);
  return At == std::string::npos
             ? 0
             : std::strtoull(Line.c_str() + At + std::strlen(Key), nullptr,
                             10);
}

} // namespace

int main() {
  std::ios::sync_with_stdio(false);
  std::string Line;
  while (std::getline(std::cin, Line)) {
    const unsigned long long Id = numberAfter(Line, "\"id\":");
    const unsigned long long Want = numberAfter(Line, "\"reply_bytes\":");
    std::string Reply = "{\"id\":" + std::to_string(Id) +
                        ",\"ok\":true,\"kind\":\"echo\",\"pad\":\"";
    if (Reply.size() + 2 < Want)
      Reply.append(Want - Reply.size() - 2, 'x');
    Reply += "\"}\n";
    std::fwrite(Reply.data(), 1, Reply.size(), stdout);
    std::fflush(stdout);
  }
  return 0;
}
