//===- checks/Cli.h - The shared tool front door ----------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every command-line tool does before and after it solves, written
/// once (docs/DESIGN.md "One run-options path"): walk argv with one
/// message format for missing and bad flag values, parse the shared guard
/// flags straight into \c SolverOptions, load a program from a benchmark
/// name or a PTIR file, instrument it with a taint-spec file, and answer
/// `--why` queries.  It lives in ptchecks because that is the top library
/// below the daemon that hybridpt, hybridpt-lint, hybridpt-serve and the
/// bench harnesses all link.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CHECKS_CLI_H
#define HYBRIDPT_CHECKS_CLI_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

class AnalysisResult;
class ContextPolicy;
class Program;
struct SolverOptions;

namespace prov {
class Recorder;
}

namespace cli {

/// Walks one tool's argv.  A flag whose value is missing or malformed is
/// reported as "<Tool>: ..." naming the flag, and the process exits with
/// the tool's documented usage code before any solve or thread starts.
class Args {
public:
  Args(std::string_view Tool, int Argc, char **Argv, int ExitCode,
       int First = 1)
      : Tool(Tool), Argc(Argc), Argv(Argv), ExitCode(ExitCode), I(First) {}

  /// True while arguments remain.
  bool more() const { return I < Argc; }
  /// The next argument; a flag then reads its value with \c value().
  std::string_view next() { return Flag = Argv[I++]; }
  /// The value of the flag \c next() just returned.
  const char *value();
  /// That value as a decimal integer in [\p Min, \p Max]
  /// (support/ParseInt.h).
  uint64_t number(uint64_t Min = 0, uint64_t Max = UINT64_MAX);
  /// That value, which must be one of \p Allowed; anything else is
  /// reported as "<Tool>: unknown <flag> '<value>' (a, b, ...)".
  const char *choice(std::initializer_list<std::string_view> Allowed);
  /// Consumes the flag just read when it is a guard flag: --budget MS,
  /// --max-facts N and --max-memory-mb N land in \p Solver, --deadline-ms
  /// MS in \p DeadlineMs.  False (nothing consumed) for any other flag.
  bool guard(SolverOptions &Solver, uint64_t &DeadlineMs);

private:
  std::string_view Tool;
  int Argc;
  char **Argv;
  int ExitCode;
  int I;
  std::string_view Flag;
};

/// Splits "a,b,,c" at commas into {"a", "b", "c"} (empty items dropped).
std::vector<std::string> splitCommaList(std::string_view Spec);

/// Loads \p Spec: a built-in benchmark name or a PTIR file.  Null on
/// failure, with one message per problem in \p Errors.
std::unique_ptr<Program> loadProgram(const std::string &Spec,
                                     std::vector<std::string> &Errors);

/// \p P instrumented with the taint-spec file at \p SpecPath
/// (docs/CHECKS.md "Taint analysis").  Null on a bad spec, with one
/// "taint spec error: ..." message per problem in \p Errors.
std::unique_ptr<Program> instrumentTaint(const Program &P,
                                         const std::string &SpecPath,
                                         std::vector<std::string> &Errors);

/// Answers `--why var=Class::method/arity::var,heap=siteName` queries over
/// a run solved with recorder \p Rec: one derivation tree per query on
/// stdout in \p Format (text, json, dot), each re-checked against the
/// Figure-2 side conditions under \p Validate when it is non-null.  The
/// query means "in any context".  Returns 0, or 1 when a query has no
/// derivation or fails validation; a malformed query or one naming no
/// variable or heap site is reported on stderr and stops with 1.
int answerWhy(const std::vector<std::string> &Queries, const Program &P,
              const AnalysisResult &R, const prov::Recorder &Rec,
              std::string_view Format = "text",
              ContextPolicy *Validate = nullptr);

} // namespace cli
} // namespace pt

#endif // HYBRIDPT_CHECKS_CLI_H
