//===- tools/hybridpt.cpp - Command-line driver ----------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line front door: analyze a PTIR file (or a built-in
/// benchmark) under any policy and emit metrics, client reports, or raw
/// relations.
///
///   hybridpt --list-policies
///   hybridpt --list-benchmarks
///   hybridpt [options] <file.ptir | benchmark-name>
///   hybridpt explain [options] --why var=...,heap=... <input>
///
/// Options:
///   --policy NAME      analysis to run (default S-2obj+H)
///   --metrics          print the Table 1 metric block (default action)
///   --devirt           print the devirtualization report
///   --casts            print the cast-safety report
///   --dump-vpt PATH    print what Class::method/arity::var points to
///   --dump-facts DIR   write all relations as Doop-style .facts files
///   --stats            context/points-to distribution report
///   --dot-callgraph F  write the call graph as GraphViz DOT to file F
///   --dot-pointsto M   print method M's points-to neighbourhood as DOT
///   --compare NAME     also run NAME and print the precision delta
///   --budget MS        per-run time budget (0 = unlimited)
///   --max-facts N      per-run fact budget (0 = unlimited)
///   --max-memory-mb N  per-run solver memory budget (0 = unlimited)
///   --deadline-ms MS   whole-process deadline; expiry cancels cleanly
///   --matrix           run the full Table 1 policy matrix instead of one
///   --threads N        workers for --matrix (0 = hardware concurrency)
///   --taint-spec FILE  instrument the program with the taint spec before
///                      solving (docs/CHECKS.md "Taint analysis"); the
///                      metric block then reports tainted sinks
///   --csv              machine-readable metric output
///
/// Graceful degradation (docs/ROBUSTNESS.md):
///   --ladder           on a resource-budget abort, re-run successively
///                      coarser policies until one converges
///   --ladder-rungs L   comma-separated explicit rungs tried after the
///                      requested policy (default: derived ladder)
///
/// ^C cancels cooperatively: the run stops at the next guard poll and
/// still reports, flushes traces, and exits cleanly (second ^C kills).
///
/// Observability (docs/OBSERVABILITY.md):
///   --trace-out FILE     stream JSONL telemetry (spans + heartbeats)
///   --chrome-trace FILE  write a Chrome trace-event timeline on exit
///   --progress           mirror heartbeats to stderr while solving
///   --explain-abort      on budget expiry, print the last heartbeat and
///                        the hottest rule counters to stderr
///   --heartbeat-steps N  heartbeat every N worklist steps (default 65536)
///   --heartbeat-ms MS    ...or every MS milliseconds (default 250)
///
/// Provenance (docs/OBSERVABILITY.md, "Provenance & explanation"):
///   --provenance         record per-fact derivation steps while solving
///   --why var=Q,heap=N   derive why variable Q (Class::method/arity::var)
///                        may point to an object allocated at heap site N;
///                        repeatable; implies --provenance
///   --format F           derivation rendering: text (default), json, dot
///   --blame K            print the top-K cost-attribution profile
///   --validate           re-check every derivation step against the
///                        Figure-2 side conditions (exit 1 on failure)
///   --profile-out FILE   write the blame profile as JSON to FILE
///
/// `hybridpt explain ...` is shorthand for a provenance-enabled run whose
/// only outputs are the --why/--blame answers (no metric block).
///
//===----------------------------------------------------------------------===//

#include "checks/Cli.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/Degrade.h"
#include "pta/Explain.h"
#include "pta/DotExport.h"
#include "pta/FactWriter.h"
#include "pta/Stats.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "pta/Trace.h"
#include "pta/VariantRunner.h"
#include "support/Cancel.h"
#include "support/TableWriter.h"
#include "support/ThreadPool.h"
#include "workloads/Profiles.h"

#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>

using namespace pt;

namespace {

struct CliOptions {
  std::string Policy = "S-2obj+H";
  std::string Compare;
  std::string Input;
  std::string FactsDir;
  std::string CallGraphDotPath;
  std::string PointsToDotFocus;
  std::vector<std::string> DumpVars;
  /// Guards, heartbeat cadence and the derivation recorder (owned by
  /// main(); null when provenance is off) of every run.
  SolverOptions Solver;
  uint64_t DeadlineMs = 0;
  bool Ladder = false;
  std::vector<std::string> LadderRungs;
  unsigned Threads = 1;
  bool Matrix = false;
  bool Metrics = false;
  std::string TaintSpecPath;
  bool Stats = false;
  bool Devirt = false;
  bool Casts = false;
  bool Csv = false;
  std::string TraceOut;
  std::string ChromeTraceOut;
  bool Progress = false;
  bool ExplainAbort = false;
  /// Provenance mode (hybridpt explain / --provenance / --why / --blame).
  bool Explain = false;
  bool Provenance = false;
  std::vector<std::string> WhyQueries;
  std::string WhyFormat = "text";
  size_t BlameTopK = 0;
  bool ValidateWhy = false;
  std::string ProfileOut;

  bool wantsProvenance() const {
    return Provenance || Explain || !WhyQueries.empty() || BlameTopK != 0 ||
           !ProfileOut.empty();
  }

  bool wantsTrace() const {
    return !TraceOut.empty() || !ChromeTraceOut.empty() || Progress ||
           ExplainAbort;
  }
};

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0
      << " [--policy NAME] [--metrics] [--devirt] [--casts]\n"
         "       [--dump-vpt Class::method/arity::var] [--compare NAME]\n"
         "       [--budget MS] [--max-facts N] [--max-memory-mb N]\n"
         "       [--deadline-ms MS] [--ladder] [--ladder-rungs A,B,...]\n"
         "       [--matrix] [--threads N]\n"
         "       [--taint-spec FILE]\n"
         "       [--csv] [--trace-out FILE] [--chrome-trace FILE]\n"
         "       [--progress] [--explain-abort] [--heartbeat-steps N]\n"
         "       [--heartbeat-ms MS] [--provenance]\n"
         "       [--why var=PATH,heap=NAME] [--format text|json|dot]\n"
         "       [--blame K] [--validate] [--profile-out FILE]\n"
         "       <file.ptir | benchmark-name>\n"
         "       " << Argv0
      << " explain [options] --why var=...,heap=... <input>\n"
         "       " << Argv0 << " --list-policies | --list-benchmarks\n";
  return 1;
}

/// --explain-abort: last-known solver state for one label, from the
/// heartbeat trail (useful exactly when the normal metrics are dashes).
void explainAbort(trace::TraceRecorder &Rec, const std::string &Label) {
  trace::Heartbeat HB;
  if (!Rec.lastHeartbeat(Label, HB)) {
    std::cerr << "[abort] " << Label
              << ": no heartbeat recorded (run was too short or telemetry "
                 "is compiled out)\n";
    return;
  }
  std::cerr << "[abort] " << Label << ": last heartbeat at t="
            << formatFixed(HB.TMs / 1000.0, 3) << "s step=" << HB.Step
            << " worklist=" << HB.WorklistDepth << " nodes=" << HB.Nodes
            << " facts=" << HB.Facts << " mem="
            << formatFixed(static_cast<double>(HB.MemoryBytes) / 1e6, 1)
            << "MB\n";
  std::cerr << "[abort] " << Label << ": hottest rules:";
  for (const auto &[Name, Fires] : telemetry::topRuleCounters(HB.Totals, 3))
    std::cerr << " " << Name << "=" << Fires;
  std::cerr << "\n";
}

/// Writes the Chrome trace on the way out, when requested.
void finishTrace(trace::TraceRecorder *Rec, const CliOptions &Cli) {
  if (!Rec || Cli.ChromeTraceOut.empty())
    return;
  std::string Error;
  if (!Rec->writeChromeTrace(Cli.ChromeTraceOut, Error))
    std::cerr << "chrome trace: " << Error << "\n";
}

SolverOptions solverOptions(const CliOptions &Cli, trace::TraceRecorder *Rec,
                            const CancelToken *Cancel) {
  SolverOptions Opts = Cli.Solver;
  Opts.Cancel = Cancel;
  Opts.Trace = Rec;
  return Opts;
}

void printBlameText(const prov::BlameReport &B) {
  std::cout << "cost attribution: " << B.TotalSteps << " derivation steps, "
            << B.TotalFacts << " facts, " << B.ArenaBytes
            << " arena bytes\n";
  auto Section = [](const char *Title, const std::vector<prov::BlameRow> &Rows) {
    std::cout << "  " << Title << ":\n";
    for (const prov::BlameRow &Row : Rows)
      std::cout << "    " << Row.Key << "  steps=" << Row.Steps
                << " bytes=" << Row.Bytes << "\n";
  };
  Section("by rule", B.ByRule);
  Section("by method", B.ByMethod);
  Section("by alloc site", B.ByAllocSite);
  Section("by ctx depth", B.ByCtxDepth);
}

/// Answers every --why query and the --blame/--profile-out requests over a
/// finished provenance-enabled run.  Returns the process exit code.
int runProvenanceQueries(const Program &P, const AnalysisResult &R,
                         ContextPolicy *Policy, const CliOptions &Cli) {
  prov::Recorder &Rec = *Cli.Solver.Prov;
  int Exit = cli::answerWhy(Cli.WhyQueries, P, R, Rec, Cli.WhyFormat,
                            Cli.ValidateWhy ? Policy : nullptr);
  if (Cli.BlameTopK != 0) {
    prov::BlameReport B = prov::blame(Rec, R, Cli.BlameTopK);
    if (Cli.WhyFormat == "json")
      std::cout << prov::renderBlameJson(B) << "\n";
    else
      printBlameText(B);
  }
  if (!Cli.ProfileOut.empty()) {
    size_t TopK = Cli.BlameTopK != 0 ? Cli.BlameTopK : 10;
    std::ofstream OS(Cli.ProfileOut);
    if (!OS) {
      std::cerr << "cannot write '" << Cli.ProfileOut << "'\n";
      return 1;
    }
    OS << prov::renderBlameJson(prov::blame(Rec, R, TopK)) << "\n";
    std::cout << "wrote profile to " << Cli.ProfileOut << "\n";
  }
  return Exit;
}

/// One analysis run plus whatever keeps its result valid.  With --ladder
/// the landed policy may be coarser than the requested one.
struct RunOutcome {
  std::optional<AnalysisResult> R;
  std::unique_ptr<ContextPolicy> Policy;
  std::string LandedPolicy;
  std::string FallbackFrom;
};

RunOutcome analyze(const Program &P, const std::string &PolicyName,
                   const CliOptions &Cli, trace::TraceRecorder *Rec,
                   const std::string &Label, const CancelToken *Cancel) {
  SolverOptions Opts = solverOptions(Cli, Rec, Cancel);
  Opts.TraceLabel = Label;
  trace::TraceRecorder::Span SolveSpan(Rec, Label, "cell");
  RunOutcome Out;
  if (Cli.Ladder) {
    LadderOptions LOpts;
    LOpts.Rungs = Cli.LadderRungs;
    LadderResult LR = solveWithLadder(P, PolicyName, Opts, LOpts);
    if (!LR.Result) {
      std::cerr << LR.Error << " (see --list-policies)\n";
      return Out;
    }
    if (LR.degraded())
      std::cerr << "[ladder] " << PolicyName << " exhausted its budget; "
                << "reporting " << LR.LandedPolicy << " instead\n";
    Out.Policy = std::move(LR.Policy);
    Out.R = std::move(LR.Result);
    Out.LandedPolicy = LR.LandedPolicy;
    Out.FallbackFrom = LR.FallbackFrom;
    return Out;
  }
  Out.Policy = createPolicy(PolicyName, P);
  if (!Out.Policy) {
    std::cerr << "unknown policy '" << PolicyName
              << "' (see --list-policies)\n";
    return Out;
  }
  Out.R.emplace(solveProgram(P, *Out.Policy, Opts));
  Out.LandedPolicy = PolicyName;
  return Out;
}

/// --matrix: all Table 1 policies, fanned out over the worker pool.
int runMatrix(const Program &P, const CliOptions &Cli,
              trace::TraceRecorder *Rec, const CancelToken *Cancel) {
  const std::vector<std::string> &Policies = table1PolicyNames();
  MatrixOptions MOpts;
  MOpts.Solver = solverOptions(Cli, Rec, Cancel);
  // Cells run concurrently and each is its own run; a recorder shared
  // across them would mix per-run object ids.  The matrix path instead
  // asks the runner for per-cell profiles.
  MOpts.Solver.Prov = nullptr;
  MOpts.Profile = !Cli.ProfileOut.empty();
  if (Cli.BlameTopK != 0)
    MOpts.ProfileTopK = Cli.BlameTopK;
  MOpts.Threads = Cli.Threads;
  MOpts.TraceLabelPrefix = Cli.Input + "/";
  MOpts.UseLadder = Cli.Ladder;
  MOpts.LadderRungs = Cli.LadderRungs;
  std::vector<PrecisionMetrics> Cells = runVariantMatrix(P, Policies, MOpts);

  TableWriter T;
  T.setHeader({"analysis", "avg_objs_per_var", "cg_edges", "poly_vcalls",
               "may_fail_casts", "reachable_methods", "time_s",
               "cs_vpt_facts", "peak_bytes"});
  size_t Degraded = 0;
  for (size_t I = 0; I < Policies.size(); ++I) {
    const PrecisionMetrics &M = Cells[I];
    std::string Name = Policies[I];
    if (!M.FallbackFrom.empty()) {
      Name += ">" + M.LandedPolicy; // Degraded cell: the landed rung.
      ++Degraded;
    }
    T.addRow({Name,
              M.Aborted ? "-" : formatFixed(M.AvgPointsTo, 2),
              M.Aborted ? "-" : std::to_string(M.CallGraphEdges),
              M.Aborted ? "-" : std::to_string(M.PolyVCalls),
              M.Aborted ? "-" : std::to_string(M.MayFailCasts),
              M.Aborted ? "-" : std::to_string(M.ReachableMethods),
              M.Aborted ? "-" : formatFixed(M.SolveMs / 1000.0, 3),
              M.Aborted ? "-" : std::to_string(M.CsVarPointsTo),
              std::to_string(M.PeakBytes)});
    if (M.Aborted && Cli.ExplainAbort && Rec)
      explainAbort(*Rec, MOpts.TraceLabelPrefix + Policies[I]);
  }
  if (Cli.Csv)
    T.printCsv(std::cout);
  else
    T.print(std::cout);
  if (Degraded != 0 && !Cli.Csv)
    std::cout << Degraded << " cell(s) degraded via the fallback ladder "
              << "('requested>landed'); metrics describe the landed "
              << "policy.\n";
  if (!Cli.ProfileOut.empty()) {
    std::ofstream OS(Cli.ProfileOut);
    if (!OS) {
      std::cerr << "cannot write '" << Cli.ProfileOut << "'\n";
      return 1;
    }
    OS << "{\"harness\": \"hybridpt-matrix\", \"benchmark\": \""
       << Cli.Input << "\", \"cells\": [";
    bool First = true;
    for (size_t I = 0; I < Policies.size(); ++I) {
      if (Cells[I].ProfileJson.empty())
        continue;
      OS << (First ? "" : ",") << "\n  {\"policy\": \"" << Policies[I]
         << "\", \"profile\": " << Cells[I].ProfileJson << "}";
      First = false;
    }
    OS << "\n]}\n";
    std::cout << "wrote per-cell profiles to " << Cli.ProfileOut << "\n";
  }
  finishTrace(Rec, Cli);
  return 0;
}

void printMetrics(const PrecisionMetrics &M, const std::string &Policy,
                  bool Csv, bool Taint) {
  if (Csv) {
    // Shared with the daemon's callgraph answers (pta/Metrics.h) so the
    // two front doors cannot drift apart.
    std::cout << metricsCsvHeader(Taint) << "\n"
              << metricsCsvRow(M, Policy, Taint) << "\n";
    return;
  }
  std::cout << "analysis:                " << Policy
            << (M.Aborted
                    ? std::string("  (ABORTED: ") + abortReasonName(M.Reason) +
                          ")"
                    : std::string())
            << "\n"
            << "avg objs per var:        " << formatFixed(M.AvgPointsTo, 2)
            << "\n"
            << "call-graph edges:        " << M.CallGraphEdges << "\n"
            << "poly v-calls:            " << M.PolyVCalls << " of "
            << M.ReachableVCalls << "\n"
            << "may-fail casts:          " << M.MayFailCasts << " of "
            << M.ReachableCasts << "\n"
            << "reachable methods:       " << M.ReachableMethods << "\n"
            << "elapsed time:            "
            << formatFixed(M.SolveMs / 1000.0, 3) << " s\n"
            << "sensitive var-points-to: " << M.CsVarPointsTo << "\n"
            << "field points-to:         " << M.FieldPointsTo << " (+ "
            << M.StaticFieldPointsTo << " static)\n"
            << "contexts / heap ctxs:    " << M.NumContexts << " / "
            << M.NumHContexts << "\n"
            << "method-throws facts:     " << M.ThrowFacts << " ("
            << M.UncaughtExceptionSites << " sites escape main)\n";
  if (Taint)
    std::cout << "tainted sinks:           " << M.TaintedSinks << "\n";
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  int FirstArg = 1;
  if (argc > 1 && std::strcmp(argv[1], "explain") == 0) {
    Opts.Explain = true;
    FirstArg = 2;
  }
  cli::Args Args("hybridpt", argc, argv, 1, FirstArg);
  while (Args.more()) {
    std::string_view Arg = Args.next();
    if (Args.guard(Opts.Solver, Opts.DeadlineMs))
      continue;
    if (Arg == "--list-policies") {
      for (const std::string &N : allPolicyNames())
        std::cout << N << "\n";
      return 0;
    }
    if (Arg == "--list-benchmarks") {
      for (const std::string &N : benchmarkNames())
        std::cout << N << "\n";
      return 0;
    }
    if (Arg == "--policy")
      Opts.Policy = Args.value();
    else if (Arg == "--compare")
      Opts.Compare = Args.value();
    else if (Arg == "--dump-vpt")
      Opts.DumpVars.push_back(Args.value());
    else if (Arg == "--dump-facts")
      Opts.FactsDir = Args.value();
    else if (Arg == "--dot-callgraph")
      Opts.CallGraphDotPath = Args.value();
    else if (Arg == "--dot-pointsto")
      Opts.PointsToDotFocus = Args.value();
    else if (Arg == "--ladder")
      Opts.Ladder = true;
    else if (Arg == "--ladder-rungs") {
      Opts.Ladder = true;
      Opts.LadderRungs = cli::splitCommaList(Args.value());
    } else if (Arg == "--threads")
      // 0 = one worker per hardware thread, resolved through the one
      // shared rule so every tool agrees (docs/PERF.md).
      Opts.Threads =
          resolveThreads(static_cast<unsigned>(Args.number(0, UINT_MAX)));
    else if (Arg == "--taint-spec")
      Opts.TaintSpecPath = Args.value();
    else if (Arg == "--matrix")
      Opts.Matrix = true;
    else if (Arg == "--metrics")
      Opts.Metrics = true;
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (Arg == "--devirt")
      Opts.Devirt = true;
    else if (Arg == "--casts")
      Opts.Casts = true;
    else if (Arg == "--csv")
      Opts.Csv = true;
    else if (Arg == "--trace-out")
      Opts.TraceOut = Args.value();
    else if (Arg == "--chrome-trace")
      Opts.ChromeTraceOut = Args.value();
    else if (Arg == "--progress")
      Opts.Progress = true;
    else if (Arg == "--explain-abort")
      Opts.ExplainAbort = true;
    else if (Arg == "--heartbeat-steps")
      Opts.Solver.HeartbeatSteps = Args.number();
    else if (Arg == "--heartbeat-ms")
      Opts.Solver.HeartbeatMs = Args.number();
    else if (Arg == "--provenance")
      Opts.Provenance = true;
    else if (Arg == "--why")
      Opts.WhyQueries.push_back(Args.value());
    else if (Arg == "--format") {
      Opts.WhyFormat = Args.value();
      if (Opts.WhyFormat != "text" && Opts.WhyFormat != "json" &&
          Opts.WhyFormat != "dot") {
        std::cerr << "unknown --format '" << Opts.WhyFormat
                  << "' (text, json, dot)\n";
        return 1;
      }
    } else if (Arg == "--blame")
      Opts.BlameTopK = Args.number(0, SIZE_MAX);
    else if (Arg == "--validate")
      Opts.ValidateWhy = true;
    else if (Arg == "--profile-out")
      Opts.ProfileOut = Args.value();
    else if (Arg.starts_with("--"))
      return usage(argv[0]);
    else if (Opts.Input.empty())
      Opts.Input = Arg;
    else
      return usage(argv[0]);
  }
  if (Opts.Input.empty())
    return usage(argv[0]);
  if (Opts.Explain && Opts.WhyQueries.empty() && Opts.BlameTopK == 0 &&
      Opts.ProfileOut.empty()) {
    std::cerr << "explain needs --why, --blame, or --profile-out\n";
    return usage(argv[0]);
  }
  if (!Opts.Explain && !Opts.Metrics && !Opts.Devirt && !Opts.Casts &&
      !Opts.Stats && !Opts.Matrix && Opts.DumpVars.empty() &&
      Opts.Compare.empty() && Opts.FactsDir.empty() &&
      Opts.CallGraphDotPath.empty() && Opts.PointsToDotFocus.empty() &&
      Opts.WhyQueries.empty() && Opts.BlameTopK == 0 &&
      Opts.ProfileOut.empty())
    Opts.Metrics = true;

  // The derivation recorder outlives the analysis so the queries below can
  // read it; a null pointer keeps every solver hook a dead branch.
  prov::Recorder ProvRec;
  if (Opts.wantsProvenance()) {
#if !HYBRIDPT_PROVENANCE_ENABLED
    std::cerr << "this build has provenance compiled out "
                 "(HYBRIDPT_PROVENANCE=0)\n";
    return 1;
#endif
    Opts.Solver.Prov = &ProvRec;
  }

  // Cooperative cancellation: ^C (or the --deadline-ms expiry) trips the
  // token, the solver aborts at its next guard poll, and the run still
  // reports partial results and flushes its traces.  SIGINT is installed
  // with SA_RESETHAND, so a second ^C kills the process the normal way.
  static CancelToken Cancel;
  installSigintCancel(Cancel);
  if (Opts.DeadlineMs != 0)
    Cancel.setDeadlineMs(Opts.DeadlineMs);

  // Observability sink: one recorder for the whole invocation.
  std::unique_ptr<trace::TraceRecorder> Rec;
  if (Opts.wantsTrace()) {
    Rec = std::make_unique<trace::TraceRecorder>();
    if (!Opts.TraceOut.empty()) {
      std::string Error;
      if (!Rec->openJsonl(Opts.TraceOut, Error)) {
        std::cerr << Error << "\n";
        return 1;
      }
    }
    if (Opts.Progress)
      Rec->enableProgress(std::cerr);
  }

  // Load the program.  --taint-spec instruments it before solving, so
  // every downstream consumer (metrics, clients, provenance, --matrix)
  // sees the taint objects.
  std::vector<std::string> Errors;
  std::unique_ptr<Program> Prog;
  {
    trace::TraceRecorder::Span ParseSpan(Rec.get(), "parse", "phase");
    Prog = cli::loadProgram(Opts.Input, Errors);
  }
  if (Prog && !Opts.TaintSpecPath.empty())
    Prog = cli::instrumentTaint(*Prog, Opts.TaintSpecPath, Errors);
  if (!Prog) {
    for (const std::string &E : Errors)
      std::cerr << E << "\n";
    return 1;
  }
  const Program *P = Prog.get();

  if (Opts.Matrix)
    return runMatrix(*P, Opts, Rec.get(), &Cancel);

  const std::string CellLabel = Opts.Input + "/" + Opts.Policy;
  RunOutcome Main =
      analyze(*P, Opts.Policy, Opts, Rec.get(), CellLabel, &Cancel);
  if (!Main.R) {
    finishTrace(Rec.get(), Opts);
    return 1;
  }
  AnalysisResult &R = *Main.R;
  if (R.Aborted) {
    std::cerr << "[abort] " << CellLabel << ": " << abortReasonName(R.Reason)
              << (R.FaultInjected ? " (injected)" : "") << "\n";
    if (Opts.ExplainAbort && Rec)
      explainAbort(*Rec, CellLabel);
  }

  // Metrics are labeled with the landed policy: under --ladder it may be
  // a coarser rung than the one requested.
  std::string MetricsLabel = Main.LandedPolicy;
  if (!Main.FallbackFrom.empty())
    MetricsLabel += " (fallback from " + Main.FallbackFrom + ")";
  if (Opts.Metrics)
    printMetrics(computeMetrics(R), MetricsLabel, Opts.Csv,
                 !Opts.TaintSpecPath.empty());

  if (Opts.Stats)
    std::cout << "\n" << formatStats(computeStats(R), *P);

  if (Opts.Devirt) {
    auto Sites = devirtualizeCalls(R);
    size_t Mono = 0, Poly = 0, Dead = 0;
    for (const DevirtSite &S : Sites) {
      Mono += S.Verdict == DevirtVerdict::Monomorphic;
      Poly += S.Verdict == DevirtVerdict::Polymorphic;
      Dead += S.Verdict == DevirtVerdict::Dead;
    }
    std::cout << "\ndevirtualization: " << Mono << " mono, " << Poly
              << " poly, " << Dead << " dead\n";
    for (const DevirtSite &S : Sites) {
      if (S.Verdict != DevirtVerdict::Polymorphic)
        continue;
      const InvokeInfo &Call = P->invoke(S.Invo);
      std::cout << "  poly " << P->text(Call.Name) << " in "
                << P->qualifiedName(Call.InMethod) << " ("
                << S.Targets.size() << " targets)\n";
    }
  }

  if (Opts.Casts) {
    auto Checks = checkCasts(R);
    size_t Fail = 0;
    for (const CastCheck &C : Checks)
      Fail += C.Verdict == CastVerdict::MayFail;
    std::cout << "\ncasts: " << Fail << " may fail of " << Checks.size()
              << "\n";
    for (const CastCheck &C : Checks) {
      if (C.Verdict != CastVerdict::MayFail)
        continue;
      const CastSite &Site = P->castSite(C.Site);
      std::cout << "  (" << P->text(P->type(Site.Target).Name) << ") in "
                << P->qualifiedName(Site.InMethod) << "\n";
    }
  }

  for (const std::string &Path : Opts.DumpVars) {
    VarId V = findVarByPath(*P, Path);
    if (!V.isValid()) {
      std::cerr << "no variable '" << Path << "'\n";
      continue;
    }
    std::cout << "\n" << Path << " points to:\n";
    for (HeapId H : R.pointsTo(V))
      std::cout << "  " << P->text(P->heap(H).Name) << " : "
                << P->text(P->type(P->heap(H).Type).Name) << "\n";
  }

  if (!Opts.FactsDir.empty()) {
    std::string Error;
    auto Files = writeFacts(R, Opts.FactsDir, Error);
    if (Files.empty()) {
      std::cerr << Error << "\n";
      return 1;
    }
    std::cout << "\nwrote " << Files.size() << " relation files to "
              << Opts.FactsDir << "\n";
  }

  if (!Opts.CallGraphDotPath.empty()) {
    std::ofstream OS(Opts.CallGraphDotPath);
    if (!OS) {
      std::cerr << "cannot write '" << Opts.CallGraphDotPath << "'\n";
      return 1;
    }
    writeCallGraphDot(R, OS);
    std::cout << "\nwrote call graph to " << Opts.CallGraphDotPath
              << "\n";
  }

  if (!Opts.PointsToDotFocus.empty()) {
    MethodId Focus = findMethodByPath(*P, Opts.PointsToDotFocus);
    if (!Focus.isValid()) {
      std::cerr << "no method '" << Opts.PointsToDotFocus << "'\n";
      return 1;
    }
    writePointsToDot(R, Focus, std::cout);
  }

  if (!Opts.Compare.empty()) {
    // The comparison run must not record into the main run's arena: fact
    // payloads embed per-run dense object ids.
    CliOptions OtherOpts = Opts;
    OtherOpts.Solver.Prov = nullptr;
    RunOutcome Other = analyze(*P, Opts.Compare, OtherOpts, Rec.get(),
                               Opts.Input + "/" + Opts.Compare, &Cancel);
    if (!Other.R) {
      finishTrace(Rec.get(), Opts);
      return 1;
    }
    std::cout << "\n--- delta " << Main.LandedPolicy << " -> "
              << Other.LandedPolicy << " ---\n"
              << formatDelta(diffResults(R, *Other.R), *P);
  }

  int ExitCode = 0;
  if (Opts.Solver.Prov)
    ExitCode = runProvenanceQueries(*P, R, Main.Policy.get(), Opts);
  finishTrace(Rec.get(), Opts);
  return ExitCode;
}
