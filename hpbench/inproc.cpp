//===- hpbench/inproc.cpp - In-process benchmark workloads ------*- C++ -*-===//
//
// Times, from outside, the public calls of each analysis module on the
// benchmark's in-process workloads, and records every unit's outputs as
// digests for run.py to check.  Subcommands:
//
//   batch       uniform-heavy or selective-lint: whole passes over the
//               workload's fixed unit list, each after set-up repetitions
//   reference   one (program, policy[, taint spec]) cell through the
//               Datalog reference and the solver; prints the digests the
//               batch checks compare against (record mode)
//   scan-specs  synthetic taint-spec seeds whose taint reaches a sink
//   prep        builds and prints a program to PTIR for the daemon
//   serve-client  closed-loop NDJSON client (client.cpp)
//
// Output is one JSON record per line in --out; run.py turns it into
// metrics.  With --trace 1 every timed call is wrapped in a span (name,
// start, end, parent, unit) kept in memory and written when the run ends.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "checks/Driver.h"
#include "checks/Sarif.h"
#include "context/ContextTable.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/Metrics.h"
#include "pta/Projection.h"
#include "pta/Solver.h"
#include "ptaref/ReferenceAnalysis.h"
#include "taint/Taint.h"
#include "workloads/Profiles.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <tuple>

using namespace pt;
using namespace hpbench;

namespace hpbench {

uint64_t peakRssKb(const std::string &Pid) {
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  return 0;
}

std::map<std::string, std::string>
parseOptions(int Argc, char **Argv, std::vector<std::string> *Rest) {
  std::map<std::string, std::string> Out;
  for (int I = 0; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key == "--" && Rest) {
      Rest->assign(Argv + I + 1, Argv + Argc);
      break;
    }
    if (Key.rfind("--", 0) != 0 || I + 1 >= Argc) {
      std::cerr << "hpbench: expected --option value, got '" << Key << "'\n";
      std::exit(2);
    }
    Out[Key.substr(2)] = Argv[++I];
  }
  return Out;
}

uint64_t optU64(const std::map<std::string, std::string> &O,
                const std::string &Key, const uint64_t *Default) {
  auto It = O.find(Key);
  if (It == O.end()) {
    if (Default)
      return *Default;
    std::cerr << "hpbench: missing --" << Key << "\n";
    std::exit(2);
  }
  char *End = nullptr;
  uint64_t V = std::strtoull(It->second.c_str(), &End, 10);
  if (It->second.empty() || *End != '\0') {
    std::cerr << "hpbench: --" << Key << " wants a whole number\n";
    std::exit(2);
  }
  return V;
}

} // namespace hpbench

namespace {

// --- Spans -----------------------------------------------------------------

struct Span {
  const char *Name;
  double Start = 0, End = 0;
  int Parent = -1;
  int Unit = -1;
};

/// In-memory span recorder; a no-op unless switched on for a traced pass.
struct Tracer {
  bool On = false;
  int Unit = -1;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};
Tracer Trace;

struct Scope {
  int Idx = -1;
  explicit Scope(const char *Name) {
    if (!Trace.On)
      return;
    Idx = static_cast<int>(Trace.Spans.size());
    Trace.Spans.push_back({Name, nowMs(), 0, Trace.Stack.empty()
                                                ? -1
                                                : Trace.Stack.back(),
                           Trace.Unit});
    Trace.Stack.push_back(Idx);
  }
  ~Scope() {
    if (Idx < 0)
      return;
    Trace.Spans[Idx].End = nowMs();
    Trace.Stack.pop_back();
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
};

template <typename Fn> auto span(const char *Name, Fn &&F) {
  Scope S(Name);
  return F();
}

void writeSpans(std::FILE *Out) {
  for (size_t I = 0; I < Trace.Spans.size(); ++I) {
    const Span &S = Trace.Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"type\":\"span\",\"id\":%zu,\"name\":\"%s\","
                  "\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"unit\":%d}",
                  I, S.Name, S.Start, S.End, S.Parent, S.Unit);
    emit(Out, Buf);
  }
}

// --- Output digests --------------------------------------------------------

/// Context-sensitive var-points-to, in the row format of
/// AnalysisResult::exportVarPointsTo, streamed without materializing it.
std::string vptDigest(const AnalysisResult &R) {
  Digest D;
  std::vector<uint32_t> Row;
  const auto &Ctxs = R.policy().ctxTable();
  const auto &HCtxs = R.policy().hctxTable();
  for (const auto &E : R.VarFacts)
    for (uint32_t Obj : E.Objs) {
      Row.clear();
      Row.push_back(E.Var.index());
      appendCanonicalContext(Ctxs, E.Ctx, Row);
      Row.push_back(R.objHeap(Obj).index());
      appendCanonicalContext(HCtxs, R.objHCtx(Obj), Row);
      D.addWords(Row);
    }
  return D.json();
}

std::string pairDigest(std::vector<std::pair<uint32_t, uint32_t>> Pairs) {
  std::sort(Pairs.begin(), Pairs.end());
  Pairs.erase(std::unique(Pairs.begin(), Pairs.end()), Pairs.end());
  Digest D;
  for (const auto &[A, B] : Pairs) {
    uint32_t W[2] = {A, B};
    D.addWords(W, 2);
  }
  return D.json();
}

std::string idDigest(std::vector<uint32_t> Ids) {
  std::sort(Ids.begin(), Ids.end());
  Ids.erase(std::unique(Ids.begin(), Ids.end()), Ids.end());
  Digest D;
  for (uint32_t Id : Ids)
    D.addWords(&Id, 1);
  return D.json();
}

/// Context-insensitive call edges (invoke, callee).
std::string cgDigest(const AnalysisResult &R) {
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  Pairs.reserve(R.CallEdges.size());
  for (const CallGraphEdge &E : R.CallEdges)
    Pairs.emplace_back(E.Invo.index(), E.Callee.index());
  return pairDigest(std::move(Pairs));
}

std::string reachDigest(const AnalysisResult &R) {
  std::vector<uint32_t> Ids;
  Ids.reserve(R.Reachable.size());
  for (const auto &[M, Ctx] : R.Reachable)
    Ids.push_back(M.index());
  return idDigest(std::move(Ids));
}

std::string factDigests(const AnalysisResult &R) {
  return "\"vpt\":" + vptDigest(R) + ",\"cg\":" + cgDigest(R) +
         ",\"reach\":" + reachDigest(R) +
         ",\"aborted\":" + (R.Aborted ? "true" : "false");
}

std::string sinkDigest(const std::vector<taint::TaintedSink> &Sinks) {
  Digest D;
  for (const taint::TaintedSink &S : Sinks) {
    uint32_t W[3] = {S.Site.index(), S.ArgIdx, S.TagIdx};
    D.addWords(W, 3);
  }
  return D.json();
}

// --- Per-unit counts -------------------------------------------------------

/// Exact counts of one unit, summed over its solves; run.py sums them per
/// pass for the per-layer report.
struct Counts {
  std::map<std::string, uint64_t> V;

  void addSolve(const AnalysisResult &R) {
    const telemetry::SolverCounters &C = R.Counters;
    V["pta.worklist_steps"] += C.WorklistSteps;
    V["pta.facts_inserted"] += C.FactsInserted;
    V["pta.fact_dedup_hits"] += C.FactDedupHits;
    V["pta.facts_replayed"] += C.FactsReplayed;
    V["pta.nodes_created"] += C.NodesCreated;
    V["pta.methods_instantiated"] += C.MethodsInstantiated;
    V["pta.rule_vcall"] += C.RuleVCall;
    V["pta.rule_scall"] += C.RuleSCall;
    V["pta.peak_bytes"] = std::max<uint64_t>(V["pta.peak_bytes"], R.PeakBytes);
    V["pta.peak_bytes_sum"] += R.PeakBytes;
    V["context.contexts"] += R.policy().ctxTable().size();
    V["context.heap_contexts"] += R.policy().hctxTable().size();
  }

  std::string json() const {
    std::string S = "{";
    for (const auto &[K, N] : V)
      S += (S.size() > 1 ? ",\"" : "\"") + K + "\":" + std::to_string(N);
    return S + "}";
  }
};

// --- Workloads -------------------------------------------------------------

const std::vector<std::string> UniformPrograms = {"bloat", "chart", "xalan"};
const std::vector<std::string> UniformPolicies = {"U-1obj", "U-2obj+H",
                                                  "2obj+H"};
const std::vector<std::string> LintPolicies = {"S-cs", "SA-1obj",
                                               "S-2obj+H"};
const char *const LintProgram = "chart";
const char *const LintSource = "chart.ptir";

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream In(S);
  std::string Part;
  while (std::getline(In, Part, ','))
    if (!Part.empty())
      Out.push_back(Part);
  return Out;
}

std::unique_ptr<ContextPolicy> policyOrDie(const std::string &Name,
                                           const Program &P) {
  std::unique_ptr<ContextPolicy> Pol = createPolicy(Name, P);
  if (!Pol) {
    std::cerr << "hpbench: unknown policy '" << Name << "'\n";
    std::exit(1);
  }
  return Pol;
}

std::unique_ptr<Program> parseOrDie(const std::string &Text) {
  ParseResult Res = parseProgram(Text, LintSource);
  if (!Res.ok()) {
    std::cerr << "hpbench: printed program does not parse: "
              << (Res.Errors.empty() ? "?" : Res.Errors.front()) << "\n";
    std::exit(1);
  }
  return std::move(Res.Prog);
}

/// The seed-th synthetic taint spec of the benchmark: one source and one
/// sink signature drawn from the call pairs `x = a.f(..); b.g(.., x, ..)`
/// of the program, so that the taint has a direct path to the sink.
/// (taint::syntheticSpec draws unrelated signatures; on chart almost none of
/// its specs reach a sink.)
taint::TaintSpec benchSpec(const Program &P, uint64_t Seed) {
  auto sigOf = [&P](const InvokeInfo &I) {
    if (I.IsStatic) {
      const MethodInfo &M = P.method(I.Target);
      return taint::SigPattern{"*", P.text(M.Name), P.sig(M.Sig).Arity};
    }
    return taint::SigPattern{"*", P.text(P.sig(I.Sig).Name),
                             P.sig(I.Sig).Arity};
  };
  std::map<uint32_t, InvokeId> ReturnedBy; // var -> the call assigning it
  for (uint32_t I = 0; I < P.numInvokes(); ++I)
    if (P.invoke(InvokeId(I)).RetTo.isValid())
      ReturnedBy.emplace(P.invoke(InvokeId(I)).RetTo.index(), InvokeId(I));
  std::vector<std::tuple<std::string, std::string, uint32_t>> Seen;
  std::vector<taint::TaintSpec> Pairs;
  for (uint32_t I = 0; I < P.numInvokes(); ++I) {
    const InvokeInfo &Sink = P.invoke(InvokeId(I));
    for (uint32_t A = 0; A < Sink.Actuals.size(); ++A) {
      auto It = ReturnedBy.find(Sink.Actuals[A].index());
      if (It == ReturnedBy.end())
        continue;
      taint::SigPattern Src = sigOf(P.invoke(It->second));
      taint::SigPattern Dst = sigOf(Sink);
      std::tuple<std::string, std::string, uint32_t> Key{
          Src.Name + "/" + std::to_string(Src.Arity),
          Dst.Name + "/" + std::to_string(Dst.Arity), A};
      if (std::find(Seen.begin(), Seen.end(), Key) != Seen.end())
        continue;
      Seen.push_back(Key);
      taint::TaintSpec Spec;
      Spec.Sources.push_back({Src, "t0"});
      Spec.Sinks.push_back({Dst, A});
      Pairs.push_back(std::move(Spec));
    }
  }
  if (Pairs.empty())
    return {};
  std::mt19937_64 Rng(Seed);
  return Pairs[Rng() % Pairs.size()];
}

std::unique_ptr<Program> instrumentWith(const Program &P,
                                        const taint::TaintSpec &Spec) {
  taint::TaintPlan Plan = taint::resolve(Spec, P);
  return taint::instrument(P, Plan);
}

AnalysisResult solve(const Program &P, ContextPolicy &Pol) {
  // The solver's own state is torn down inside the call, as in every
  // client that solves once.
  Solver S(P, Pol);
  return S.run();
}

/// One uniform-heavy unit: a Table 1 cell.
std::string uniformUnit(const Program &P, const std::string &Policy,
                        double &Ms) {
  double T0 = nowMs();
  std::optional<AnalysisResult> R;
  std::unique_ptr<ContextPolicy> Pol;
  {
    Scope U("unit");
    Pol = span("context.policy", [&] { return policyOrDie(Policy, P); });
    R.emplace(span("pta.solve", [&] { return solve(P, *Pol); }));
    PrecisionMetrics M =
        span("pta.metrics", [&] { return computeMetrics(*R); });
    (void)M;
  }
  Ms = nowMs() - T0;
  Counts C;
  C.addSolve(*R);
  return "\"out\":{" + factDigests(*R) + "},\"counts\":" + C.json();
}

/// One selective-lint unit: parse, instrument, then three selective
/// solves each followed by the checkers, SARIF and the taint query.
std::string lintUnit(const std::string &Text, const taint::TaintSpec &Spec,
                     double &Ms) {
  struct PolicyOut {
    std::unique_ptr<ContextPolicy> Pol;
    std::optional<AnalysisResult> R;
    checks::LintRun Run;
    std::string Sarif;
    std::vector<taint::TaintedSink> Sinks;
  };
  std::vector<PolicyOut> Outs(LintPolicies.size());
  std::unique_ptr<Program> Parsed, Instr;
  double T0 = nowMs();
  {
    Scope U("unit");
    Parsed = span("irtext.parse", [&] { return parseOrDie(Text); });
    Instr = span("taint.instrument",
                 [&] { return instrumentWith(*Parsed, Spec); });
    for (size_t I = 0; I < LintPolicies.size(); ++I) {
      PolicyOut &O = Outs[I];
      O.Pol = span("context.policy",
                   [&] { return policyOrDie(LintPolicies[I], *Instr); });
      O.R.emplace(span("pta.solve", [&] { return solve(*Instr, *O.Pol); }));
      O.Run = span("checks.run", [&] { return checks::runCheckers(*O.R); });
      O.Sarif = span("checks.sarif", [&] {
        std::ostringstream OS;
        checks::SarifOptions SO;
        SO.PolicyName = LintPolicies[I];
        checks::writeSarif(OS, *Instr, O.Run.Diags, O.Run.Rules, SO);
        return OS.str();
      });
      O.Sinks = span("taint.query",
                     [&] { return taint::findTaintedSinks(*O.R); });
    }
  }
  Ms = nowMs() - T0;

  Counts C;
  std::string Out = "\"out\":{";
  for (size_t I = 0; I < LintPolicies.size(); ++I) {
    const PolicyOut &O = Outs[I];
    C.addSolve(*O.R);
    C.V["taint.sinks"] += O.Sinks.size();
    C.V["checks.diagnostics"] += O.Run.Diags.size();
    C.V["checks.sarif_bytes"] += O.Sarif.size();
    Out += (I ? ",\"" : "\"") + LintPolicies[I] + "\":{" + factDigests(*O.R) +
           ",\"lint_ok\":" + (O.Run.ok() ? "true" : "false") +
           ",\"diags\":" + std::to_string(O.Run.Diags.size()) +
           ",\"sarif\":" + blobDigest(O.Sarif) +
           ",\"sinks\":" + sinkDigest(O.Sinks) + "}";
  }
  return Out + "},\"counts\":" + C.json();
}

int runBatch(int Argc, char **Argv) {
  auto O = parseOptions(Argc, Argv);
  const std::string Workload = O["workload"];
  const bool Uniform = Workload == "uniform-heavy";
  if (!Uniform && Workload != "selective-lint") {
    std::cerr << "hpbench batch: unknown workload '" << Workload << "'\n";
    return 2;
  }
  const uint64_t Seed = optU64(O, "seed");
  const uint64_t Passes = optU64(O, "passes");
  const uint64_t SetupReps = optU64(O, "setup-reps"); // per pass
  const bool Traced = optU64(O, "trace") != 0;
  std::FILE *Out = std::fopen(O["out"].c_str(), "w");
  if (!Out || SetupReps == 0) {
    std::cerr << "hpbench batch: cannot write --out, or no --setup-reps\n";
    return 1;
  }

  // Set-up, repeated before every pass so that its median samples the
  // machine across the whole run rather than one moment at its start;
  // run.py reports the median repetition.  Every repetition builds the same
  // programs, and the units of a pass use the latest.
  std::vector<std::unique_ptr<Program>> Progs;
  std::string Text;
  int UnitId = 0;
  auto setUp = [&] {
    Trace.On = Traced;
    Trace.Unit = UnitId++;
    std::vector<std::unique_ptr<Program>> Built;
    std::string Printed;
    double T0 = nowMs();
    {
      Scope S("setup");
      if (Uniform) {
        for (const std::string &Name : UniformPrograms)
          Built.push_back(span("workloads.build", [&] {
                            return buildBenchmark(Name);
                          }).Prog);
      } else {
        Benchmark B =
            span("workloads.build", [&] { return buildBenchmark(LintProgram); });
        Printed = span("irtext.print", [&] { return printProgram(*B.Prog); });
      }
    }
    double Ms = nowMs() - T0;
    Trace.On = false;
    emit(Out, "{\"type\":\"setup\",\"unit\":" + std::to_string(Trace.Unit) +
                  ",\"ms\":" + std::to_string(Ms) + "}");
    Progs = std::move(Built);
    Text = std::move(Printed);
  };
  setUp();

  // The unit list: fixed for the run, identical in every pass.
  std::vector<std::string> Cells;
  std::vector<taint::TaintSpec> Specs;
  if (Uniform) {
    for (const std::string &B : UniformPrograms)
      for (const std::string &P : UniformPolicies)
        Cells.push_back(B + "/" + P);
  } else {
    std::unique_ptr<Program> Base = parseOrDie(Text);
    for (const std::string &S : splitList(O["specs"])) {
      Cells.push_back("spec:" + S);
      Specs.push_back(benchSpec(*Base, std::stoull(S)));
    }
    if (Cells.empty()) {
      std::cerr << "hpbench batch: selective-lint needs --specs\n";
      return 2;
    }
  }

  // A traced run alternates traced and untraced passes, one more pass in
  // all, so that the tracing overhead is measured in the same process and
  // machine drift falls on both sides alike.
  const uint64_t Total = Traced ? Passes + 1 : Passes;
  for (uint64_t Pass = 0; Pass < Total; ++Pass) {
    for (uint64_t Rep = Pass == 0 ? 1 : 0; Rep < SetupReps; ++Rep)
      setUp();
    const bool On = Traced && Pass % 2 == 0;
    std::vector<size_t> Order(Cells.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    if (Uniform) {
      std::mt19937_64 Rng(Seed * 1000003 + Pass);
      std::shuffle(Order.begin(), Order.end(), Rng);
    }
    for (size_t Pos = 0; Pos < Order.size(); ++Pos) {
      const size_t Idx = Order[Pos];
      Trace.On = On;
      Trace.Unit = UnitId;
      double Ms = 0;
      std::string Body;
      if (Uniform)
        Body = uniformUnit(*Progs[Idx / UniformPolicies.size()],
                           UniformPolicies[Idx % UniformPolicies.size()], Ms);
      else
        Body = lintUnit(Text, Specs[Idx], Ms);
      Trace.On = false;
      emit(Out, "{\"type\":\"unit\",\"unit\":" + std::to_string(UnitId++) +
                    ",\"pass\":" + std::to_string(Pass) +
                    ",\"traced\":" + (On ? "true" : "false") +
                    ",\"cell\":\"" + Cells[Idx] +
                    "\",\"ms\":" + std::to_string(Ms) + "," + Body + "}");
    }
  }
  writeSpans(Out);
  emit(Out, "{\"type\":\"rss\",\"peak_kb\":" + std::to_string(peakRssKb()) +
                ",\"text_bytes\":" + std::to_string(Text.size()) + "}");
  return std::fclose(Out) == 0 ? 0 : 1;
}

// --- Record-mode helpers ---------------------------------------------------

/// The program of a reference cell: a benchmark, or for a taint-spec cell
/// the printed, re-parsed and instrumented program the lint unit solves.
std::unique_ptr<Program> cellProgram(const std::string &Name,
                                     const std::string &SpecSeed) {
  Benchmark B = buildBenchmark(Name);
  if (SpecSeed.empty())
    return std::move(B.Prog);
  std::unique_ptr<Program> Parsed = parseOrDie(printProgram(*B.Prog));
  return instrumentWith(*Parsed, benchSpec(*Parsed, std::stoull(SpecSeed)));
}

std::string digestRows(const std::vector<std::vector<uint32_t>> &Rows) {
  Digest D;
  for (const auto &Row : Rows)
    D.addWords(Row);
  return D.json();
}

int runReference(int Argc, char **Argv) {
  auto O = parseOptions(Argc, Argv);
  if (!isBenchmarkName(O["program"])) {
    std::cerr << "hpbench reference: unknown --program\n";
    return 2;
  }
  std::unique_ptr<Program> P = cellProgram(O["program"], O["spec"]);

  std::unique_ptr<ContextPolicy> RefPol = policyOrDie(O["policy"], *P);
  double T0 = nowMs();
  ReferenceAnalysis Ref(*P, *RefPol);
  if (!Ref.run()) {
    std::cerr << "hpbench reference: Datalog reference did not converge\n";
    return 1;
  }
  const double RefMs = nowMs() - T0;
  std::vector<std::pair<uint32_t, uint32_t>> RefCg;
  for (const auto &E : Ref.ciCallEdges())
    RefCg.push_back(E);
  std::set<uint32_t> RefReach = Ref.ciReachable();
  const std::string Want = "\"vpt\":" + digestRows(Ref.exportVarPointsTo()) +
                           ",\"cg\":" + pairDigest(std::move(RefCg)) +
                           ",\"reach\":" +
                           idDigest({RefReach.begin(), RefReach.end()}) +
                           ",\"aborted\":false";

  // The batch checks digest the solver's relations directly; prove that
  // encoding equal to the library's canonical export on this cell.
  std::unique_ptr<ContextPolicy> Pol = policyOrDie(O["policy"], *P);
  AnalysisResult R = solve(*P, *Pol);
  CiProjection Ci = ciProject(R);
  const std::string Export =
      "\"vpt\":" + digestRows(R.exportVarPointsTo()) + ",\"cg\":" +
      pairDigest({Ci.CallEdges.begin(), Ci.CallEdges.end()}) +
      ",\"reach\":" +
      idDigest({Ci.ReachableMethods.begin(), Ci.ReachableMethods.end()}) +
      ",\"aborted\":false";
  const std::string Streamed = factDigests(R);
  if (Streamed != Export) {
    std::cerr << "hpbench reference: streamed digests " << Streamed
              << " differ from the export " << Export << "\n";
    return 1;
  }
  if (Streamed != Want) {
    std::cerr << "hpbench reference: solver " << Streamed
              << " disagrees with the Datalog reference " << Want << "\n";
    return 1;
  }
  PrecisionMetrics M = computeMetrics(R);
  std::cout << "{" << Want << ",\"cg_edges\":" << M.CallGraphEdges
            << ",\"reachable\":" << M.ReachableMethods
            << ",\"cs_vpt\":" << M.CsVarPointsTo
            << ",\"ref_ms\":" << RefMs << "}\n";
  return 0;
}

int runScanSpecs(int Argc, char **Argv) {
  auto O = parseOptions(Argc, Argv);
  const uint64_t Want = optU64(O, "count");
  const uint64_t MaxSeed = optU64(O, "max-seed");
  Benchmark B = buildBenchmark(LintProgram);
  std::unique_ptr<Program> Parsed = parseOrDie(printProgram(*B.Prog));
  // A spec whose taint multiplies the analysis would make its units cost
  // unlike the others': every solve of a kept spec stays within Growth %
  // more facts than the largest solve of the plain program.
  const uint64_t Growth = optU64(O, "max-growth-pct");
  uint64_t MaxFacts = 0;
  for (const std::string &Policy : LintPolicies) {
    std::unique_ptr<ContextPolicy> Pol = policyOrDie(Policy, *Parsed);
    MaxFacts = std::max<uint64_t>(
        MaxFacts, solve(*Parsed, *Pol).Counters.FactsInserted);
  }
  MaxFacts = MaxFacts * (100 + Growth) / 100;
  std::string Found;
  uint64_t N = 0;
  std::vector<std::string> Taken;
  for (uint64_t Seed = 1; Seed <= MaxSeed && N < Want; ++Seed) {
    const taint::TaintSpec Spec = benchSpec(*Parsed, Seed);
    const std::string Printed = taint::printSpec(Spec);
    if (std::find(Taken.begin(), Taken.end(), Printed) != Taken.end())
      continue; // The pool holds distinct specs.
    std::unique_ptr<Program> Instr = instrumentWith(*Parsed, Spec);
    bool All = true;
    std::string Why;
    for (const std::string &Policy : LintPolicies) {
      std::unique_ptr<ContextPolicy> Pol = policyOrDie(Policy, *Instr);
      SolverOptions Opts;
      Opts.MaxFacts = MaxFacts;
      Solver S(*Instr, *Pol, Opts);
      AnalysisResult R = S.run();
      size_t Sinks = R.Aborted ? 0 : taint::findTaintedSinks(R).size();
      Why += " " + Policy + ":" + std::to_string(R.Counters.FactsInserted) +
             (R.Aborted ? " facts (over budget)" : " facts, " +
                  std::to_string(Sinks) + " sinks");
      All = All && Sinks > 0;
      if (!All)
        break;
    }
    std::cerr << "spec seed " << Seed << Why << "\n";
    if (All) {
      Found += (N++ ? "," : "") + std::to_string(Seed);
      Taken.push_back(Printed);
    }
  }
  std::cout << "{\"seeds\":[" << Found << "]}\n";
  return N == Want ? 0 : 1;
}

/// findVarByPath-round-trippable variable paths, spread over the program.
std::vector<std::string> varPool(const Program &P, size_t Want) {
  std::vector<std::string> All;
  for (size_t I = 0; I < P.numMethods(); ++I) {
    const MethodInfo &M = P.method(MethodId::fromIndex(I));
    const std::string Prefix =
        P.text(P.type(M.Owner).Name) + "::" + P.text(P.sig(M.Sig).Name) +
        "/" + std::to_string(P.sig(M.Sig).Arity) + "::";
    for (VarId V : M.Locals)
      All.push_back(Prefix + P.text(P.var(V).Name));
  }
  std::vector<std::string> Out;
  const size_t Stride = std::max<size_t>(1, All.size() / std::max<size_t>(
                                                             Want, 1));
  for (size_t I = 0; I < All.size() && Out.size() < Want; I += Stride)
    if (findVarByPath(P, All[I]).isValid())
      Out.push_back(All[I]);
  return Out;
}

int runPrep(int Argc, char **Argv) {
  auto O = parseOptions(Argc, Argv);
  const uint64_t Reps = optU64(O, "reps");
  const uint64_t NumVars = optU64(O, "vars");
  const bool Traced = optU64(O, "trace") != 0;
  std::FILE *Out = std::fopen(O["out"].c_str(), "w");
  if (!Out || !isBenchmarkName(O["program"])) {
    std::cerr << "hpbench prep: bad --out or --program\n";
    return 2;
  }
  std::string Text;
  int UnitId = 0;
  for (uint64_t Rep = 0; Rep < Reps; ++Rep) {
    Trace.On = Traced;
    Trace.Unit = UnitId++;
    {
      Scope S("setup");
      Benchmark B =
          span("workloads.build", [&] { return buildBenchmark(O["program"]); });
      Text = span("irtext.print", [&] { return printProgram(*B.Prog); });
    }
    Trace.On = Traced;
    Trace.Unit = UnitId++;
    std::unique_ptr<Program> Parsed;
    {
      Scope S("setup");
      Parsed = span("irtext.parse", [&] { return parseOrDie(Text); });
    }
    Trace.On = false;
    if (printProgram(*Parsed) != Text) {
      std::cerr << "hpbench prep: print -> parse -> print is not stable\n";
      return 1;
    }
  }
  std::ofstream Ptir(O["ptir"], std::ios::binary);
  Ptir << Text;
  Ptir.close();
  if (!Ptir) {
    std::cerr << "hpbench prep: cannot write --ptir\n";
    return 1;
  }
  std::unique_ptr<Program> Parsed = parseOrDie(Text);
  std::string Vars;
  for (const std::string &V : varPool(*Parsed, NumVars))
    Vars += (Vars.empty() ? "\"" : ",\"") + V + "\"";
  writeSpans(Out);
  emit(Out, "{\"type\":\"ptir\",\"digest\":" + blobDigest(Text) +
                ",\"vars\":[" + Vars + "]}");
  return std::fclose(Out) == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "batch")
    return runBatch(Argc - 2, Argv + 2);
  if (Cmd == "reference")
    return runReference(Argc - 2, Argv + 2);
  if (Cmd == "scan-specs")
    return runScanSpecs(Argc - 2, Argv + 2);
  if (Cmd == "prep")
    return runPrep(Argc - 2, Argv + 2);
  if (Cmd == "serve-client")
    return runServeClient(Argc - 2, Argv + 2);
  std::cerr << "usage: hpbench batch|reference|scan-specs|prep|serve-client "
               "[--option value ...]\n";
  return 2;
}
