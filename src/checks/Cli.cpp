//===- checks/Cli.cpp -----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Cli.h"

#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Solver.h"
#include "pta/provenance/Provenance.h"
#include "support/ParseInt.h"
#include "taint/Taint.h"
#include "taint/TaintSpec.h"
#include "workloads/Profiles.h"

#include <fstream>
#include <iostream>
#include <sstream>

using namespace pt;
using namespace pt::cli;

const char *Args::value() {
  if (I >= Argc) {
    std::cerr << Tool << ": " << Flag << " needs a value\n";
    std::exit(ExitCode);
  }
  return Argv[I++];
}

uint64_t Args::number(uint64_t Min, uint64_t Max) {
  return parseU64OrExit(Tool, Flag, value(), Min, Max, ExitCode);
}

bool Args::guard(SolverOptions &Solver, uint64_t &DeadlineMs) {
  if (Flag == "--budget")
    Solver.TimeBudgetMs = number();
  else if (Flag == "--max-facts")
    Solver.MaxFacts = number();
  else if (Flag == "--max-memory-mb")
    // Capped so the byte budget (MB * 10^6) cannot wrap.
    Solver.MemoryBudgetBytes = number(0, UINT64_MAX / 1000000) * 1000000;
  else if (Flag == "--deadline-ms")
    DeadlineMs = number();
  else
    return false;
  return true;
}

std::vector<std::string> pt::cli::splitCommaList(std::string_view Spec) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string_view::npos)
      End = Spec.size();
    if (End > Pos)
      Out.emplace_back(Spec.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  return Out;
}

std::unique_ptr<Program>
pt::cli::loadProgram(const std::string &Spec,
                     std::vector<std::string> &Errors) {
  if (isBenchmarkName(Spec))
    return std::move(buildBenchmark(Spec).Prog);
  std::ifstream In(Spec);
  if (!In) {
    Errors.push_back("cannot open '" + Spec + "'");
    return nullptr;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ParseResult Parsed = parseProgram(Buffer.str(), Spec);
  for (const std::string &E : Parsed.Errors)
    Errors.push_back("parse error: " + E);
  return Parsed.ok() ? std::move(Parsed.Prog) : nullptr;
}

std::unique_ptr<Program>
pt::cli::instrumentTaint(const Program &P, const std::string &SpecPath,
                         std::vector<std::string> &Errors) {
  taint::SpecParseResult Spec = taint::parseSpecFile(SpecPath);
  if (!Spec.ok()) {
    for (const std::string &E : Spec.Errors)
      Errors.push_back("taint spec error: " + E);
    return nullptr;
  }
  return taint::instrument(P, taint::resolve(Spec.Spec, P));
}

namespace {

/// One --why query.  The context is deliberately not part of the grammar:
/// the query means "in any context", which is what a user chasing a
/// spurious fact wants.
struct WhyQuery {
  std::string VarPath;
  std::string HeapName;
};

bool parseWhyQuery(std::string_view Spec, WhyQuery &Out, std::string &Error) {
  for (const std::string &Part : splitCommaList(Spec)) {
    size_t Eq = Part.find('=');
    if (Eq == std::string::npos) {
      Error = "bad --why component '" + Part + "' (want key=value)";
      return false;
    }
    std::string Key = Part.substr(0, Eq), Val = Part.substr(Eq + 1);
    if (Key == "var")
      Out.VarPath = Val;
    else if (Key == "heap")
      Out.HeapName = Val;
    else {
      Error = "unknown --why key '" + Key + "' (var, heap)";
      return false;
    }
  }
  if (Out.VarPath.empty() || Out.HeapName.empty()) {
    Error = "--why needs both var= and heap=";
    return false;
  }
  return true;
}

/// The heap allocation site named \p Name (first match; heap names are
/// unique per program in practice); invalid when there is none.
HeapId findHeapByName(const Program &P, std::string_view Name) {
  for (size_t H = 0; H < P.numHeaps(); ++H) {
    HeapId Id = HeapId::fromIndex(H);
    if (P.text(P.heap(Id).Name) == Name)
      return Id;
  }
  return HeapId();
}

} // namespace

int pt::cli::answerWhy(const std::vector<std::string> &Queries,
                       const Program &P, const AnalysisResult &R,
                       const prov::Recorder &Rec, std::string_view Format,
                       ContextPolicy *Validate) {
  int Exit = 0;
  for (const std::string &Spec : Queries) {
    WhyQuery Q;
    std::string Error;
    if (!parseWhyQuery(Spec, Q, Error)) {
      std::cerr << Error << "\n";
      return 1;
    }
    VarId V = findVarByPath(P, Q.VarPath);
    if (!V.isValid()) {
      std::cerr << "no variable '" << Q.VarPath << "'\n";
      return 1;
    }
    HeapId H = findHeapByName(P, Q.HeapName);
    if (!H.isValid()) {
      std::cerr << "no heap site '" << Q.HeapName << "'\n";
      return 1;
    }
    prov::DerivationTree Tree = prov::whyPointsTo(Rec, R, V, CtxId(), H);
    if (Format == "json")
      std::cout << prov::renderTreeJson(Rec, R, Tree) << "\n";
    else if (Format == "dot")
      std::cout << prov::renderTreeDot(Rec, R, Tree);
    else
      std::cout << prov::renderTreeText(Rec, R, Tree);
    if (!Tree.Found) {
      Exit = 1;
      continue;
    }
    if (Validate) {
      prov::ValidationResult VR = prov::validateTree(Rec, R, Tree, Validate);
      if (VR.Ok) {
        std::cout << "validation: ok (" << VR.CheckedSteps << " steps)\n";
      } else {
        std::cout << "validation: FAILED — " << VR.Error << "\n";
        Exit = 1;
      }
    }
  }
  return Exit;
}
