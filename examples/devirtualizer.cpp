//===- examples/devirtualizer.cpp - Call devirtualization client ----------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiler-style client: classify every virtual call site of a program
/// as devirtualizable (single target), polymorphic, or dead, under a
/// chosen analysis.
///
/// Usage:
///   devirtualizer [policy] [file.ptir]
///
/// With no file argument, runs on the built-in `luindex` stand-in
/// benchmark.  With no policy argument, compares 1obj against S-2obj+H to
/// show how many extra sites the hybrid devirtualizes.
///
//===----------------------------------------------------------------------===//

#include "checks/Cli.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/Solver.h"

#include <iostream>

using namespace pt;

namespace {

struct Summary {
  size_t Mono = 0, Poly = 0, Dead = 0;
};

Summary summarize(const std::vector<DevirtSite> &Sites) {
  Summary S;
  for (const DevirtSite &Site : Sites) {
    switch (Site.Verdict) {
    case DevirtVerdict::Monomorphic:
      ++S.Mono;
      break;
    case DevirtVerdict::Polymorphic:
      ++S.Poly;
      break;
    case DevirtVerdict::Dead:
      ++S.Dead;
      break;
    }
  }
  return S;
}

std::vector<DevirtSite> analyzeWith(const Program &P,
                                    std::string_view PolicyName) {
  auto Policy = createPolicy(PolicyName, P);
  if (!Policy) {
    std::cerr << "unknown policy '" << PolicyName << "'\n";
    exit(1);
  }
  Solver S(P, *Policy);
  AnalysisResult R = S.run();
  return devirtualizeCalls(R);
}

void printDetail(const Program &P, const std::vector<DevirtSite> &Sites,
                 size_t Limit) {
  size_t Shown = 0;
  for (const DevirtSite &Site : Sites) {
    if (Site.Verdict != DevirtVerdict::Polymorphic)
      continue;
    if (++Shown > Limit)
      break;
    const InvokeInfo &Call = P.invoke(Site.Invo);
    std::cout << "  poly: " << P.text(Call.Name) << " in "
              << P.qualifiedName(Call.InMethod) << " ->";
    for (MethodId T : Site.Targets)
      std::cout << ' ' << P.qualifiedName(T);
    std::cout << "\n";
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string PolicyName = argc > 1 ? argv[1] : "";
  // A PTIR file when given, the built-in luindex benchmark otherwise.
  std::string Input = argc > 2 ? argv[2] : "luindex";
  std::vector<std::string> Errors;
  std::unique_ptr<Program> Prog = cli::loadProgram(Input, Errors);
  if (!Prog) {
    for (const std::string &E : Errors)
      std::cerr << E << "\n";
    return 1;
  }
  const Program *P = Prog.get();
  if (argc > 2)
    std::cout << "analyzing " << Input << "\n";
  else
    std::cout << "analyzing built-in benchmark 'luindex' ("
              << P->numMethods() << " methods)\n";

  if (!PolicyName.empty()) {
    auto Sites = analyzeWith(*P, PolicyName);
    Summary S = summarize(Sites);
    std::cout << PolicyName << ": " << S.Mono << " devirtualizable, "
              << S.Poly << " polymorphic, " << S.Dead << " dead\n";
    printDetail(*P, Sites, 10);
    return 0;
  }

  // Default: compare the base object-sensitive analysis with its
  // selective hybrid.
  auto Base = analyzeWith(*P, "1obj");
  auto Hybrid = analyzeWith(*P, "S-2obj+H");
  Summary SB = summarize(Base), SH = summarize(Hybrid);
  std::cout << "1obj:     " << SB.Mono << " devirtualizable, " << SB.Poly
            << " polymorphic, " << SB.Dead << " dead\n";
  std::cout << "S-2obj+H: " << SH.Mono << " devirtualizable, " << SH.Poly
            << " polymorphic, " << SH.Dead << " dead\n";
  if (SH.Poly < SB.Poly)
    std::cout << "the selective hybrid devirtualizes " << (SB.Poly - SH.Poly)
              << " additional site(s)\n";
  return 0;
}
