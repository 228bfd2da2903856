//===- tests/examples_soundness_test.cpp - examples/ smoke ----------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Runs the full differential harness (soundness + reference equivalence
// + precision ordering) over every checked-in program under
// examples/programs/.  The default oracle policy set is the fifteen
// standard analyses, i.e. every Table 1 policy plus insens, so this is
// the "every example, every analysis" smoke promised in
// docs/CORRECTNESS.md.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "fuzz/Oracle.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/Solver.h"
#include "ptaref/ReferenceAnalysis.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace {

using namespace pt;

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(ExamplesSoundness, EveryProgramCleanUnderEveryPaperPolicy) {
  size_t Count = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    ++Count;
    SCOPED_TRACE(Entry.path().filename().string());

    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok())
        << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());

    fuzz::OracleOptions Opts;
    Opts.InterpRuns = 3;
    Opts.FullReferenceDiff = true;
    fuzz::OracleReport Report = fuzz::checkProgram(*Parsed.Prog, Opts);
    EXPECT_TRUE(Report.AbortedPolicies.empty());
    EXPECT_TRUE(Report.ok()) << (Report.Violations.empty()
                                     ? ""
                                     : Report.Violations.front().Detail);
    // The interpreter must have actually executed something, or the
    // soundness leg is vacuous.
    EXPECT_GT(Report.ConcreteFacts, 0u);
  }
  EXPECT_GE(Count, 5u);
}

// The cut-shortcut chain's new precision pairs (1call ⊑ cs ⊑ S-cs ⊑
// insens), pinned explicitly through the ordering + monotonicity +
// provenance-replay oracles on every example — the
// default smoke above covers them too (cs/S-cs are standard analyses
// now), but this test keeps failing output focused on the cs family.
TEST(ExamplesSoundness, CutShortcutChainOrderedOnEveryExample) {
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok());

    fuzz::OracleOptions Opts;
    Opts.Policies = {"1call", "cs", "S-cs", "insens"};
    Opts.FullReferenceDiff = true;
    Opts.CheckProvenance = true;
    Opts.ProvenanceStride = 1; // Replay every shortcut derivation.
    fuzz::OracleReport Report = fuzz::checkProgram(*Parsed.Prog, Opts);
    EXPECT_TRUE(Report.ok()) << (Report.Violations.empty()
                                     ? ""
                                     : Report.Violations.front().Detail);
  }
}

// Every example also round-trips through the printer — they double as
// parser/printer fixtures.
TEST(ExamplesSoundness, EveryProgramRoundTrips) {
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok());
    std::string Printed = printProgram(*Parsed.Prog);
    ParseResult Again = parseProgram(Printed);
    ASSERT_TRUE(Again.ok())
        << (Again.Errors.empty() ? "" : Again.Errors.front());
    EXPECT_EQ(printProgram(*Again.Prog), Printed);
    EXPECT_EQ(Again.Prog->numVars(), Parsed.Prog->numVars());
    EXPECT_EQ(Again.Prog->numInstructions(),
              Parsed.Prog->numInstructions());
  }
}


/// The solver's harvested projection against two independent ones: a
/// brute-force projection of the raw context-sensitive relations (std::set
/// per relation, nothing shared with the harvest's grouping) and the
/// Datalog reference's context-insensitive relations.
TEST(ExamplesSoundness, HarvestedProjectionMatchesBruteForceAndReference) {
  auto sorted = [](const auto &Set) {
    return std::vector<typename std::decay_t<decltype(Set)>::value_type>(
        Set.begin(), Set.end());
  };
  size_t Cells = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok());
    const Program &P = *Parsed.Prog;
    for (const std::string &Name : allPolicyNames()) {
      SCOPED_TRACE(Entry.path().filename().string() + " / " + Name);
      std::unique_ptr<ContextPolicy> Policy = createPolicy(Name, P);
      AnalysisResult R = Solver(P, *Policy).run();
      ASSERT_FALSE(R.Aborted);
      const CiProjection &Ci = ciProject(R);
      ++Cells;

      std::set<std::pair<uint32_t, uint32_t>> Vpt, Cg, Spt;
      std::set<std::tuple<uint32_t, uint32_t, uint32_t>> Fpt;
      std::set<uint32_t> Reach, Casts;
      for (const auto &E : R.VarFacts)
        for (uint32_t Obj : E.Objs)
          Vpt.emplace(E.Var.index(), R.objHeap(Obj).index());
      for (const CallGraphEdge &E : R.CallEdges)
        Cg.emplace(E.Invo.index(), E.Callee.index());
      for (const auto &[M, Ctx] : R.Reachable)
        Reach.insert(M.index());
      for (const auto &E : R.StaticFacts)
        for (uint32_t Obj : E.Objs)
          Spt.emplace(E.Fld.index(), R.objHeap(Obj).index());
      for (const auto &E : R.FieldFacts)
        for (uint32_t Obj : E.Objs)
          Fpt.emplace(R.objHeap(E.BaseObj).index(), E.Fld.index(),
                      R.objHeap(Obj).index());
      for (uint32_t Site = 0; Site < P.numCastSites(); ++Site)
        for (const auto &[V, H] : Vpt)
          if (V == P.castSite(Site).From.index() &&
              !P.isSubtype(P.heap(HeapId(H)).Type, P.castSite(Site).Target))
            Casts.insert(Site);

      EXPECT_EQ(Ci.VarPointsTo, sorted(Vpt));
      EXPECT_EQ(Ci.CallEdges, sorted(Cg));
      EXPECT_EQ(Ci.ReachableMethods, sorted(Reach));
      EXPECT_EQ(Ci.StaticFieldPointsTo, sorted(Spt));
      EXPECT_EQ(Ci.FieldPointsTo, sorted(Fpt));
      EXPECT_EQ(Ci.MayFailCasts, sorted(Casts));

      std::unique_ptr<ContextPolicy> RefPolicy = createPolicy(Name, P);
      ReferenceAnalysis Ref(P, *RefPolicy);
      ASSERT_TRUE(Ref.run());
      EXPECT_EQ(Ci.VarPointsTo, sorted(Ref.ciVarPointsTo()));
      EXPECT_EQ(Ci.CallEdges, sorted(Ref.ciCallEdges()));
      EXPECT_EQ(Ci.ReachableMethods, sorted(Ref.ciReachable()));
      EXPECT_EQ(Ci.StaticFieldPointsTo, sorted(Ref.ciStaticFieldPointsTo()));
      EXPECT_EQ(Ci.FieldPointsTo, sorted(Ref.ciFieldPointsTo()));
    }
  }
  EXPECT_GE(Cells, 5 * allPolicyNames().size());
}

} // namespace
