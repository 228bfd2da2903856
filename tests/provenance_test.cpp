//===- tests/provenance_test.cpp - derivation provenance ------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// The provenance subsystem's contract (pta/provenance/Provenance.h):
// a run carrying a Recorder can answer "why does v point to h?" with a
// derivation tree whose every step re-checks against the Figure-2 side
// conditions; a query the policy refutes has no derivation; the arena's
// bytes count against the memory budget like any other solver container;
// and an injected memory fault leaves a partial arena that is still
// queryable and still valid.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/Solver.h"
#include "pta/provenance/Provenance.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace pt;

#if HYBRIDPT_PROVENANCE_ENABLED

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const Program &factory() {
  static ParseResult Parsed = parseProgram(
      slurp(std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "factory.ptir"));
  return *Parsed.Prog;
}

const Program &luindex() {
  static Benchmark Bench = buildBenchmark("luindex");
  return *Bench.Prog;
}

HeapId findHeapByName(const Program &P, std::string_view Name) {
  for (uint32_t I = 0, E = P.numHeaps(); I != E; ++I)
    if (P.text(P.heap(HeapId::fromIndex(I)).Name) == Name)
      return HeapId::fromIndex(I);
  return HeapId();
}

// The paper's Section 3 motivation as a provenance query: under the
// merging baseline, Basket::fill's `a` reaches the banana allocation
// through the static pass-through, and the recorder can say exactly how.
TEST(Provenance, RecordsAndDerivesTheMotivatingFact) {
  const Program &P = factory();
  auto Policy = createPolicy("2obj+H", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  AnalysisResult R = solveProgram(P, *Policy, Opts);
  ASSERT_FALSE(R.Aborted);
  EXPECT_GT(Rec.numFacts(), 0u);
  EXPECT_GT(Rec.numSteps(), 0u);
  EXPECT_GE(Rec.memoryBytes(), Rec.numSteps() * sizeof(prov::Step));

  VarId A = findVarByPath(P, "Basket::fill/0::a");
  HeapId Banana = findHeapByName(P, "new Banana@1");
  ASSERT_TRUE(A.isValid());
  ASSERT_TRUE(Banana.isValid());

  prov::DerivationTree Tree = prov::whyPointsTo(Rec, R, A, CtxId(), Banana);
  ASSERT_TRUE(Tree.Found) << Tree.Error;
  ASSERT_FALSE(Tree.Steps.empty());
  // Leaves-first topological order: the root's step comes last, at
  // depth 0, and every premise was emitted before its consumer.
  EXPECT_EQ(Tree.Steps.back().FactId, Tree.Root);
  EXPECT_EQ(Tree.Steps.back().Depth, 0u);

  prov::ValidationResult VR = prov::validateTree(Rec, R, Tree, Policy.get());
  EXPECT_TRUE(VR.Ok) << VR.Error;
  EXPECT_EQ(VR.CheckedSteps, Tree.Steps.size());

  // The derivation must thread through the static pass-through: the
  // text rendering names Util.identity and the return-bind rule.
  std::string Text = prov::renderTreeText(Rec, R, Tree);
  EXPECT_NE(Text.find("Util.identity"), std::string::npos) << Text;
  EXPECT_NE(Text.find("return-bind"), std::string::npos) << Text;
}

// The selective hybrid proves a cannot reach banana (the paper's headline
// precision win), so the same query must have NO derivation — a recorder
// can only explain facts the analysis actually derived.
TEST(Provenance, RefutedFactHasNoDerivation) {
  const Program &P = factory();
  auto Policy = createPolicy("S-2obj+H", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  AnalysisResult R = solveProgram(P, *Policy, Opts);
  ASSERT_FALSE(R.Aborted);

  VarId A = findVarByPath(P, "Basket::fill/0::a");
  HeapId Banana = findHeapByName(P, "new Banana@1");
  prov::DerivationTree Tree = prov::whyPointsTo(Rec, R, A, CtxId(), Banana);
  EXPECT_FALSE(Tree.Found);
  // ... while the apple derivation exists under the same policy.
  HeapId Apple = findHeapByName(P, "new Apple@0");
  if (Apple.isValid()) {
    prov::DerivationTree Ok = prov::whyPointsTo(Rec, R, A, CtxId(), Apple);
    EXPECT_TRUE(Ok.Found) << Ok.Error;
  }
}

TEST(Provenance, ClearResetsTheArena) {
  const Program &P = factory();
  auto Policy = createPolicy("1obj", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  (void)solveProgram(P, *Policy, Opts);
  ASSERT_GT(Rec.numSteps(), 0u);
  Rec.clear();
  EXPECT_EQ(Rec.numFacts(), 0u);
  EXPECT_EQ(Rec.numSteps(), 0u);
}

// Every checked-in example, every registered policy: EVERY recorded step
// must re-check against the rule side conditions — stride 1, no sampling
// slack.
TEST(Provenance, EveryStepValidatesOnEveryExample) {
  size_t Programs = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    ++Programs;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok());
    const Program &Prog = *Parsed.Prog;

    for (const std::string &Name : allPolicyNames()) {
      SCOPED_TRACE("policy " + Name);
      auto Policy = createPolicy(Name, Prog);
      ASSERT_TRUE(Policy);
      prov::Recorder Rec;
      SolverOptions Opts;
      Opts.Prov = &Rec;
      AnalysisResult R = solveProgram(Prog, *Policy, Opts);
      ASSERT_FALSE(R.Aborted);
      EXPECT_GT(Rec.numSteps(), 0u);
      prov::ValidationResult VR =
          prov::validateSampledSteps(Rec, R, Policy.get(), /*Stride=*/1);
      EXPECT_TRUE(VR.Ok) << VR.Error;
      EXPECT_EQ(VR.CheckedSteps, Rec.numSteps());
    }
  }
  EXPECT_GE(Programs, 5u);
}

// The arena counts against MemoryBudgetBytes like any other container:
// a budget the bare solver fits under but solver-plus-arena does not
// must abort the provenance-enabled run with memory_budget.
TEST(Provenance, ArenaCountsAgainstTheMemoryBudget) {
  const Program &P = luindex();
  auto BasePolicy = createPolicy("2obj+H", P);
  ASSERT_TRUE(BasePolicy);
  SolverOptions Bare;
  AnalysisResult BareR = solveProgram(P, *BasePolicy, Bare);
  ASSERT_FALSE(BareR.Aborted);

  auto ProvPolicy = createPolicy("2obj+H", P);
  prov::Recorder Rec;
  SolverOptions WithProv;
  WithProv.Prov = &Rec;
  AnalysisResult ProvR = solveProgram(P, *ProvPolicy, WithProv);
  ASSERT_FALSE(ProvR.Aborted);
  ASSERT_GT(ProvR.PeakBytes, BareR.PeakBytes)
      << "arena not reflected in the run's memory accounting";

  // A budget just above the bare peak: container sizes only grow during
  // a solve, so the bare run can never trip it, while the recorded run
  // crosses it early enough for the sampled memory poll (every eighth
  // guard poll) to fire well before convergence.
  uint64_t Budget = BareR.PeakBytes + (ProvR.PeakBytes - BareR.PeakBytes) / 8;
  auto BudgetBare = createPolicy("2obj+H", P);
  SolverOptions BareBudget;
  BareBudget.MemoryBudgetBytes = Budget;
  AnalysisResult BareBudgetR = solveProgram(P, *BudgetBare, BareBudget);
  EXPECT_FALSE(BareBudgetR.Aborted);

  auto BudgetProv = createPolicy("2obj+H", P);
  prov::Recorder Rec2;
  SolverOptions ProvBudget;
  ProvBudget.MemoryBudgetBytes = Budget;
  ProvBudget.Prov = &Rec2;
  AnalysisResult ProvBudgetR = solveProgram(P, *BudgetProv, ProvBudget);
  EXPECT_TRUE(ProvBudgetR.Aborted);
  EXPECT_EQ(ProvBudgetR.Reason, AbortReason::MemoryBudget);
}

// Fault-plan coverage of the guard path (docs/ROBUSTNESS.md): an
// injected OOM mid-solve aborts with memory_budget, and the partial
// arena is still internally consistent — every recorded step validates
// and queries do not crash (found or not).
TEST(Provenance, InjectedOomLeavesAQueryableArena) {
  const Program &P = luindex();
  auto Policy = createPolicy("1obj", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  Opts.Faults.OomAtStep = 2000;
  AnalysisResult R = solveProgram(P, *Policy, Opts);
  ASSERT_TRUE(R.Aborted);
  EXPECT_EQ(R.Reason, AbortReason::MemoryBudget);
  EXPECT_GT(Rec.numSteps(), 0u);

  prov::ValidationResult VR =
      prov::validateSampledSteps(Rec, R, Policy.get(), /*Stride=*/1);
  EXPECT_TRUE(VR.Ok) << VR.Error;

  // Deriving any recorded fact from a truncated arena must terminate
  // and stay inside the arena.
  prov::DerivationTree Tree = prov::deriveFact(Rec, 0);
  EXPECT_TRUE(Tree.Found);
  for (const prov::TreeStep &S : Tree.Steps) {
    EXPECT_LT(S.FactId, Rec.numFacts());
    EXPECT_LT(S.StepIdx, Rec.numSteps());
  }

  // Cost attribution over the partial arena ties out.
  prov::BlameReport B = prov::blame(Rec, R, /*TopK=*/5);
  EXPECT_EQ(B.TotalSteps, Rec.numSteps());
  EXPECT_LE(B.ByRule.size(), 5u);
}

#else // !HYBRIDPT_PROVENANCE_ENABLED

// With -DHYBRIDPT_PROVENANCE=OFF the hooks compile out; the only
// contract left to check is that a null recorder stays inert.
TEST(Provenance, CompiledOutRecorderIsInert) {
  EXPECT_FALSE(PT_PROV_ACTIVE(static_cast<prov::Recorder *>(nullptr)));
}

#endif

} // namespace
