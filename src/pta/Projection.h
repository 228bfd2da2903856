//===- pta/Projection.h - Context-insensitive projections -------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The context-insensitive projection of an analysis result: every
/// client-visible relation with its context columns dropped, in a uniform
/// representation that three producers can fill — the specialized solver
/// (once, at harvest; every client of an \c AnalysisResult reads that
/// copy), the Datalog reference analysis, and the concrete interpreter.
///
/// This is the comparison currency of the differential correctness
/// harness (docs/CORRECTNESS.md): soundness is "concrete ⊆ abstract",
/// the paper's precision orderings are "refined policy ⊆ coarser policy",
/// and solver/reference equivalence is containment in both directions.
/// All three reduce to \c diffContainment over two \c CiProjection values.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_PROJECTION_H
#define HYBRIDPT_PTA_PROJECTION_H

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace pt {

class AnalysisResult;
class Program;

/// The second column of the rows of the sorted pair relation \p Rel whose
/// first column is \p Key.
inline auto valuesOf(const std::vector<std::pair<uint32_t, uint32_t>> &Rel,
                     uint32_t Key) {
  return std::ranges::equal_range(Rel, Key, {},
                                  &std::pair<uint32_t, uint32_t>::first) |
         std::views::values;
}

/// Context-insensitive facts, keyed by raw entity indices so producers do
/// not need to share id interning.  Every relation is a sorted,
/// deduplicated vector, which is what the lookups below and
/// \c diffContainment rely on.
struct CiProjection {
  using Pair = std::pair<uint32_t, uint32_t>;
  using Triple = std::tuple<uint32_t, uint32_t, uint32_t>;

  /// (variable, allocation site).
  std::vector<Pair> VarPointsTo;
  /// (invocation site, callee method).
  std::vector<Pair> CallEdges;
  /// Methods reachable in at least one context.
  std::vector<uint32_t> ReachableMethods;
  /// (static field, allocation site).
  std::vector<Pair> StaticFieldPointsTo;
  /// (base allocation site, field, allocation site).
  std::vector<Triple> FieldPointsTo;
  /// Cast sites that may observe an incompatible object.
  std::vector<uint32_t> MayFailCasts;

  /// Allocation sites variable \p Var may point to, ascending.
  auto pointsTo(uint32_t Var) const { return valuesOf(VarPointsTo, Var); }

  /// Methods invocation site \p Invo may dispatch to, ascending.
  auto callees(uint32_t Invo) const { return valuesOf(CallEdges, Invo); }

  /// (base, field, allocation site) rows whose base is \p Base.
  auto fieldsOf(uint32_t Base) const {
    return std::ranges::equal_range(FieldPointsTo, Base, {},
                                    [](const Triple &T) {
                                      return std::get<0>(T);
                                    });
  }

  bool reachable(uint32_t Method) const {
    return std::binary_search(ReachableMethods.begin(),
                              ReachableMethods.end(), Method);
  }

  bool mayFailCast(uint32_t Site) const {
    return std::binary_search(MayFailCasts.begin(), MayFailCasts.end(),
                              Site);
  }

  /// Fills \c MayFailCasts from \c VarPointsTo: a cast site may fail when
  /// its source variable may point to an object whose type is not a
  /// subtype of the cast target (Doop's PotentiallyFailingCast).
  void deriveMayFailCasts(const Program &Prog);

  size_t totalFacts() const {
    return VarPointsTo.size() + CallEdges.size() + ReachableMethods.size() +
           StaticFieldPointsTo.size() + FieldPointsTo.size() +
           MayFailCasts.size();
  }

  bool operator==(const CiProjection &O) const = default;
};

/// The projection the solver harvested into \p Result.
const CiProjection &ciProject(const AnalysisResult &Result);

/// One fact of \c Fine missing from \c Coarse, rendered human-readable.
struct CiViolation {
  /// Relation the fact belongs to ("VarPointsTo", "MayFailCasts", ...).
  std::string Relation;
  /// Pretty-printed fact plus the two labels, ready to log.
  std::string Detail;
};

/// Appends a violation for every fact of \p Fine not contained in
/// \p Coarse (up to \p MaxPerRelation examples per relation) and returns
/// the *total* number of missing facts.  \p FineLabel / \p CoarseLabel
/// name the producers in the rendered details.
size_t diffContainment(const CiProjection &Fine, const CiProjection &Coarse,
                       const Program &Prog, const std::string &FineLabel,
                       const std::string &CoarseLabel,
                       std::vector<CiViolation> &Out,
                       size_t MaxPerRelation = 5);

} // namespace pt

#endif // HYBRIDPT_PTA_PROJECTION_H
