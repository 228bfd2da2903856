//===- pta/AnalysisResult.h - Points-to analysis output ---------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output relations of one analysis run (paper Figure 1):
/// VARPOINTSTO, FLDPOINTSTO, CALLGRAPH, and REACHABLE, their
/// context-insensitive projection (the one every client reads), query
/// helpers, and canonical exports used by the differential tests.
///
/// An \c AnalysisResult borrows the \c Program and \c ContextPolicy it was
/// produced against; both must outlive it.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_ANALYSISRESULT_H
#define HYBRIDPT_PTA_ANALYSISRESULT_H

#include "context/Policy.h"
#include "pta/Projection.h"
#include "support/Ids.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace pt {

class Program;

/// Why a run stopped short of its fixpoint (docs/ROBUSTNESS.md).  The
/// paper's dashes are all \c TimeBudget; the graceful-degradation layer
/// reacts to the resource reasons (time, facts, memory) by descending the
/// fallback ladder and passes \c Cancelled through untouched — a user who
/// pressed ^C wants out, not a cheaper analysis.
enum class AbortReason : uint8_t {
  None,         ///< Ran to fixpoint.
  TimeBudget,   ///< SolverOptions::TimeBudgetMs expired.
  FactBudget,   ///< SolverOptions::MaxFacts reached.
  MemoryBudget, ///< SolverOptions::MemoryBudgetBytes exceeded.
  Cancelled,    ///< CancelToken tripped (SIGINT or deadline).
};

/// Stable lower-case name used in traces, JSON, and CLI output.
const char *abortReasonName(AbortReason Reason);

/// One context-sensitive call-graph edge:
/// CALLGRAPH(invo, callerCtx, callee, calleeCtx).
struct CallGraphEdge {
  InvokeId Invo;
  CtxId CallerCtx;
  MethodId Callee;
  CtxId CalleeCtx;
};

/// The complete result of a points-to analysis run.
class AnalysisResult {
public:
  /// Points-to facts of one (variable, context) pair.  \c Objs holds dense
  /// object ids resolvable via \c objHeap / \c objHCtx.
  struct VarFactsEntry {
    VarId Var;
    CtxId Ctx;
    std::vector<uint32_t> Objs;
  };

  /// Field facts of one (object, field) slot:
  /// FLDPOINTSTO(baseH, baseHCtx, fld, ...).
  struct FieldFactsEntry {
    uint32_t BaseObj;
    FieldId Fld;
    std::vector<uint32_t> Objs;
  };

  /// Facts of one static (global) field slot.
  struct StaticFactsEntry {
    FieldId Fld;
    std::vector<uint32_t> Objs;
  };

  /// Exception objects escaping one (method, context) frame
  /// (METHODTHROWS).
  struct ThrowFactsEntry {
    MethodId Meth;
    CtxId Ctx;
    std::vector<uint32_t> Objs;
  };

  AnalysisResult(const Program &Prog, const ContextPolicy &Policy)
      : Prog(&Prog), Policy(&Policy) {}

  // --- Raw relations (filled by the solver) ---

  std::vector<VarFactsEntry> VarFacts;
  std::vector<FieldFactsEntry> FieldFacts;
  std::vector<StaticFactsEntry> StaticFacts;
  std::vector<ThrowFactsEntry> ThrowFacts;
  std::vector<CallGraphEdge> CallEdges;
  std::vector<std::pair<MethodId, CtxId>> Reachable;

  /// Heap site of dense object id \p Obj.
  HeapId objHeap(uint32_t Obj) const { return ObjHeaps[Obj]; }
  /// Heap context of dense object id \p Obj.
  HCtxId objHCtx(uint32_t Obj) const { return ObjHCtxs[Obj]; }
  size_t numObjects() const { return ObjHeaps.size(); }

  std::vector<HeapId> ObjHeaps;
  std::vector<HCtxId> ObjHCtxs;

  /// The context-insensitive projection of the relations above, filled
  /// once by the solver's harvest.  Every client (Table 1 metrics, the
  /// devirtualization and cast reports, the checkers, taint, stats, DOT
  /// and the daemon's points-to replies) reads it rather than
  /// re-projecting the context-sensitive facts.
  CiProjection Ci;

  /// True when the run hit its time or fact budget; facts are then a sound
  /// under-approximation of the fixpoint and metrics must not be trusted.
  bool Aborted = false;

  /// Why the run aborted; \c None when it converged.
  AbortReason Reason = AbortReason::None;

  /// True when the abort was staged by the fault-injection plan
  /// (support/FaultPlan.h) rather than by real resource pressure; retry
  /// policies treat injected aborts as transient.
  bool FaultInjected = false;

  /// Wall-clock solve time, filled by the solver.
  double SolveMs = 0.0;

  /// Peak solver node count (interned (var, ctx) pairs plus field, static
  /// and throw slots).
  size_t SolverNodes = 0;

  /// Bytes held by the solver's persistent containers at harvest time
  /// (points-to sets, intern tables, dedup sets, call graph).  The solver
  /// only grows, so this is also the peak.
  size_t PeakBytes = 0;

  /// Rule-fire and infrastructure counters for the run; all-zero when the
  /// build disables HYBRIDPT_TELEMETRY.
  telemetry::SolverCounters Counters;

  // --- Queries ---

  const Program &program() const { return *Prog; }
  const ContextPolicy &policy() const { return *Policy; }

  // Typed lookups into \c Ci.

  /// All heap sites \p V may point to, ascending.
  std::vector<HeapId> pointsTo(VarId V) const;

  /// All methods invocation site \p I may dispatch to, ascending.
  std::vector<MethodId> callTargets(InvokeId I) const;

  /// All methods reachable in at least one context, ascending.
  std::vector<MethodId> reachableMethods() const;

  /// True when cast site \p Site may observe an object that is not a
  /// subtype of the cast target (the may-fail-casts client).
  bool mayFailCast(uint32_t Site) const { return Ci.mayFailCast(Site); }

  /// Total number of context-sensitive var-points-to facts — the paper's
  /// platform-independent complexity metric ("sensitive var-points-to").
  size_t numCsVarPointsTo() const;

  /// Total number of field-points-to facts.
  size_t numFieldPointsTo() const;

  /// Total number of static-field-points-to facts.
  size_t numStaticFieldPointsTo() const;

  /// Total number of method-throws facts.
  size_t numThrowFacts() const;

  /// Heap sites of exception objects escaping the program's entry points
  /// uncaught, sorted and deduplicated (the uncaught-exceptions client).
  std::vector<HeapId> uncaughtExceptions() const;

  // --- Canonical export for differential testing ---
  //
  // Context ids are interning-order dependent, so cross-solver comparison
  // re-encodes each context as its element tuple.  Each exported row is a
  // flat word vector; the full export is sorted.

  /// VARPOINTSTO rows: var, ctx-elems..., heap, hctx-elems....
  std::vector<std::vector<uint32_t>> exportVarPointsTo() const;

  /// CALLGRAPH rows: invo, callerCtx-elems..., callee, calleeCtx-elems....
  std::vector<std::vector<uint32_t>> exportCallGraph() const;

  /// FLDPOINTSTO rows: baseHeap, baseHCtx-elems..., fld, heap, hctx-elems.
  std::vector<std::vector<uint32_t>> exportFieldPointsTo() const;

  /// REACHABLE rows: method, ctx-elems....
  std::vector<std::vector<uint32_t>> exportReachable() const;

  /// STATICFLDPOINTSTO rows: fld, heap, hctx-elems....
  std::vector<std::vector<uint32_t>> exportStaticFieldPointsTo() const;

  /// METHODTHROWS rows: method, ctx-elems..., heap, hctx-elems....
  std::vector<std::vector<uint32_t>> exportThrowPointsTo() const;

private:
  const Program *Prog;
  const ContextPolicy *Policy;
};

} // namespace pt

#endif // HYBRIDPT_PTA_ANALYSISRESULT_H
