//===- pta/Solver.h - Specialized points-to solver --------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-specialized fixpoint solver for the paper's nine analysis rules
/// (Figure 2): subset-based, flow-insensitive, field-sensitive points-to
/// analysis with on-the-fly call-graph construction, parameterized by a
/// \c ContextPolicy.
///
/// Algorithm: difference propagation over a growing copy-edge graph.
/// Nodes are interned (variable, context) pairs plus (object, field) slots;
/// points-to facts are dense (heap, heap-context) object ids.  Analyzing a
/// newly reachable (method, context) instantiates the method's instruction
/// bag: allocations seed facts (via RECORD), moves/casts add edges, calls
/// add inter-procedural edges (via MERGE / MERGESTATIC), and loads, stores
/// and virtual calls subscribe to their base variable's node so that each
/// newly observed receiver object extends the graph.  This is the standard
/// explicit counterpart of semi-naive Datalog evaluation and computes
/// exactly the model of the paper's rules (differentially tested against
/// the Datalog transcription in src/ptaref).
///
/// Data structures are specialized for the hot paths: per-node points-to
/// sets are hybrid vector/bitmap \c ObjectSet (append-only, so replay walks
/// by position instead of copying a snapshot, and the difference-propagation
/// delta is just a cursor), a node's subscriptions of all kinds share one
/// tagged list (a 64-byte node header; see \c Node), and every intern
/// table and dedup set is a flat robin-hood \c FlatMap / \c FlatSet.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_SOLVER_H
#define HYBRIDPT_PTA_SOLVER_H

#include "pta/AnalysisResult.h"
#include "pta/provenance/Provenance.h"
#include "support/Cancel.h"
#include "support/FaultPlan.h"
#include "support/FlatMap.h"
#include "support/Ids.h"
#include "support/ObjectSet.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace pt {

class Program;
class ContextPolicy;
struct CutShortcutPlan;

namespace trace {
class TraceRecorder;
}

/// Resource budgets and observability hooks for one solver run.
struct SolverOptions {
  /// Wall-clock budget in milliseconds; 0 = unlimited.  Expired runs return
  /// with \c AnalysisResult::Aborted set (the paper's dash entries).
  uint64_t TimeBudgetMs = 0;
  /// Maximum number of points-to facts; 0 = unlimited.
  uint64_t MaxFacts = 0;
  /// Hard cap on the solver's persistent container bytes (the same
  /// accounting as \c AnalysisResult::PeakBytes); 0 = unlimited.  Polled
  /// amortized (every ~8K budget ticks, since the walk is O(nodes)), so a
  /// run may overshoot by one polling interval before aborting with
  /// \c AbortReason::MemoryBudget.
  uint64_t MemoryBudgetBytes = 0;
  /// Cooperative cancellation (SIGINT / process deadline); nullptr = none.
  /// A tripped token yields a clean \c AbortReason::Cancelled result with
  /// flushed heartbeats instead of a killed process.
  const CancelToken *Cancel = nullptr;
  /// Deterministic fault injection (docs/ROBUSTNESS.md).  An empty plan
  /// falls back to the HYBRIDPT_FAULT_PLAN / HYBRIDPT_TEST_BREAK
  /// environment plan at construction.
  FaultPlan Faults;
  /// Warm-start seeds: methods marked reachable in the policy's initial
  /// context before the entry points, used by the fallback ladder to reuse
  /// an aborted finer run's reachable set.  Sound only when every seed is
  /// reachable in this run's own fixpoint (e.g. context-insensitive rungs
  /// seeded from any finer partial run); then the least fixpoint — and so
  /// every precision metric — is unchanged, only convergence is faster.
  std::vector<MethodId> SeedReachable;
  /// Heartbeat/trace sink; nullptr disables all sampling.
  trace::TraceRecorder *Trace = nullptr;
  /// Label stamped on this run's heartbeats, e.g. "luindex/2obj+H".
  std::string TraceLabel;
  /// Emit a heartbeat every this many worklist steps (0 = never by steps).
  uint64_t HeartbeatSteps = 65536;
  /// ...or whenever this many milliseconds passed since the last one
  /// (polled every 1024 steps; 0 = never by time).
  uint64_t HeartbeatMs = 250;
  /// Derivation-provenance recorder (docs/OBSERVABILITY.md): when non-null
  /// and the build compiles HYBRIDPT_PROVENANCE in, every derived fact gets
  /// a step naming the Figure-2 rule and premise facts.  The arena's bytes
  /// count against \c MemoryBudgetBytes.  Null keeps every hook a dead
  /// single-pointer test.
  prov::Recorder *Prov = nullptr;
};

/// Solves \p Prog under \p Policy: the one-shot
/// `Solver S(Prog, Policy, Opts); return S.run();` that harnesses call.
AnalysisResult solveProgram(const Program &Prog, ContextPolicy &Policy,
                            const SolverOptions &Opts = {});

/// One-shot solver: construct, \c run(), discard.
class Solver {
public:
  Solver(const Program &Prog, ContextPolicy &Policy, SolverOptions Opts = {});

  /// Runs to fixpoint (or budget exhaustion) and returns the result
  /// relations.  May be called once.
  AnalysisResult run();

private:
  // --- Node space ---

  enum class NodeKind : uint8_t {
    VarCtx,
    FieldSlot,
    StaticSlot,
    /// The set of exception objects escaping a (method, context) —
    /// METHODTHROWS in the reference rules.
    ThrowSlot,
  };

  /// What a node's subscriptions do with each object arriving at it, in
  /// the order \c processDelta runs them.
  enum class SubKind : uint8_t {
    Dispatch,  ///< A = invoke, B = caller ctx: VCALL on the receiver.
    ThrowSub,  ///< A = method, B = ctx: route through the raising frame.
    ThrowLink, ///< A = caller method, B = caller ctx: escalate (throw slot).
    Load,      ///< A = field, B = to-node: connect the field slot.
    Store,     ///< A = field, B = from-node: connect into the field slot.
    Edge,      ///< A = to-node: plain copy edge.
    Cast,      ///< A = to-node, B = raw filter type: filtered copy edge.
  };
  static constexpr unsigned NumSubKinds = unsigned(SubKind::Cast) + 1;

  struct Sub {
    SubKind Kind;
    uint32_t A;
    uint32_t B;
  };

  /// The per-node header, one cache line: most nodes have an empty set and
  /// one or two kinds of subscription, so a node holds one tagged list and
  /// a bit per kind present, not a vector per kind.  \c processDelta walks
  /// the list once per kind present, in \c SubKind order, re-reading its
  /// size each step: an object reaches all subscriptions of one kind, in
  /// the order they were added, before any of the next kind.  That order
  /// fixes which facts, counters and provenance steps a step produces.
  struct Node {
    /// The points-to set.  Append-only insertion order makes positions
    /// stable, so the pending delta is just the suffix [Scanned, size()).
    ObjectSet Set;
    /// Subscriptions of every kind, in the order they were added.
    std::vector<Sub> Subs;
    /// Facts [0, Scanned) have been propagated to all subscriptions.
    uint32_t Scanned = 0;
    /// Bit \c 1 << SubKind for each kind present in \c Subs.
    uint8_t Kinds = 0;
    bool Queued = false;
  };

  struct NodeDesc {
    NodeKind Kind;
    uint32_t A; ///< VarId index or dense object id.
    uint32_t B; ///< CtxId index or FieldId index.
  };

  uint32_t varNode(VarId V, CtxId Ctx);
  uint32_t fieldNode(uint32_t Obj, FieldId Fld);
  uint32_t staticNode(FieldId Fld);
  uint32_t throwNode(MethodId M, CtxId Ctx);
  uint32_t internObject(HeapId Heap, HCtxId HCtx);

  /// Delivers an exception object raised in or escalated into
  /// (\p M, \p Ctx): binds matching handlers or escapes to the method's
  /// throw slot.  \p WhyPrem / \p WhyAux are the provenance premises: the
  /// thrown-var (or callee-throw-slot) fact, plus the call edge when the
  /// object is escalating (a valid aux selects the Escalate rule variants).
  void routeThrow(uint32_t Obj, MethodId M, CtxId Ctx,
                  uint32_t WhyPrem = prov::InvalidFact,
                  uint32_t WhyAux = prov::InvalidFact);

  /// Adds an escalation link callee-throw-slot -> caller frame, replaying
  /// existing facts.  \p WhyAux is the provenance call-edge fact.
  void addThrowLink(uint32_t ThrowNodeIdx, MethodId CallerM, CtxId CallerCtx,
                    uint32_t WhyAux = prov::InvalidFact);

  // --- Fact and edge insertion (all idempotent) ---

  /// Returns true when the fact was newly inserted (the provenance hooks
  /// record a derivation step exactly then).
  bool addFact(uint32_t NodeIdx, uint32_t Obj);
  void addEdge(uint32_t From, uint32_t To);
  void addCastEdge(uint32_t From, uint32_t To, TypeId Filter);

  /// Adds subscription {\p K, \p A, \p B} to node \p NodeIdx and
  /// replays the node's current facts through it.
  void subscribe(uint32_t NodeIdx, SubKind K, uint32_t A, uint32_t B);
  /// Runs subscription \p S of node \p NodeIdx on one of its objects.
  void propagate(uint32_t NodeIdx, Sub S, uint32_t Obj);

  /// Cast-edge filter predicate.  A valid \p Filter admits subtypes of the
  /// target type; an invalid one marks a sanitize edge and admits only
  /// objects whose allocation site carries no taint tag.
  bool passesCastFilter(uint32_t Obj, TypeId Filter) const;

  /// REACHABLE(M, Ctx): instantiates the method body on first sight.
  /// \p Why / \p WhyPrem describe how reachability was derived (entry
  /// point, ladder seed, or a call edge) for the provenance arena.
  void ensureReachable(MethodId M, CtxId Ctx,
                       prov::Rule Why = prov::Rule::Entry,
                       uint32_t WhyPrem = prov::InvalidFact);

  /// Handles one receiver object arriving at a virtual call's base node.
  void dispatch(InvokeId Invo, CtxId CallerCtx, uint32_t Obj);

  /// Wires argument/return edges for a discovered call-graph edge.
  /// \p CallWhy is VCall or SCall; \p CallPrem the premise fact (receiver
  /// VarPointsTo resp. caller Reachable).
  void wireCall(InvokeId Invo, CtxId CallerCtx, MethodId Callee,
                CtxId CalleeCtx, prov::Rule CallWhy = prov::Rule::SCall,
                uint32_t CallPrem = prov::InvalidFact);

  // --- Provenance hooks (single dead pointer test when Prov is null) ---

  /// True when this run records derivations.
  bool provOn() const { return PT_PROV_ACTIVE(Opts.Prov); }

  /// Interns the fact a (node, object) pair denotes, by node kind.
  uint32_t provFact(uint32_t NodeIdx, uint32_t Obj);

  /// Remembers why edge \p From -> \p To exists, keyed like EdgeDedup;
  /// must run before \c addEdge so replayed facts find the justification.
  void noteEdgeWhy(uint32_t From, uint32_t To, prov::Rule Why, uint32_t Aux);
  void noteCastEdgeWhy(uint32_t From, uint32_t To, uint32_t Aux,
                       prov::Rule Why = prov::Rule::Cast);

  /// Records the step for one fact propagated along (\p From, \p To).
  void provEdgeStep(uint32_t From, uint32_t To, uint32_t Obj, bool IsCast);

  /// Appends \p E to the call graph unless present; exact tuple dedup via
  /// a hash-headed chain over \c CallEdges (no separate key copies).
  bool insertCallEdge(const CallGraphEdge &E);

  /// Stops the run: records the reason (first one wins) and whether the
  /// fault-injection plan staged it.
  void abortRun(AbortReason Why, bool Injected = false) {
    if (Aborted)
      return;
    Aborted = true;
    Reason = Why;
    FaultInjected = Injected;
  }

  /// Amortized guard poll used from the inner dispatch/routeThrow/delta
  /// loops; aborts once the wall-clock budget expires, the cancel token
  /// trips, or (every eighth poll, the walk being O(nodes)) the memory
  /// budget is exceeded.
  bool checkBudget() {
    if (!Aborted && (++BudgetTick & 0x3ff) == 0)
      pollGuards();
    return Aborted;
  }

  /// The slow path of \c checkBudget.
  void pollGuards();

  /// Per-worklist-step fault-plan poll (called only when a step fault is
  /// armed): trips cancellation or simulated OOM at the exact step.
  void pollStepFaults();

  /// Stalls ~50us when the fault plan targets \p Rule; called from the
  /// rule sites behind a single member-bool guard.
  void slowRule(FaultRule Rule) {
    if (SlowRuleArmed && Opts.Faults.SlowRule == Rule)
      stallForFault();
  }
  void stallForFault();

  void drainWorklist();
  void processDelta(uint32_t NodeIdx);

  /// Bytes held by all persistent solver containers (sets, intern tables,
  /// dedup structures, call graph).  Everything measured only grows, so
  /// sampling at any point is a monotone lower bound and the harvest-time
  /// value is the peak.  The transient worklist is deliberately excluded:
  /// its depth depends on sampling moment, and PeakBytes must be
  /// deterministic across runs and thread counts.
  size_t memoryBytes() const;

  /// Records a heartbeat on \c Opts.Trace (caller checks it is non-null).
  void emitHeartbeat(bool Final);

  /// Amortized heartbeat poll, called once per worklist step.
  void pollHeartbeat() {
    if (!Opts.Trace)
      return;
    ++StepsSinceBeat;
    bool Due =
        Opts.HeartbeatSteps != 0 && StepsSinceBeat >= Opts.HeartbeatSteps;
    if (!Due && Opts.HeartbeatMs != 0 && (StepsSinceBeat & 0x3ff) == 0)
      Due = BeatWatch.elapsedMs() >= static_cast<double>(Opts.HeartbeatMs);
    if (Due)
      emitHeartbeat(false);
  }

  AnalysisResult harvest();

  const Program &Prog;
  ContextPolicy &Policy;
  /// Null unless the policy is a cut-shortcut family member
  /// (context/CutShortcut.h): planned store/return flows are cut and
  /// per-call-edge shortcut edges wired in dispatch()/wireCall().
  const CutShortcutPlan *CutPlan = nullptr;
  SolverOptions Opts;
  Deadline Budget;

  std::vector<Node> Nodes;
  std::vector<NodeDesc> Descs;
  FlatMap<uint32_t> VarCtxIndex;    ///< packPair(var, ctx) -> node
  FlatMap<uint32_t> FieldSlotIndex; ///< packPair(obj, fld) -> node
  FlatMap<uint32_t> StaticSlotIndex; ///< fld -> node
  FlatMap<uint32_t> ThrowSlotIndex; ///< packPair(method, ctx) -> node
  FlatSet ThrowLinkDedup;           ///< hash of (node, link)

  std::vector<HeapId> ObjHeaps;
  std::vector<HCtxId> ObjHCtxs;
  FlatMap<uint32_t> ObjIndex; ///< packPair(heap, hctx) -> dense object

  FlatSet ReachableSet; ///< packed (method, ctx)
  std::vector<std::pair<MethodId, CtxId>> ReachableList;

  /// Call-graph dedup: tuple hash -> head index into \c CallEdges, with
  /// per-edge chain links for exactness under hash collisions.
  FlatMap<uint32_t> CallEdgeHead;
  std::vector<uint32_t> CallEdgeNext;
  std::vector<CallGraphEdge> CallEdges;

  FlatSet EdgeDedup; ///< packPair(from, to)

  /// Provenance edge justifications: packPair(from, to) -> packed
  /// (aux fact << 8 | rule).  Only populated when \c Opts.Prov is set;
  /// cast edges get their own map because a plain and a cast edge can
  /// coexist between one node pair.
  FlatMap<uint64_t> EdgeWhy;
  FlatMap<uint64_t> CastEdgeWhy;
  /// ThrowLink justifications, keyed like \c ThrowLinkDedup -> call-edge
  /// fact id.
  FlatMap<uint32_t> ThrowLinkWhy;

  std::deque<uint32_t> Worklist;
  uint64_t FactCount = 0;
  uint32_t BudgetTick = 0;
  uint32_t MemPollTick = 0;
  bool Aborted = false;
  bool HasRun = false;

  AbortReason Reason = AbortReason::None;
  bool FaultInjected = false;

  /// Worklist steps taken so far.  Counted unconditionally (unlike the
  /// telemetry counters, which are all-zero without HYBRIDPT_TELEMETRY)
  /// because the fault plan's *-at-step directives and the heartbeat Step
  /// field must be deterministic in every build.
  uint64_t StepCount = 0;

  /// Cached \c Opts.Faults dispositions, hoisted out of the hot loops.
  bool StepFaultArmed = false;
  bool SlowRuleArmed = false;

  /// Per-solver telemetry — never shared, so runs are bit-identical at any
  /// thread count.  All-zero when HYBRIDPT_TELEMETRY is off.
  telemetry::SolverCounters Counters;
  telemetry::SolverCounters LastBeat; ///< Snapshot at the last heartbeat.
  uint64_t StepsSinceBeat = 0;
  Stopwatch BeatWatch;
};

} // namespace pt

#endif // HYBRIDPT_PTA_SOLVER_H
