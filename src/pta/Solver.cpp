//===- pta/Solver.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Solver.h"

#include "context/CutShortcut.h"
#include "context/Policy.h"
#include "ir/Program.h"
#include "pta/Trace.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace pt;

namespace {

/// Drops the context columns of one points-to relation: groups \p Entries
/// by \p KeyOf and appends \p Row(Key, Heap) to \p Out once per distinct
/// heap of each group, keys and heaps ascending.  A per-heap stamp
/// deduplicates in one pass, so only a group's distinct heaps are sorted;
/// a first, counting walk sizes \p Out exactly, since the projection lives
/// as long as the result.
template <typename EntryT, typename KeyFn, typename RowFn, typename RowT>
void projectGroups(const AnalysisResult &R, const std::vector<EntryT> &Entries,
                   KeyFn KeyOf, RowFn Row, std::vector<RowT> &Out) {
  std::vector<std::pair<uint64_t, uint32_t>> Order; // (key, entry)
  Order.reserve(Entries.size());
  for (uint32_t I = 0; I < Entries.size(); ++I)
    Order.emplace_back(KeyOf(Entries[I]), I);
  std::sort(Order.begin(), Order.end());
  std::vector<uint32_t> Stamp(R.program().numHeaps(), UINT32_MAX);
  std::vector<uint32_t> Heaps;
  uint32_t Group = 0;
  auto Walk = [&](auto Visit) {
    for (size_t I = 0; I < Order.size(); ++Group) {
      const uint64_t Key = Order[I].first;
      Heaps.clear();
      for (; I < Order.size() && Order[I].first == Key; ++I)
        for (uint32_t Obj : Entries[Order[I].second].Objs) {
          uint32_t H = R.objHeap(Obj).index();
          if (Stamp[H] != Group) {
            Stamp[H] = Group;
            Heaps.push_back(H);
          }
        }
      Visit(Key);
    }
  };
  size_t Rows = 0;
  Walk([&](uint64_t) { Rows += Heaps.size(); });
  Out.reserve(Rows);
  Walk([&](uint64_t Key) {
    std::sort(Heaps.begin(), Heaps.end());
    for (uint32_t H : Heaps)
      Out.push_back(Row(Key, H));
  });
}

/// The context-insensitive projection of a harvested result — the one
/// place CI facts are built from the context-sensitive relations.
void projectHarvest(AnalysisResult &R) {
  const Program &Prog = R.program();
  CiProjection &Ci = R.Ci;
  using Pair = CiProjection::Pair;

  projectGroups(
      R, R.VarFacts, [](const auto &E) { return uint64_t(E.Var.index()); },
      [](uint64_t V, uint32_t H) { return Pair(uint32_t(V), H); },
      Ci.VarPointsTo);
  projectGroups(
      R, R.FieldFacts,
      [&](const auto &E) {
        return packPair(R.objHeap(E.BaseObj).index(), E.Fld.index());
      },
      [](uint64_t Slot, uint32_t H) {
        return CiProjection::Triple(unpackHi(Slot), unpackLo(Slot), H);
      },
      Ci.FieldPointsTo);
  projectGroups(
      R, R.StaticFacts, [](const auto &E) { return uint64_t(E.Fld.index()); },
      [](uint64_t F, uint32_t H) { return Pair(uint32_t(F), H); },
      Ci.StaticFieldPointsTo);

  Ci.CallEdges.reserve(R.CallEdges.size());
  for (const CallGraphEdge &E : R.CallEdges)
    Ci.CallEdges.emplace_back(E.Invo.index(), E.Callee.index());
  std::sort(Ci.CallEdges.begin(), Ci.CallEdges.end());
  Ci.CallEdges.erase(std::unique(Ci.CallEdges.begin(), Ci.CallEdges.end()),
                     Ci.CallEdges.end());
  Ci.CallEdges.shrink_to_fit();

  std::vector<bool> Reached(Prog.numMethods(), false);
  for (const auto &[M, Ctx] : R.Reachable)
    Reached[M.index()] = true;
  for (uint32_t M = 0; M < Reached.size(); ++M)
    if (Reached[M])
      Ci.ReachableMethods.push_back(M);

  Ci.deriveMayFailCasts(Prog);
}

} // namespace

Solver::Solver(const Program &Prog, ContextPolicy &Policy, SolverOptions Opts)
    : Prog(Prog), Policy(Policy), CutPlan(Policy.cutPlan()), Opts(Opts),
      Budget(Opts.TimeBudgetMs) {
  assert(Prog.isFinalized() && "solver needs a finalized program");
  // Fault injection for harness self-tests and the robustness matrix
  // (docs/ROBUSTNESS.md).  An explicit plan wins; otherwise pick up the
  // HYBRIDPT_FAULT_PLAN / HYBRIDPT_TEST_BREAK environment plan.  Never set
  // outside tests/CI.
  if (!this->Opts.Faults.any())
    this->Opts.Faults = FaultPlan::fromEnv();
  StepFaultArmed = this->Opts.Faults.OomAtStep != 0 ||
                   this->Opts.Faults.CancelAtStep != 0;
  SlowRuleArmed = this->Opts.Faults.SlowRule != FaultRule::None;
}

void Solver::pollGuards() {
  if (Budget.expired()) {
    abortRun(AbortReason::TimeBudget);
    return;
  }
  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    abortRun(AbortReason::Cancelled);
    return;
  }
  // The memory walk is O(nodes), so sample it on every eighth poll only
  // (~8K budget ticks); overshoot is bounded by one polling interval.
  if (Opts.MemoryBudgetBytes != 0 && (++MemPollTick & 0x7) == 0 &&
      memoryBytes() > Opts.MemoryBudgetBytes)
    abortRun(AbortReason::MemoryBudget);
}

void Solver::pollStepFaults() {
  if (Aborted)
    return;
  if (Opts.Faults.OomAtStep != 0 && StepCount >= Opts.Faults.OomAtStep)
    abortRun(AbortReason::MemoryBudget, /*Injected=*/true);
  else if (Opts.Faults.CancelAtStep != 0 &&
           StepCount >= Opts.Faults.CancelAtStep)
    abortRun(AbortReason::Cancelled, /*Injected=*/true);
}

void Solver::stallForFault() {
  // ~50us busy wait per targeted rule fire: enough to blow any realistic
  // time budget without sleeping through test suites.
  Stopwatch W;
  while (W.elapsedMs() < 0.05) {
  }
}

uint32_t Solver::varNode(VarId V, CtxId Ctx) {
  uint64_t Key = packPair(V.index(), Ctx.index());
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = VarCtxIndex.tryEmplace(Key, Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  Nodes.emplace_back();
  Descs.push_back({NodeKind::VarCtx, V.index(), Ctx.index()});
  return Idx;
}

uint32_t Solver::fieldNode(uint32_t Obj, FieldId Fld) {
  uint64_t Key = packPair(Obj, Fld.index());
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = FieldSlotIndex.tryEmplace(Key, Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  Nodes.emplace_back();
  Descs.push_back({NodeKind::FieldSlot, Obj, Fld.index()});
  return Idx;
}

uint32_t Solver::staticNode(FieldId Fld) {
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = StaticSlotIndex.tryEmplace(Fld.index(), Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  Nodes.emplace_back();
  Descs.push_back({NodeKind::StaticSlot, Fld.index(), 0});
  return Idx;
}

uint32_t Solver::throwNode(MethodId M, CtxId Ctx) {
  uint64_t Key = packPair(M.index(), Ctx.index());
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = ThrowSlotIndex.tryEmplace(Key, Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  Nodes.emplace_back();
  Descs.push_back({NodeKind::ThrowSlot, M.index(), Ctx.index()});
  return Idx;
}

uint32_t Solver::internObject(HeapId Heap, HCtxId HCtx) {
  uint64_t Key = packPair(Heap.index(), HCtx.index());
  uint32_t Obj = static_cast<uint32_t>(ObjHeaps.size());
  auto [Slot, Inserted] = ObjIndex.tryEmplace(Key, Obj);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.ObjectsInterned);
  ObjHeaps.push_back(Heap);
  ObjHCtxs.push_back(HCtx);
  return Obj;
}

bool Solver::addFact(uint32_t NodeIdx, uint32_t Obj) {
  if (Aborted)
    return false;
  // Fact budget: refuse to queue more work once the budget is spent (the
  // old check ran after queueing, letting one extra wave through).
  if (Opts.MaxFacts != 0 && FactCount >= Opts.MaxFacts) {
    abortRun(AbortReason::FactBudget);
    return false;
  }
  Node &N = Nodes[NodeIdx];
  if (!N.Set.insert(Obj)) {
    PT_COUNT(Counters.FactDedupHits);
    return false;
  }
  PT_COUNT(Counters.FactsInserted);
  ++FactCount;
  if (!N.Queued) {
    N.Queued = true;
    Worklist.push_back(NodeIdx);
  }
  return true;
}

uint32_t Solver::provFact(uint32_t NodeIdx, uint32_t Obj) {
  const NodeDesc &D = Descs[NodeIdx];
  prov::Recorder &R = *Opts.Prov;
  switch (D.Kind) {
  case NodeKind::VarCtx:
    return R.internFact(prov::FactKind::VarPointsTo, packPair(D.A, D.B), Obj);
  case NodeKind::FieldSlot:
    return R.internFact(prov::FactKind::FieldPointsTo, packPair(D.A, D.B),
                        Obj);
  case NodeKind::StaticSlot:
    return R.internFact(prov::FactKind::StaticPointsTo, D.A, Obj);
  case NodeKind::ThrowSlot:
    return R.internFact(prov::FactKind::ThrowPointsTo, packPair(D.A, D.B),
                        Obj);
  }
  return prov::InvalidFact;
}

void Solver::noteEdgeWhy(uint32_t From, uint32_t To, prov::Rule Why,
                         uint32_t Aux) {
  if (!provOn())
    return;
  uint64_t Packed = (static_cast<uint64_t>(Aux) << 8) |
                    static_cast<uint64_t>(Why);
  EdgeWhy.tryEmplace(packPair(From, To), Packed);
}

void Solver::noteCastEdgeWhy(uint32_t From, uint32_t To, uint32_t Aux,
                             prov::Rule Why) {
  if (!provOn())
    return;
  uint64_t Packed = (static_cast<uint64_t>(Aux) << 8) |
                    static_cast<uint64_t>(Why);
  CastEdgeWhy.tryEmplace(packPair(From, To), Packed);
}

void Solver::provEdgeStep(uint32_t From, uint32_t To, uint32_t Obj,
                          bool IsCast) {
  const uint64_t *Packed = (IsCast ? CastEdgeWhy : EdgeWhy)
                               .find(packPair(From, To));
  if (!Packed)
    return; // Edge predates the recorder (never happens within one run).
  auto Why = static_cast<prov::Rule>(*Packed & 0xff);
  auto Aux = static_cast<uint32_t>(*Packed >> 8);
  uint32_t Prem = provFact(From, Obj);
  Opts.Prov->step(provFact(To, Obj), Why, Prem, Aux);
}

void Solver::addEdge(uint32_t From, uint32_t To) {
  if (From == To)
    return;
  if (!EdgeDedup.insert(packPair(From, To))) {
    PT_COUNT(Counters.EdgeDedupHits);
    return;
  }
  PT_COUNT(Counters.EdgesAdded);
  PT_COUNT_ADD(Counters.FactsReplayed, Nodes[From].Set.size());
  subscribe(From, SubKind::Edge, To, 0);
}

bool Solver::passesCastFilter(uint32_t Obj, TypeId Filter) const {
  const HeapInfo &H = Prog.heap(ObjHeaps[Obj]);
  // An invalid filter marks a sanitize edge: pass untainted objects only
  // (SanitizeInstr; docs/CHECKS.md "Taint analysis").
  if (!Filter.isValid())
    return H.TaintTag == 0;
  return Prog.isSubtype(H.Type, Filter);
}

void Solver::addCastEdge(uint32_t From, uint32_t To, TypeId Filter) {
  PT_COUNT(Counters.EdgesAdded);
  PT_COUNT_ADD(Counters.FactsReplayed, Nodes[From].Set.size());
  subscribe(From, SubKind::Cast, To, Filter.rawValue());
}

void Solver::subscribe(uint32_t NodeIdx, SubKind K, uint32_t A, uint32_t B) {
  Nodes[NodeIdx].Subs.push_back({K, A, B});
  Nodes[NodeIdx].Kinds |= uint8_t(1u << unsigned(K));
  // Replay the facts already present.  ObjectSet positions are stable, so
  // walk by index instead of copying the set, and capture the size up
  // front: facts arriving mid-replay stay in the node's pending suffix and
  // reach the new subscription through the worklist.
  uint32_t Count = Nodes[NodeIdx].Set.size();
  for (uint32_t I = 0; I < Count; ++I)
    propagate(NodeIdx, {K, A, B}, Nodes[NodeIdx].Set.at(I));
}

void Solver::propagate(uint32_t NodeIdx, Sub S, uint32_t Obj) {
  switch (S.Kind) {
  case SubKind::Dispatch:
    dispatch(InvokeId(S.A), CtxId(S.B), Obj);
    return;
  case SubKind::ThrowSub:
    // This node is the thrown variable; its fact is the raise premise.
    routeThrow(Obj, MethodId(S.A), CtxId(S.B),
               provOn() ? provFact(NodeIdx, Obj) : prov::InvalidFact);
    return;
  case SubKind::ThrowLink: {
    // This node is a callee throw slot; the link's call edge is the aux.
    uint32_t WhyPrem = prov::InvalidFact, WhyAux = prov::InvalidFact;
    if (provOn()) {
      WhyPrem = provFact(NodeIdx, Obj);
      uint64_t DedupKey = mix64(packPair(S.A, S.B)) ^
                          (static_cast<uint64_t>(NodeIdx) << 1);
      if (const uint32_t *Aux = ThrowLinkWhy.find(DedupKey))
        WhyAux = *Aux;
    }
    routeThrow(Obj, MethodId(S.A), CtxId(S.B), WhyPrem, WhyAux);
    return;
  }
  case SubKind::Load: {
    PT_COUNT(Counters.RuleLoad);
    slowRule(FaultRule::Load);
    uint32_t FN = fieldNode(Obj, FieldId(S.A));
    if (provOn())
      noteEdgeWhy(FN, S.B, prov::Rule::Load, provFact(NodeIdx, Obj));
    addEdge(FN, S.B);
    return;
  }
  case SubKind::Store: {
    PT_COUNT(Counters.RuleStore);
    slowRule(FaultRule::Store);
    uint32_t FN = fieldNode(Obj, FieldId(S.A));
    if (provOn())
      noteEdgeWhy(S.B, FN, prov::Rule::Store, provFact(NodeIdx, Obj));
    addEdge(S.B, FN);
    return;
  }
  case SubKind::Edge:
    if (addFact(S.A, Obj) && provOn())
      provEdgeStep(NodeIdx, S.A, Obj, /*IsCast=*/false);
    return;
  case SubKind::Cast:
    PT_COUNT(Counters.RuleCast);
    slowRule(FaultRule::Cast);
    if (passesCastFilter(Obj, TypeId(S.B)) && addFact(S.A, Obj) && provOn())
      provEdgeStep(NodeIdx, S.A, Obj, /*IsCast=*/true);
    return;
  }
}

void Solver::ensureReachable(MethodId M, CtxId Ctx, prov::Rule Why,
                             uint32_t WhyPrem) {
  if (Aborted)
    return;
  if (!ReachableSet.insert(packPair(M.index(), Ctx.index())))
    return;
  PT_COUNT(Counters.MethodsInstantiated);
  ReachableList.push_back({M, Ctx});

  // The Reachable fact anchors every intra-procedural derivation of this
  // body: allocs cite it directly, move/cast/static edges carry it as
  // their auxiliary premise.
  uint32_t RFact = prov::InvalidFact;
  if (provOn())
    RFact = Opts.Prov->recordFact(prov::FactKind::Reachable,
                                  packPair(M.index(), Ctx.index()), 0, Why,
                                  WhyPrem);

  const MethodInfo &Body = Prog.method(M);

  // ALLOC: RECORD builds the heap context; seed the fact directly
  // (Figure 2, third rule).
  for (const AllocInstr &A : Body.Allocs) {
    PT_COUNT(Counters.RuleAlloc);
    slowRule(FaultRule::Alloc);
    HCtxId HCtx = Policy.record(A.Heap, Ctx);
    uint32_t Obj = internObject(A.Heap, HCtx);
    uint32_t VN = varNode(A.Var, Ctx);
    if (addFact(VN, Obj) && provOn())
      Opts.Prov->step(provFact(VN, Obj), prov::Rule::Alloc, RFact);
  }

  // MOVE: intra-procedural copy edges.
  for (const MoveInstr &Mv : Body.Moves) {
    PT_COUNT(Counters.RuleMove);
    slowRule(FaultRule::Move);
    uint32_t FromN = varNode(Mv.From, Ctx), ToN = varNode(Mv.To, Ctx);
    noteEdgeWhy(FromN, ToN, prov::Rule::Move, RFact);
    addEdge(FromN, ToN);
  }

  // Casts: copy edges filtered by the target type.
  for (const CastInstr &C : Body.Casts) {
    slowRule(FaultRule::Cast);
    uint32_t FromN = varNode(C.From, Ctx), ToN = varNode(C.To, Ctx);
    noteCastEdgeWhy(FromN, ToN, RFact);
    addCastEdge(FromN, ToN, C.Target);
  }

  // Sanitize: copy edges filtered by the taint tag (invalid filter type;
  // see passesCastFilter).
  for (const SanitizeInstr &S : Body.Sanitizes) {
    uint32_t FromN = varNode(S.From, Ctx), ToN = varNode(S.To, Ctx);
    noteCastEdgeWhy(FromN, ToN, RFact, prov::Rule::Sanitize);
    addCastEdge(FromN, ToN, TypeId::invalid());
  }

  // LOAD / STORE: subscribe on the base variable.  Each object that ever
  // reaches the base connects the field slot to the local variable.
  for (const LoadInstr &L : Body.Loads) {
    slowRule(FaultRule::Load);
    uint32_t Base = varNode(L.Base, Ctx);
    subscribe(Base, SubKind::Load, L.Fld.index(), varNode(L.To, Ctx));
  }
  for (uint32_t SI = 0; SI < Body.Stores.size(); ++SI) {
    const StoreInstr &S = Body.Stores[SI];
    // A cut store has no generic subscription: dispatch() wires
    // actual -> receiver.field shortcut edges per call edge instead.
    if (CutPlan && CutPlan->isStoreCut(M, SI))
      continue;
    slowRule(FaultRule::Store);
    uint32_t Base = varNode(S.Base, Ctx);
    subscribe(Base, SubKind::Store, S.Fld.index(), varNode(S.From, Ctx));
  }

  // Static field accesses: global, context-free slots (Doop's model).
  for (const SLoadInstr &L : Body.SLoads) {
    PT_COUNT(Counters.RuleStaticLoad);
    slowRule(FaultRule::SLoad);
    uint32_t FromN = staticNode(L.Fld), ToN = varNode(L.To, Ctx);
    noteEdgeWhy(FromN, ToN, prov::Rule::StaticLoad, RFact);
    addEdge(FromN, ToN);
  }
  for (const SStoreInstr &S : Body.SStores) {
    PT_COUNT(Counters.RuleStaticStore);
    slowRule(FaultRule::SStore);
    uint32_t FromN = varNode(S.From, Ctx), ToN = staticNode(S.Fld);
    noteEdgeWhy(FromN, ToN, prov::Rule::StaticStore, RFact);
    addEdge(FromN, ToN);
  }

  // Throws: every object reaching the thrown variable is routed through
  // this frame's handlers (or escapes).
  for (const ThrowInstr &T : Body.Throws)
    subscribe(varNode(T.V, Ctx), SubKind::ThrowSub, M.index(), Ctx.index());

  // Calls.
  for (InvokeId Inv : Body.Invokes) {
    const InvokeInfo &Call = Prog.invoke(Inv);
    if (Call.IsStatic) {
      // SCALL: MERGESTATIC gives the callee context outright
      // (Figure 2, last rule).
      PT_COUNT(Counters.RuleSCall);
      slowRule(FaultRule::SCall);
      if (Opts.Faults.DropSCall)
        continue; // Injected bug (support/FaultPlan.h): see constructor.
      CtxId CalleeCtx = Policy.mergeStatic(Inv, Ctx);
      wireCall(Inv, Ctx, Call.Target, CalleeCtx, prov::Rule::SCall, RFact);
    } else {
      // VCALL: subscribe on the receiver; dispatch per arriving object
      // (Figure 2, second-to-last rule).
      subscribe(varNode(Call.Base, Ctx), SubKind::Dispatch, Inv.index(),
                Ctx.index());
    }
  }
}

void Solver::routeThrow(uint32_t Obj, MethodId M, CtxId Ctx, uint32_t WhyPrem,
                        uint32_t WhyAux) {
  if (checkBudget())
    return;
  PT_COUNT(Counters.RuleThrow);
  slowRule(FaultRule::Throw);
  // A valid aux premise (the call edge) means the object is escalating out
  // of a callee; otherwise it is raised locally by a throw instruction.
  bool Escalating = WhyAux != prov::InvalidFact;
  TypeId ObjType = Prog.heap(ObjHeaps[Obj]).Type;
  const MethodInfo &Body = Prog.method(M);
  bool Caught = false;
  for (const HandlerInfo &H : Body.Handlers) {
    if (Prog.isSubtype(ObjType, H.CatchType)) {
      uint32_t HN = varNode(H.Var, Ctx);
      if (addFact(HN, Obj) && provOn())
        Opts.Prov->step(provFact(HN, Obj),
                        Escalating ? prov::Rule::CatchEscalate
                                   : prov::Rule::CatchBind,
                        WhyPrem, WhyAux);
      Caught = true;
    }
  }
  if (!Caught) {
    uint32_t TN = throwNode(M, Ctx);
    if (addFact(TN, Obj) && provOn())
      Opts.Prov->step(provFact(TN, Obj),
                      Escalating ? prov::Rule::ThrowEscalate
                                 : prov::Rule::ThrowRaise,
                      WhyPrem, WhyAux);
  }
}

void Solver::addThrowLink(uint32_t ThrowNodeIdx, MethodId CallerM,
                          CtxId CallerCtx, uint32_t WhyAux) {
  uint64_t Link = packPair(CallerM.index(), CallerCtx.index());
  uint64_t DedupKey =
      mix64(Link) ^ (static_cast<uint64_t>(ThrowNodeIdx) << 1);
  if (!ThrowLinkDedup.insert(DedupKey))
    return;
  if (provOn())
    ThrowLinkWhy.tryEmplace(DedupKey, WhyAux);
  subscribe(ThrowNodeIdx, SubKind::ThrowLink, CallerM.index(),
            CallerCtx.index());
}

void Solver::dispatch(InvokeId Invo, CtxId CallerCtx, uint32_t Obj) {
  if (checkBudget())
    return;
  PT_COUNT(Counters.RuleVCall);
  slowRule(FaultRule::VCall);
  const InvokeInfo &Call = Prog.invoke(Invo);
  HeapId Heap = ObjHeaps[Obj];
  HCtxId HCtx = ObjHCtxs[Obj];
  // LOOKUP(heapT, sig, toMeth).
  MethodId Callee = Prog.lookup(Prog.heap(Heap).Type, Call.Sig);
  if (!Callee.isValid())
    return; // No receiver method: the concrete execution would throw.
  CtxId CalleeCtx = Policy.merge(Heap, HCtx, Invo, CallerCtx);
  // Provenance: the receiver fact justifies the call edge, the call edge
  // justifies callee reachability and the this-binding.  The edge fact is
  // interned eagerly (interning is not a derivation step); its own step is
  // recorded by wireCall on the first successful edge insert.
  uint32_t BaseFact = prov::InvalidFact, CEFact = prov::InvalidFact;
  if (provOn()) {
    BaseFact = prov::varPointsTo(*Opts.Prov, Call.Base, CallerCtx, Obj);
    CEFact = prov::callEdgeFact(*Opts.Prov, Invo, CallerCtx, Callee,
                                CalleeCtx);
  }
  // THISVAR binding: only this receiver object flows into `this` under the
  // context derived from it.
  const MethodInfo &CalleeInfo = Prog.method(Callee);
  ensureReachable(Callee, CalleeCtx, prov::Rule::ReachCall, CEFact);
  uint32_t ThisN = varNode(CalleeInfo.This, CalleeCtx);
  if (addFact(ThisN, Obj) && provOn())
    Opts.Prov->step(provFact(ThisN, Obj), prov::Rule::ThisBind, BaseFact,
                    CEFact);
  wireCall(Invo, CallerCtx, Callee, CalleeCtx, prov::Rule::VCall, BaseFact);

  // Receiver-dependent shortcut edges (context/CutShortcut.h), wired per
  // (call site, receiver object).  This cannot live in wireCall: the call
  // edge dedups by (invoke, ctx, callee, ctx), which collapses distinct
  // receiver objects under a contextless policy.  Everything below is
  // idempotent (edge dedup), matching dispatch's replay semantics.
  if (CutPlan) {
    const CutShortcutPlan::MethodPlan &MP = CutPlan->method(Callee);
    for (const CutShortcutPlan::StoreCut &SC : MP.StoreCuts) {
      if (SC.FormalIdx >= Call.Actuals.size())
        continue; // Arity mismatch: the generic param bind drops it too.
      uint32_t FromN = varNode(Call.Actuals[SC.FormalIdx], CallerCtx);
      uint32_t FN = fieldNode(Obj, SC.Fld);
      noteEdgeWhy(FromN, FN, prov::Rule::ShortcutStore, CEFact);
      addEdge(FromN, FN);
    }
    if (MP.RetCut && Call.RetTo.isValid()) {
      uint32_t RetN = varNode(Call.RetTo, CallerCtx);
      for (FieldId F : MP.RetLoads) {
        uint32_t FN = fieldNode(Obj, F);
        noteEdgeWhy(FN, RetN, prov::Rule::ShortcutRetLoad, CEFact);
        addEdge(FN, RetN);
      }
    }
  }
}

bool Solver::insertCallEdge(const CallGraphEdge &E) {
  uint32_t Words[4] = {E.Invo.index(), E.CallerCtx.index(),
                       E.Callee.index(), E.CalleeCtx.index()};
  uint64_t H = hashWords(Words, 4);
  uint32_t NewIdx = static_cast<uint32_t>(CallEdges.size());
  auto [Head, Fresh] = CallEdgeHead.tryEmplace(H, NewIdx);
  uint32_t ChainNext = UINT32_MAX;
  if (!Fresh) {
    for (uint32_t I = *Head; I != UINT32_MAX; I = CallEdgeNext[I]) {
      const CallGraphEdge &X = CallEdges[I];
      if (X.Invo == E.Invo && X.CallerCtx == E.CallerCtx &&
          X.Callee == E.Callee && X.CalleeCtx == E.CalleeCtx)
        return false;
    }
    ChainNext = *Head;
    *Head = NewIdx;
  }
  PT_COUNT(Counters.CallEdgesInserted);
  CallEdges.push_back(E);
  CallEdgeNext.push_back(ChainNext);
  return true;
}

void Solver::wireCall(InvokeId Invo, CtxId CallerCtx, MethodId Callee,
                      CtxId CalleeCtx, prov::Rule CallWhy, uint32_t CallPrem) {
  if (!insertCallEdge({Invo, CallerCtx, Callee, CalleeCtx}))
    return;

  // The call-edge fact: conclusion of VCALL/SCALL, auxiliary premise of
  // every interprocedural binding below.
  uint32_t CEFact = prov::InvalidFact;
  if (provOn())
    CEFact = Opts.Prov->recordFact(
        prov::FactKind::CallEdge, packPair(Invo.index(), CallerCtx.index()),
        packPair(Callee.index(), CalleeCtx.index()), CallWhy, CallPrem);

  ensureReachable(Callee, CalleeCtx, prov::Rule::ReachCall, CEFact);

  // INTERPROCASSIGN: actual -> formal edges (Figure 2, first rule).
  const InvokeInfo &Call = Prog.invoke(Invo);
  const MethodInfo &CalleeInfo = Prog.method(Callee);
  size_t NumArgs = std::min(Call.Actuals.size(), CalleeInfo.Formals.size());
  for (size_t I = 0; I < NumArgs; ++I) {
    uint32_t FromN = varNode(Call.Actuals[I], CallerCtx);
    uint32_t ToN = varNode(CalleeInfo.Formals[I], CalleeCtx);
    noteEdgeWhy(FromN, ToN, prov::Rule::ParamBind, CEFact);
    addEdge(FromN, ToN);
  }

  // Return value: formal-return -> actual-return (Figure 2, second rule).
  // A ret-cut callee (context/CutShortcut.h) drops this merged edge; the
  // receiver-independent shortcuts below cover every definition of the
  // return variable per call edge (receiver-dependent ret-loads are wired
  // in dispatch).
  const CutShortcutPlan::MethodPlan *MP =
      CutPlan ? &CutPlan->method(Callee) : nullptr;
  bool RetCut = MP && MP->RetCut;
  if (Call.RetTo.isValid() && CalleeInfo.Return.isValid() && !RetCut) {
    uint32_t FromN = varNode(CalleeInfo.Return, CalleeCtx);
    uint32_t ToN = varNode(Call.RetTo, CallerCtx);
    noteEdgeWhy(FromN, ToN, prov::Rule::ReturnBind, CEFact);
    addEdge(FromN, ToN);
  }
  if (RetCut && Call.RetTo.isValid()) {
    uint32_t RetN = varNode(Call.RetTo, CallerCtx);
    for (uint32_t Pos : MP->RetArgs) {
      if (Pos >= Call.Actuals.size())
        continue;
      uint32_t FromN = varNode(Call.Actuals[Pos], CallerCtx);
      noteEdgeWhy(FromN, RetN, prov::Rule::ShortcutRetArg, CEFact);
      addEdge(FromN, RetN);
    }
    for (HeapId H : MP->RetAllocs) {
      uint32_t Obj = internObject(H, Policy.record(H, CalleeCtx));
      if (addFact(RetN, Obj) && provOn())
        Opts.Prov->step(provFact(RetN, Obj), prov::Rule::ShortcutRetAlloc,
                        CEFact);
    }
  }

  // Exception escalation: what escapes the callee is raised in the
  // calling frame.
  addThrowLink(throwNode(Callee, CalleeCtx), Call.InMethod, CallerCtx,
               CEFact);
}

void Solver::processDelta(uint32_t NodeIdx) {
  // The pending delta is the set suffix [Scanned, size()): positions are
  // stable, so no batch is moved out — reentrant growth just extends the
  // suffix and the loop picks it up.
  //
  // Subscriptions may grow while we iterate (body instantiation reached
  // through dispatch can add loads on this very node), so use index loops
  // and re-read the list from Nodes[NodeIdx] each step.  One pass per kind
  // present, in SubKind order (see Node).  Subscriptions added
  // mid-processing replay the full set themselves, which includes this
  // delta; processing them again here is idempotent.
  while (true) {
    if (Aborted)
      return;
    {
      Node &N = Nodes[NodeIdx];
      if (N.Scanned >= N.Set.size())
        break;
    }
    uint32_t Obj = Nodes[NodeIdx].Set.at(Nodes[NodeIdx].Scanned++);

    for (unsigned K = 0; K < NumSubKinds; ++K) {
      if (!((Nodes[NodeIdx].Kinds >> K) & 1))
        continue;
      for (size_t I = 0; I < Nodes[NodeIdx].Subs.size(); ++I) {
        Sub S = Nodes[NodeIdx].Subs[I];
        if (unsigned(S.Kind) == K)
          propagate(NodeIdx, S, Obj);
      }
    }
  }
}

void Solver::drainWorklist() {
  while (!Worklist.empty()) {
    if (Aborted || checkBudget())
      return;
    ++StepCount;
    if (StepFaultArmed) {
      pollStepFaults();
      if (Aborted)
        return;
    }
    uint32_t NodeIdx = Worklist.front();
    Worklist.pop_front();
    PT_COUNT(Counters.WorklistSteps);
    pollHeartbeat();
    Nodes[NodeIdx].Queued = false;
    processDelta(NodeIdx);
  }
}

AnalysisResult Solver::run() {
  assert(!HasRun && "Solver::run may be called once");
  HasRun = true;

  Stopwatch Watch;
  CtxId Initial = Policy.initialContext();
  // Warm start: the fallback ladder seeds a coarser re-run with the
  // aborted finer run's reachable set (see SolverOptions::SeedReachable
  // for the soundness argument).  Seeds go in before the entry points so
  // their bodies instantiate exactly once either way.
  for (MethodId Seed : Opts.SeedReachable)
    ensureReachable(Seed, Initial, prov::Rule::Seed);
  for (MethodId Entry : Prog.entryPoints())
    ensureReachable(Entry, Initial, prov::Rule::Entry);
  drainWorklist();

  // One closing heartbeat regardless of cadence, so every traced run —
  // including aborted ones — leaves a last-known-state record behind
  // (the --explain-abort source).
  if (Opts.Trace)
    emitHeartbeat(/*Final=*/true);

  AnalysisResult Result = harvest();
  Result.SolveMs = Watch.elapsedMs();
  return Result;
}

size_t Solver::memoryBytes() const {
  static_assert(sizeof(Node) <= 64, "one cache line per solver node");
  size_t Bytes = Nodes.capacity() * sizeof(Node) +
                 Descs.capacity() * sizeof(NodeDesc);
  for (const Node &N : Nodes)
    Bytes += N.Set.memoryBytes() + N.Subs.capacity() * sizeof(Sub);
  Bytes += VarCtxIndex.memoryBytes() + FieldSlotIndex.memoryBytes() +
           StaticSlotIndex.memoryBytes() + ThrowSlotIndex.memoryBytes() +
           ThrowLinkDedup.memoryBytes() + ObjIndex.memoryBytes() +
           ReachableSet.memoryBytes() + CallEdgeHead.memoryBytes() +
           EdgeDedup.memoryBytes();
  Bytes += ObjHeaps.capacity() * sizeof(HeapId) +
           ObjHCtxs.capacity() * sizeof(HCtxId);
  Bytes += ReachableList.capacity() * sizeof(std::pair<MethodId, CtxId>);
  Bytes += CallEdges.capacity() * sizeof(CallGraphEdge) +
           CallEdgeNext.capacity() * sizeof(uint32_t);
  // Provenance costs count against the same budget: the derivation arena
  // plus the edge-justification side maps.
  if (PT_PROV_ACTIVE(Opts.Prov))
    Bytes += Opts.Prov->memoryBytes() + EdgeWhy.memoryBytes() +
             CastEdgeWhy.memoryBytes() + ThrowLinkWhy.memoryBytes();
  return Bytes;
}

void Solver::emitHeartbeat(bool Final) {
  trace::Heartbeat HB;
  HB.Label = Opts.TraceLabel;
  HB.Step = StepCount;
  HB.WorklistDepth = Worklist.size();
  HB.Nodes = Nodes.size();
  HB.Facts = FactCount;
  HB.Objects = ObjHeaps.size();
  HB.MemoryBytes = memoryBytes();
  HB.Final = Final;
  if (Final && Aborted)
    HB.Abort = abortReasonName(Reason);
  HB.Totals = Counters;
  HB.Deltas = Counters.since(LastBeat);
  LastBeat = Counters;
  StepsSinceBeat = 0;
  BeatWatch.restart();
  Opts.Trace->heartbeat(std::move(HB));
}

AnalysisResult Solver::harvest() {
  AnalysisResult Result(Prog, Policy);
  Result.Aborted = Aborted;
  Result.Reason = Reason;
  Result.FaultInjected = FaultInjected;
  Result.SolverNodes = Nodes.size();
  // Everything measured is append-only, so final == peak; computed before
  // the moves below empty the containers.
  Result.PeakBytes = memoryBytes();
  Result.Counters = Counters;
  Result.ObjHeaps = std::move(ObjHeaps);
  Result.ObjHCtxs = std::move(ObjHCtxs);
  Result.CallEdges = std::move(CallEdges);
  Result.Reachable = std::move(ReachableList);

  // Nothing reads the solver's state after run(), so each node is released
  // as it is harvested, and the node tables before the projection is
  // built: the harvest peak stays at the solve's.
  for (size_t I = 0; I < Nodes.size(); ++I) {
    Node N = std::move(Nodes[I]);
    if (N.Set.empty())
      continue;
    std::vector<uint32_t> Objs;
    Objs.reserve(N.Set.size());
    N.Set.forEach([&Objs](uint32_t Obj) { Objs.push_back(Obj); });
    std::sort(Objs.begin(), Objs.end());
    const NodeDesc &D = Descs[I];
    if (D.Kind == NodeKind::VarCtx) {
      Result.VarFacts.push_back(
          {VarId(D.A), CtxId(D.B), std::move(Objs)});
    } else if (D.Kind == NodeKind::FieldSlot) {
      Result.FieldFacts.push_back({D.A, FieldId(D.B), std::move(Objs)});
    } else if (D.Kind == NodeKind::StaticSlot) {
      Result.StaticFacts.push_back({FieldId(D.A), std::move(Objs)});
    } else {
      Result.ThrowFacts.push_back(
          {MethodId(D.A), CtxId(D.B), std::move(Objs)});
    }
  }
  std::vector<Node>().swap(Nodes);
  std::vector<NodeDesc>().swap(Descs);
  projectHarvest(Result);
  return Result;
}

AnalysisResult pt::solveProgram(const Program &Prog, ContextPolicy &Policy,
                                const SolverOptions &Opts) {
  Solver S(Prog, Policy, Opts);
  return S.run();
}
