//===- pta/AnalysisResult.cpp -------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/AnalysisResult.h"

#include "ir/Program.h"

#include <algorithm>

using namespace pt;

const char *pt::abortReasonName(AbortReason Reason) {
  switch (Reason) {
  case AbortReason::None:
    return "none";
  case AbortReason::TimeBudget:
    return "time_budget";
  case AbortReason::FactBudget:
    return "fact_budget";
  case AbortReason::MemoryBudget:
    return "memory_budget";
  case AbortReason::Cancelled:
    return "cancelled";
  }
  return "none";
}

std::vector<HeapId> AnalysisResult::pointsTo(VarId V) const {
  std::vector<HeapId> Out;
  for (uint32_t H : Ci.pointsTo(V.index()))
    Out.push_back(HeapId(H));
  return Out;
}

std::vector<MethodId> AnalysisResult::callTargets(InvokeId I) const {
  std::vector<MethodId> Out;
  for (uint32_t M : Ci.callees(I.index()))
    Out.push_back(MethodId(M));
  return Out;
}

std::vector<MethodId> AnalysisResult::reachableMethods() const {
  return {Ci.ReachableMethods.begin(), Ci.ReachableMethods.end()};
}

size_t AnalysisResult::numCsVarPointsTo() const {
  size_t N = 0;
  for (const VarFactsEntry &E : VarFacts)
    N += E.Objs.size();
  return N;
}

size_t AnalysisResult::numFieldPointsTo() const {
  size_t N = 0;
  for (const FieldFactsEntry &E : FieldFacts)
    N += E.Objs.size();
  return N;
}

size_t AnalysisResult::numStaticFieldPointsTo() const {
  size_t N = 0;
  for (const StaticFactsEntry &E : StaticFacts)
    N += E.Objs.size();
  return N;
}

size_t AnalysisResult::numThrowFacts() const {
  size_t N = 0;
  for (const ThrowFactsEntry &E : ThrowFacts)
    N += E.Objs.size();
  return N;
}

std::vector<HeapId> AnalysisResult::uncaughtExceptions() const {
  std::vector<HeapId> Out;
  const auto &Entries = Prog->entryPoints();
  for (const ThrowFactsEntry &E : ThrowFacts) {
    bool IsEntry =
        std::find(Entries.begin(), Entries.end(), E.Meth) != Entries.end();
    if (!IsEntry)
      continue;
    for (uint32_t Obj : E.Objs)
      Out.push_back(objHeap(Obj));
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

namespace {

/// Appends the canonical element tuple of a context to \p Row.
template <typename IdT>
void appendCtx(std::vector<uint32_t> &Row, const ContextTable<IdT> &Table,
               IdT Id) {
  appendCanonicalContext(Table, Id, Row);
}

void sortRows(std::vector<std::vector<uint32_t>> &Rows) {
  std::sort(Rows.begin(), Rows.end());
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
}

} // namespace

std::vector<std::vector<uint32_t>> AnalysisResult::exportVarPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  const auto &HCtxs = Policy->hctxTable();
  for (const VarFactsEntry &E : VarFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(E.Var.index());
      appendCtx(Row, Ctxs, E.Ctx);
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>> AnalysisResult::exportCallGraph() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  for (const CallGraphEdge &E : CallEdges) {
    std::vector<uint32_t> Row;
    Row.push_back(E.Invo.index());
    appendCtx(Row, Ctxs, E.CallerCtx);
    Row.push_back(E.Callee.index());
    appendCtx(Row, Ctxs, E.CalleeCtx);
    Rows.push_back(std::move(Row));
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>>
AnalysisResult::exportFieldPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &HCtxs = Policy->hctxTable();
  for (const FieldFactsEntry &E : FieldFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(objHeap(E.BaseObj).index());
      appendCtx(Row, HCtxs, objHCtx(E.BaseObj));
      Row.push_back(E.Fld.index());
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>>
AnalysisResult::exportStaticFieldPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &HCtxs = Policy->hctxTable();
  for (const StaticFactsEntry &E : StaticFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(E.Fld.index());
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>>
AnalysisResult::exportThrowPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  const auto &HCtxs = Policy->hctxTable();
  for (const ThrowFactsEntry &E : ThrowFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(E.Meth.index());
      appendCtx(Row, Ctxs, E.Ctx);
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>> AnalysisResult::exportReachable() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  for (const auto &[M, Ctx] : Reachable) {
    std::vector<uint32_t> Row;
    Row.push_back(M.index());
    appendCtx(Row, Ctxs, Ctx);
    Rows.push_back(std::move(Row));
  }
  sortRows(Rows);
  return Rows;
}
