//===- pta/Metrics.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Metrics.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "support/TableWriter.h"

#include <unordered_set>

using namespace pt;

std::string pt::metricsCsvHeader(bool Taint, bool WithTime) {
  std::string Out = "policy,avg_objs_per_var,cg_edges,poly_vcalls,"
                    "may_fail_casts,reachable_methods";
  if (WithTime)
    Out += ",time_s";
  Out += ",cs_vpt";
  if (Taint)
    Out += ",tainted_sinks";
  return Out;
}

std::string pt::metricsCsvRow(const PrecisionMetrics &M,
                              const std::string &Label, bool Taint,
                              bool WithTime) {
  std::string Out = Label;
  Out += ',' + formatFixed(M.AvgPointsTo, 2);
  Out += ',' + std::to_string(M.CallGraphEdges);
  Out += ',' + std::to_string(M.PolyVCalls);
  Out += ',' + std::to_string(M.MayFailCasts);
  Out += ',' + std::to_string(M.ReachableMethods);
  if (WithTime)
    Out += ',' + formatFixed(M.SolveMs / 1000.0, 3);
  Out += ',' + std::to_string(M.CsVarPointsTo);
  if (Taint)
    Out += ',' + std::to_string(M.TaintedSinks);
  return Out;
}

PrecisionMetrics pt::computeMetrics(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  PrecisionMetrics M;
  M.Aborted = Result.Aborted;
  M.Reason = Result.Reason;
  M.FaultInjected = Result.FaultInjected;
  M.SolveMs = Result.SolveMs;
  M.PeakNodes = Result.SolverNodes;
  M.PeakBytes = Result.PeakBytes;
  M.Counters = Result.Counters;
  M.CsVarPointsTo = Result.numCsVarPointsTo();
  M.FieldPointsTo = Result.numFieldPointsTo();
  M.StaticFieldPointsTo = Result.numStaticFieldPointsTo();
  M.ThrowFacts = Result.numThrowFacts();
  M.UncaughtExceptionSites = Result.uncaughtExceptions().size();
  M.NumContexts = Result.policy().ctxTable().size();
  M.NumHContexts = Result.policy().hctxTable().size();
  M.NumObjects = Result.numObjects();

  // Everything below reads the harvested context-insensitive projection.
  // AvgPointsTo averages over variables with non-empty sets.
  const CiProjection &Ci = Result.Ci;
  size_t PointingVars = 0;
  for (size_t I = 0; I < Ci.VarPointsTo.size(); ++I)
    PointingVars +=
        I == 0 || Ci.VarPointsTo[I].first != Ci.VarPointsTo[I - 1].first;
  M.AvgPointsTo = PointingVars == 0
                      ? 0.0
                      : static_cast<double>(Ci.VarPointsTo.size()) /
                            static_cast<double>(PointingVars);
  M.CallGraphEdges = Ci.CallEdges.size();
  M.ReachableMethods = Ci.ReachableMethods.size();

  for (uint32_t MethodIdx : Ci.ReachableMethods) {
    const MethodInfo &Body = Prog.method(MethodId(MethodIdx));
    // Poly v-calls: reachable virtual sites whose target set has >= 2
    // methods.  Sites in reachable methods with zero targets are dead code
    // to the analysis and counted as reachable sites only.
    for (InvokeId Inv : Body.Invokes) {
      if (Prog.invoke(Inv).IsStatic)
        continue;
      ++M.ReachableVCalls;
      M.PolyVCalls += Ci.callees(Inv.index()).size() >= 2;
    }
    // May-fail casts over casts in reachable methods.
    M.ReachableCasts += Body.Casts.size();
    for (const CastInstr &C : Body.Casts)
      M.MayFailCasts += Ci.mayFailCast(C.Site);
  }

  // Tainted sinks: distinct (sink site, argument, tag) triples where a
  // reachable sink argument may point to a taint-tagged object.  This is
  // the count behind taint::findTaintedSinks / checker HPT007; programs
  // without taint instrumentation carry no sinks and report 0.
  for (const Program::TaintSink &S : Prog.taintSinks()) {
    const InvokeInfo &Inv = Prog.invoke(S.Site);
    if (!Ci.reachable(Inv.InMethod.index()) ||
        S.ArgIdx >= Inv.Actuals.size())
      continue;
    std::unordered_set<uint32_t> Tags;
    for (uint32_t HeapIdx : Ci.pointsTo(Inv.Actuals[S.ArgIdx].index()))
      if (uint32_t Tag = Prog.heap(HeapId(HeapIdx)).TaintTag)
        Tags.insert(Tag);
    M.TaintedSinks += Tags.size();
  }

  return M;
}
