//===- pta/Explain.cpp --------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Explain.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

using namespace pt;

namespace {

/// Facts of the sorted relation \p Coarse missing from \p Refined.
template <typename T>
size_t countMissing(const std::vector<T> &Coarse,
                    const std::vector<T> &Refined) {
  size_t N = 0;
  for (const T &Fact : Coarse)
    N += !std::binary_search(Refined.begin(), Refined.end(), Fact);
  return N;
}

} // namespace

AnalysisDelta pt::diffResults(const AnalysisResult &Coarse,
                              const AnalysisResult &Refined) {
  AnalysisDelta Delta;

  // Cast verdicts with offender evidence from both sides.
  auto CoarseCasts = checkCasts(Coarse);
  auto RefinedCasts = checkCasts(Refined);
  std::unordered_map<uint32_t, const CastCheck *> RefinedBySite;
  for (const CastCheck &C : RefinedCasts)
    RefinedBySite.emplace(C.Site, &C);
  for (const CastCheck &C : CoarseCasts) {
    if (C.Verdict != CastVerdict::MayFail)
      continue;
    auto It = RefinedBySite.find(C.Site);
    bool RefinedFails =
        It != RefinedBySite.end() &&
        It->second->Verdict == CastVerdict::MayFail;
    if (RefinedFails) {
      Delta.CastsStillFailing.push_back(C.Site);
      continue;
    }
    CastFix Fix;
    Fix.Site = C.Site;
    const std::vector<HeapId> *RefinedOffenders =
        It != RefinedBySite.end() ? &It->second->Offenders : nullptr;
    for (HeapId H : C.Offenders) {
      bool StillThere =
          RefinedOffenders &&
          std::binary_search(RefinedOffenders->begin(),
                             RefinedOffenders->end(), H);
      if (!StillThere)
        Fix.RemovedOffenders.push_back(H);
    }
    Delta.CastsFixed.push_back(std::move(Fix));
  }

  // Devirtualization deltas.
  auto CoarseSites = devirtualizeCalls(Coarse);
  auto RefinedSites = devirtualizeCalls(Refined);
  std::unordered_map<uint32_t, const DevirtSite *> RefinedByInvo;
  for (const DevirtSite &S : RefinedSites)
    RefinedByInvo.emplace(S.Invo.index(), &S);
  for (const DevirtSite &S : CoarseSites) {
    auto It = RefinedByInvo.find(S.Invo.index());
    const std::vector<MethodId> Empty;
    const std::vector<MethodId> &After =
        It != RefinedByInvo.end() ? It->second->Targets : Empty;
    CallFix Fix;
    Fix.Invo = S.Invo;
    for (MethodId T : S.Targets)
      if (!std::binary_search(After.begin(), After.end(), T))
        Fix.RemovedTargets.push_back(T);
    if (!Fix.RemovedTargets.empty())
      Delta.CallsRefined.push_back(std::move(Fix));
  }

  Delta.VarPointsToPairsRemoved =
      countMissing(Coarse.Ci.VarPointsTo, Refined.Ci.VarPointsTo);
  Delta.CallEdgesRemoved =
      countMissing(Coarse.Ci.CallEdges, Refined.Ci.CallEdges);
  Delta.MethodsRemoved =
      countMissing(Coarse.Ci.ReachableMethods, Refined.Ci.ReachableMethods);
  return Delta;
}

std::string pt::formatDelta(const AnalysisDelta &Delta, const Program &Prog,
                            size_t DetailLimit) {
  std::ostringstream OS;
  OS << "precision delta: " << Delta.CastsFixed.size()
     << " casts fixed, " << Delta.CastsStillFailing.size()
     << " still failing; " << Delta.CallsRefined.size()
     << " call sites refined; " << Delta.VarPointsToPairsRemoved
     << " spurious var-points-to pairs, " << Delta.CallEdgesRemoved
     << " spurious call edges, " << Delta.MethodsRemoved
     << " unreachable methods removed\n";

  size_t Shown = 0;
  for (const CastFix &Fix : Delta.CastsFixed) {
    if (++Shown > DetailLimit) {
      OS << "  ... (" << (Delta.CastsFixed.size() - DetailLimit)
         << " more fixed casts)\n";
      break;
    }
    const CastSite &Site = Prog.castSite(Fix.Site);
    OS << "  fixed: (" << Prog.text(Prog.type(Site.Target).Name)
       << ") cast in " << Prog.qualifiedName(Site.InMethod)
       << "; eliminated:";
    size_t N = 0;
    for (HeapId H : Fix.RemovedOffenders) {
      if (++N > 3) {
        OS << " ...";
        break;
      }
      OS << ' ' << Prog.text(Prog.heap(H).Name);
    }
    OS << '\n';
  }

  Shown = 0;
  for (const CallFix &Fix : Delta.CallsRefined) {
    if (++Shown > DetailLimit) {
      OS << "  ... (" << (Delta.CallsRefined.size() - DetailLimit)
         << " more refined call sites)\n";
      break;
    }
    const InvokeInfo &Call = Prog.invoke(Fix.Invo);
    OS << "  refined: " << Prog.text(Call.Name) << " in "
       << Prog.qualifiedName(Call.InMethod) << "; no longer targets:";
    size_t N = 0;
    for (MethodId T : Fix.RemovedTargets) {
      if (++N > 3) {
        OS << " ...";
        break;
      }
      OS << ' ' << Prog.qualifiedName(T);
    }
    OS << '\n';
  }
  return OS.str();
}
