//===- pta/Clients.cpp ----------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Clients.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"

#include <algorithm>

using namespace pt;

std::vector<DevirtSite> pt::devirtualizeCalls(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  std::vector<DevirtSite> Rows;
  for (uint32_t M : Result.Ci.ReachableMethods) {
    for (InvokeId Inv : Prog.method(MethodId(M)).Invokes) {
      if (Prog.invoke(Inv).IsStatic)
        continue;
      DevirtSite Row;
      Row.Invo = Inv;
      for (uint32_t T : Result.Ci.callees(Inv.index()))
        Row.Targets.push_back(MethodId(T));
      Row.Verdict = Row.Targets.empty()       ? DevirtVerdict::Dead
                    : Row.Targets.size() == 1 ? DevirtVerdict::Monomorphic
                                              : DevirtVerdict::Polymorphic;
      Rows.push_back(std::move(Row));
    }
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const DevirtSite &A, const DevirtSite &B) {
              return A.Invo < B.Invo;
            });
  return Rows;
}

std::vector<CastCheck> pt::checkCasts(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  std::vector<CastCheck> Rows;
  for (uint32_t M : Result.Ci.ReachableMethods) {
    for (const CastInstr &C : Prog.method(MethodId(M)).Casts) {
      CastCheck Row;
      Row.Site = C.Site;
      auto Heaps = Result.Ci.pointsTo(C.From.index());
      for (uint32_t H : Heaps)
        if (!Prog.isSubtype(Prog.heap(HeapId(H)).Type, C.Target))
          Row.Offenders.push_back(HeapId(H));
      Row.Verdict = Heaps.empty()             ? CastVerdict::Unreached
                    : Row.Offenders.empty()   ? CastVerdict::Safe
                                              : CastVerdict::MayFail;
      Rows.push_back(std::move(Row));
    }
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const CastCheck &A, const CastCheck &B) {
              return A.Site < B.Site;
            });
  return Rows;
}
