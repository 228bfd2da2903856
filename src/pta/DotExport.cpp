//===- pta/DotExport.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/DotExport.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"

#include <map>
#include <ostream>
#include <set>
#include <sstream>

using namespace pt;

namespace {

/// DOT-escapes a label.
std::string escape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

void pt::writeCallGraphDot(const AnalysisResult &Result, std::ostream &OS,
                           const CallGraphDotOptions &Opts) {
  const Program &Prog = Result.program();

  // Context-insensitive edges: caller method -> callee method.
  std::set<std::pair<uint32_t, uint32_t>> Edges;
  std::map<uint32_t, size_t> Degree;
  for (const auto &[Invo, Callee] : Result.Ci.CallEdges) {
    uint32_t Caller = Prog.invoke(InvokeId(Invo)).InMethod.index();
    if (Edges.insert({Caller, Callee}).second) {
      ++Degree[Caller];
      ++Degree[Callee];
    }
  }

  auto Keep = [&](uint32_t M) {
    return Opts.HubLimit == 0 || Degree[M] <= Opts.HubLimit;
  };

  OS << "digraph callgraph {\n  rankdir=LR;\n  node [shape=box, "
        "fontsize=9];\n";

  // Nodes, optionally clustered by class.
  std::set<uint32_t> Methods;
  for (const auto &[Caller, Callee] : Edges) {
    if (Keep(Caller))
      Methods.insert(Caller);
    if (Keep(Callee))
      Methods.insert(Callee);
  }
  if (Opts.ClusterByClass) {
    std::map<uint32_t, std::set<uint32_t>> ByClass;
    for (uint32_t M : Methods)
      ByClass[Prog.method(MethodId(M)).Owner.index()].insert(M);
    for (const auto &[Cls, Members] : ByClass) {
      OS << "  subgraph cluster_" << Cls << " {\n    label=\""
         << escape(Prog.text(Prog.type(TypeId(Cls)).Name)) << "\";\n";
      for (uint32_t M : Members)
        OS << "    m" << M << " [label=\""
           << escape(Prog.qualifiedName(MethodId(M))) << "\"];\n";
      OS << "  }\n";
    }
  } else {
    for (uint32_t M : Methods)
      OS << "  m" << M << " [label=\""
         << escape(Prog.qualifiedName(MethodId(M))) << "\"];\n";
  }

  for (const auto &[Caller, Callee] : Edges)
    if (Keep(Caller) && Keep(Callee))
      OS << "  m" << Caller << " -> m" << Callee << ";\n";
  OS << "}\n";
}

void pt::writePointsToDot(const AnalysisResult &Result, MethodId Focus,
                          std::ostream &OS) {
  const Program &Prog = Result.program();
  const MethodInfo &Body = Prog.method(Focus);

  std::set<uint32_t> FocusVars;
  for (VarId V : Body.Locals)
    FocusVars.insert(V.index());

  OS << "digraph pointsto {\n  rankdir=LR;\n"
        "  node [fontsize=9];\n";

  // Variable -> heap edges.
  std::set<uint32_t> Heaps;
  for (uint32_t V : FocusVars) {
    auto Pts = Result.Ci.pointsTo(V);
    if (Pts.empty())
      continue;
    OS << "  v" << V << " [shape=box, label=\""
       << escape(Prog.text(Prog.var(VarId(V)).Name)) << "\"];\n";
    Heaps.insert(Pts.begin(), Pts.end());
  }
  for (uint32_t H : Heaps)
    OS << "  h" << H << " [shape=ellipse, label=\""
       << escape(Prog.text(Prog.heap(HeapId(H)).Name)) << "\"];\n";
  for (uint32_t V : FocusVars)
    for (uint32_t H : Result.Ci.pointsTo(V))
      OS << "  v" << V << " -> h" << H << ";\n";

  // Field edges among the displayed objects.
  for (uint32_t BaseH : Heaps)
    for (const auto &[Base, Fld, H] : Result.Ci.fieldsOf(BaseH))
      if (Heaps.count(H))
        OS << "  h" << BaseH << " -> h" << H << " [style=dashed, label=\""
           << escape(Prog.text(Prog.field(FieldId(Fld)).Name)) << "\"];\n";
  OS << "}\n";
}

std::string pt::callGraphDot(const AnalysisResult &Result,
                             const CallGraphDotOptions &Opts) {
  std::ostringstream OS;
  writeCallGraphDot(Result, OS, Opts);
  return OS.str();
}

std::string pt::pointsToDot(const AnalysisResult &Result, MethodId Focus) {
  std::ostringstream OS;
  writePointsToDot(Result, Focus, OS);
  return OS.str();
}
