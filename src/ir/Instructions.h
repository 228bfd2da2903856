//===- ir/Instructions.h - IR instruction payloads --------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain-data payloads for the six instruction kinds of the paper's input
/// language (Figure 1), plus reference casts.
///
/// The language is flow-insensitive: a method body is an unordered bag of
/// instructions, so instructions are stored in per-kind vectors on each
/// method rather than in a CFG.  Invocation sites carry more payload
/// (actuals, return target) and live in a central table addressed by
/// \c InvokeId; method bodies reference them by id.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_IR_INSTRUCTIONS_H
#define HYBRIDPT_IR_INSTRUCTIONS_H

#include "support/Ids.h"

#include <vector>

namespace pt {

/// `var = new T` — ALLOC(var, heap, inMeth).  The heap id *is* the
/// allocation site; its type and owning method live in \c HeapInfo.
struct AllocInstr {
  VarId Var;
  HeapId Heap;
  /// Source line of the instruction; 0 when unknown (generated code).
  uint32_t Line = 0;
};

/// `to = from` — MOVE(to, from).
struct MoveInstr {
  VarId To;
  VarId From;
  uint32_t Line = 0;
};

/// `to = (T) from` — a checked reference cast.
///
/// The paper's nine-rule model folds casts into moves; like Doop we keep
/// them distinct because (a) propagation is filtered by the target type and
/// (b) the "may-fail casts" precision client counts these sites.  \c Site
/// indexes the central cast-site table in \c Program.
struct CastInstr {
  VarId To;
  VarId From;
  TypeId Target;
  uint32_t Site;
  uint32_t Line = 0;
};

/// `to = base.fld` — LOAD(to, base, fld).
struct LoadInstr {
  VarId To;
  VarId Base;
  FieldId Fld;
  uint32_t Line = 0;
};

/// `base.fld = from` — STORE(base, fld, from).
struct StoreInstr {
  VarId Base;
  FieldId Fld;
  VarId From;
  uint32_t Line = 0;
};

/// `to = sanitize from` — a taint barrier (docs/CHECKS.md "Taint
/// analysis").
///
/// Semantically a move that only propagates objects whose allocation site
/// is untainted (\c HeapInfo::TaintTag == 0): the solver and the Datalog
/// reference wire it as a cast edge with an invalid filter type, read as
/// "pass iff the heap carries no taint tag".  For programs without taint
/// instrumentation it degenerates to a plain move (no heap carries a
/// tag).  Emitted by taint::instrument() for sanitizer call results and
/// available in irtext as `sanitize TO FROM`.
struct SanitizeInstr {
  VarId To;
  VarId From;
  uint32_t Line = 0;
};

/// `to = Owner.fld` — static field load.  Static fields are global,
/// context-insensitive slots (the paper omits them as "a mere engineering
/// complexity, as it does not interact with context choice"; Doop models
/// them exactly like this).
struct SLoadInstr {
  VarId To;
  FieldId Fld;
  uint32_t Line = 0;
};

/// `Owner.fld = from` — static field store.
struct SStoreInstr {
  FieldId Fld;
  VarId From;
  uint32_t Line = 0;
};

/// One invocation site, virtual (VCALL) or static (SCALL).
///
/// Virtual sites carry a receiver variable and a signature to look up in the
/// receiver's dynamic type; static sites carry a resolved target method.
struct InvokeInfo {
  /// True for SCALL, false for VCALL.
  bool IsStatic = false;
  /// The method whose body contains this call site.
  MethodId InMethod;
  /// Receiver variable; valid iff virtual.
  VarId Base;
  /// Signature to dispatch on; valid iff virtual.
  SigId Sig;
  /// Statically resolved callee; valid iff static.
  MethodId Target;
  /// Actual argument variables, in formal order (excluding the receiver).
  std::vector<VarId> Actuals;
  /// Variable receiving the return value, or invalid when ignored.
  VarId RetTo;
  /// Human-readable label for diagnostics and dumps.
  StrId Name;
  /// Source line of the call site; 0 when unknown.
  uint32_t Line = 0;
};

/// `throw v` — raises the object(s) \c V points to.
///
/// The exception model is block-insensitive (no try ranges, matching the
/// flow-insensitive language): a thrown object is caught by *every*
/// matching handler of the method it is raised or escalated into, and
/// escapes to all callers when no handler of that method matches.  This
/// is Doop's model minus try-range filtering.
struct ThrowInstr {
  VarId V;
  uint32_t Line = 0;
};

/// One exception handler of a method: objects whose dynamic type is a
/// subtype of \c CatchType bind to \c Var.
struct HandlerInfo {
  TypeId CatchType;
  VarId Var;
  uint32_t Line = 0;
};

/// One reference-cast site, for the may-fail-cast client.
struct CastSite {
  MethodId InMethod;
  VarId To;
  VarId From;
  TypeId Target;
  /// Source line of the cast; 0 when unknown.
  uint32_t Line = 0;
};

} // namespace pt

#endif // HYBRIDPT_IR_INSTRUCTIONS_H
