//===- context/Policy.h - Context-sensitivity policies ----------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's parameterization of context-sensitive points-to analysis
/// (Figure 1): three constructor functions behind which "these aspects are
/// completely hidden" from the analysis rules.
///
///  - \c record(heap, ctx)              = new heap context (RECORD)
///  - \c merge(heap, hctx, invo, ctx)   = callee context at a virtual call
///                                        (MERGE)
///  - \c mergeStatic(invo, ctx)         = callee context at a static call
///                                        (MERGESTATIC — the paper's new
///                                        knob for selective hybrids)
///
/// A policy owns the hash-consing tables for both context domains, so
/// context identity is per-analysis-run.  Both solvers (the specialized one
/// in src/pta and the Datalog reference in src/ptaref) drive the same
/// policy objects, which is what makes their results comparable.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CONTEXT_POLICY_H
#define HYBRIDPT_CONTEXT_POLICY_H

#include "context/ContextTable.h"
#include "support/Ids.h"

#include <string>

namespace pt {

class Program;
struct CutShortcutPlan;

/// Abstract context-sensitivity policy (one per analysis flavor).
class ContextPolicy {
public:
  explicit ContextPolicy(const Program &Prog) : Prog(Prog) {}
  virtual ~ContextPolicy();

  /// The analysis abbreviation from the paper, e.g. "S-2obj+H".
  virtual std::string name() const = 0;

  /// Number of slots in method contexts produced by this policy.
  virtual uint32_t methodCtxArity() const = 0;

  /// Number of slots in heap contexts produced by this policy.
  virtual uint32_t heapCtxArity() const = 0;

  /// RECORD(heap, ctx): the heap context attached to an object allocated at
  /// \p Heap in a method analyzed under \p Ctx.
  virtual HCtxId record(HeapId Heap, CtxId Ctx) = 0;

  /// MERGE(heap, hctx, invo, ctx): the callee context for a virtual call at
  /// \p Invo in caller context \p Ctx, on a receiver abstracted as
  /// (\p Heap, \p HCtx).
  virtual CtxId merge(HeapId Heap, HCtxId HCtx, InvokeId Invo, CtxId Ctx) = 0;

  /// MERGESTATIC(invo, ctx): the callee context for a static call at
  /// \p Invo in caller context \p Ctx.
  virtual CtxId mergeStatic(InvokeId Invo, CtxId Ctx) = 0;

  /// The cut-shortcut plan of this policy, or null for pure context-tuple
  /// policies.  When non-null, the solver cuts the planned flows at call
  /// boundaries and wires per-call-edge shortcut edges instead, and the
  /// Datalog reference model mirrors the same cuts (see
  /// context/CutShortcut.h).
  virtual const CutShortcutPlan *cutPlan() const { return nullptr; }

  /// The context under which entry-point methods are analyzed: a tuple of
  /// stars of the policy's method arity.
  CtxId initialContext();

  ContextTable<CtxId> &ctxTable() { return Ctxs; }
  const ContextTable<CtxId> &ctxTable() const { return Ctxs; }
  ContextTable<HCtxId> &hctxTable() { return HCtxs; }
  const ContextTable<HCtxId> &hctxTable() const { return HCtxs; }

  const Program &program() const { return Prog; }

protected:
  /// Interns a method context of exactly \c methodCtxArity() slots, padding
  /// with stars.
  CtxId makeCtx(ContextElem A = ContextElem::star(),
                ContextElem B = ContextElem::star(),
                ContextElem C = ContextElem::star());

  /// Interns a heap context of exactly \c heapCtxArity() slots.
  HCtxId makeHCtx(ContextElem A = ContextElem::star(),
                  ContextElem B = ContextElem::star(),
                  ContextElem C = ContextElem::star());

  /// The paper's CA : H -> T (class containing the allocation site), as a
  /// context element.
  ContextElem caElem(HeapId Heap) const;

  const Program &Prog;
  ContextTable<CtxId> Ctxs;
  ContextTable<HCtxId> HCtxs;
};

} // namespace pt

#endif // HYBRIDPT_CONTEXT_POLICY_H
