"""Reduction contexts, the reduction relation, and the harmony oracle.

A reduction plugs one output and one input prefix into a context built from
guarded processes, holes, parallel composition and case (one context branch
per case).  Restrictions are handled by hoisting them to the top first,
with the one hoisting routine ``process.hoist`` (which ``normal_form`` and
the congruence key use too), and replication by materialising copies on
demand; both only use rewrites that are structural-congruence laws, and
the number of copies mirrors the labelled engine's per-path replication
budget so that harmony is exact at every fuel level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nominal import Name, canonical, field_names, sort_key, support
from .params import CalculusInstance, Subst
from .process import (Assert, Bang, Case, Input, NIL, Output, Par, Process,
                      assertion_guarded, check_well_formed, hoist, par, res,
                      subst_process)
from .semantics import DEFAULT_FUEL, TauLabel, as_fuel, transitions


# ---------------------------------------------------------------------------
# Reduction contexts


class ReductionContext:
    __slots__ = ()


@dataclass(frozen=True)
class CtxProc(ReductionContext):
    proc: Process


@dataclass(frozen=True)
class CtxHole(ReductionContext):
    pass


HOLE = CtxHole()


@dataclass(frozen=True)
class CtxPar(ReductionContext):
    left: ReductionContext
    right: ReductionContext


@dataclass(frozen=True)
class CtxCase(ReductionContext):
    pre: tuple    # tuple[(condition, guarded Process), ...]
    guard: object
    inner: ReductionContext
    post: tuple


def holes(c: ReductionContext) -> int:
    if isinstance(c, CtxHole):
        return 1
    if isinstance(c, CtxProc):
        return 0
    if isinstance(c, CtxPar):
        return holes(c.left) + holes(c.right)
    if isinstance(c, CtxCase):
        return holes(c.inner)
    raise TypeError(c)


def fill(c: ReductionContext, procs):
    """Fill holes left-to-right; undefined (raises) on arity mismatch."""
    procs = list(procs)
    if holes(c) != len(procs):
        raise ValueError(f"context has {holes(c)} holes, got {len(procs)} processes")

    def go(c):
        if isinstance(c, CtxHole):
            return procs.pop(0)
        if isinstance(c, CtxProc):
            return c.proc
        if isinstance(c, CtxPar):
            return Par(go(c.left), go(c.right))
        branches = c.pre + ((c.guard, go(c.inner)),) + c.post
        return Case(branches)

    return go(c)


def conds(c: ReductionContext) -> frozenset:
    """The conditions guarding the holes."""
    if isinstance(c, (CtxHole, CtxProc)):
        return frozenset()
    if isinstance(c, CtxPar):
        return conds(c.left) | conds(c.right)
    return frozenset((c.guard,)) | conds(c.inner)


def ppr(c: ReductionContext) -> Process:
    """The processes parallel to the holes."""
    if isinstance(c, CtxHole):
        return NIL
    if isinstance(c, CtxProc):
        return c.proc
    if isinstance(c, CtxPar):
        return par(ppr(c.left), ppr(c.right))
    return ppr(c.inner)


# ---------------------------------------------------------------------------
# Reduction steps


@dataclass(frozen=True)
class ReductionWitness:
    binders: tuple        # hoisted restrictions, outermost first
    assertions: tuple     # the environment (nu binders)(|Psi_1| | ... | C[..])
    context: ReductionContext
    sender: Process       # the plugged output prefix process
    receiver: Process     # the plugged input prefix process
    sender_first: bool    # True when the sender fills the leftmost hole
    substitution: tuple   # the pattern-match witness


@dataclass(frozen=True)
class ReductionStep:
    source: Process
    target: Process
    witness: ReductionWitness


# ---------------------------------------------------------------------------
# Expansion of a process into pluggable positions

# The expansion tree mirrors the process structure after hoisting: parallel
# nodes carry hoisted binders and unguarded assertions, case nodes expand
# each branch, bang nodes materialise up to `fuel` copies.  Each node keeps
# the original subterm so unused parts re-enter the context verbatim.


@dataclass(frozen=True)
class _ParN:
    original: Process
    binders: tuple
    asserts: tuple
    children: tuple


@dataclass(frozen=True)
class _CaseN:
    original: Case
    branches: tuple  # tuple[(condition, _ParN), ...]


@dataclass(frozen=True)
class _BangN:
    original: Bang
    copies: tuple  # tuple[_ParN, ...], copy i at index i-1


@dataclass(frozen=True)
class _PrefN:
    proc: Process


@dataclass(frozen=True)
class _OtherN:
    proc: Process


def _expand(inst, p, fuel, avoid):
    binders, asserts, comps, avoid = hoist(p, avoid)
    children = []
    for q in comps:
        if isinstance(q, (Output, Input)):
            children.append(_PrefN(q))
        elif isinstance(q, Case):
            subs = []
            for phi, body in q.branches:
                node, avoid = _expand(inst, body, fuel, avoid)
                subs.append((phi, node))
            children.append(_CaseN(q, tuple(subs)))
        elif isinstance(q, Bang):
            copies = []
            for _ in range(fuel):
                node, avoid = _expand(inst, q.body, fuel, avoid)
                copies.append(node)
            children.append(_BangN(q, tuple(copies)))
        else:
            children.append(_OtherN(q))
    return _ParN(p, binders, asserts, tuple(children)), avoid


def _positions(node, path=(), guards=(), cost=0):
    if isinstance(node, _PrefN):
        yield path, node.proc, guards, cost
        return
    if isinstance(node, _OtherN):
        return
    if isinstance(node, _ParN):
        for i, child in enumerate(node.children):
            yield from _positions(child, path + (("par", i),), guards, cost)
        return
    if isinstance(node, _CaseN):
        for j, (phi, sub) in enumerate(node.branches):
            yield from _positions(sub, path + (("case", j),), guards + (phi,), cost)
        return
    if isinstance(node, _BangN):
        for ci, copy in enumerate(node.copies, start=1):
            yield from _positions(copy, path + (("copy", ci),), guards, cost + ci)
        return
    raise TypeError(node)


def _original(node) -> Process:
    if isinstance(node, _ParN):
        return node.original
    if isinstance(node, (_PrefN, _OtherN)):
        return node.proc
    if isinstance(node, (_CaseN, _BangN)):
        return node.original
    raise TypeError(node)


class _DifferentBranches(Exception):
    """Both holes would sit in different branches of one case."""


def _rebuild(node, relpaths):
    """Context, hoisted binders and hole markers for a node containing the
    given (relative path, marker) pairs."""
    if isinstance(node, _PrefN):
        (rp, marker), = relpaths
        assert rp == ()
        return (), HOLE, (marker,)

    if isinstance(node, _ParN):
        binders = list(node.binders)
        markers = []
        ctxs = []
        for i, child in enumerate(node.children):
            mine = [(rp[1:], mk) for rp, mk in relpaths if rp and rp[0] == ("par", i)]
            if not mine:
                ctxs.append(CtxProc(_original(child)))
                continue
            bs, ctx, mks = _rebuild(child, mine)
            binders.extend(bs)
            ctxs.append(ctx)
            markers.extend(mks)
        ctx = ctxs[0] if len(ctxs) == 1 else _fold_par(ctxs)
        return tuple(binders), ctx, tuple(markers)

    if isinstance(node, _CaseN):
        js = {rp[0][1] for rp, _ in relpaths}
        if len(js) != 1:
            raise _DifferentBranches
        j = js.pop()
        mine = [(rp[1:], mk) for rp, mk in relpaths]
        bs, inner, mks = _rebuild(node.branches[j][1], mine)
        pre = node.original.branches[:j]
        post = node.original.branches[j + 1:]
        return bs, CtxCase(pre, node.original.branches[j][0], inner, post), mks

    if isinstance(node, _BangN):
        used = {rp[0][1] for rp, _ in relpaths}
        m = max(used)
        binders = []
        ctxs = []
        markers = []
        for ci in range(1, m + 1):
            mine = [(rp[1:], mk) for rp, mk in relpaths if rp[0] == ("copy", ci)]
            if not mine:
                ctxs.append(CtxProc(node.original.body))
                continue
            bs, ctx, mks = _rebuild(node.copies[ci - 1], mine)
            binders.extend(bs)
            ctxs.append(ctx)
            markers.extend(mks)
        ctxs.append(CtxProc(node.original))
        return tuple(binders), _fold_par(ctxs), tuple(markers)

    raise TypeError(node)


def _fold_par(ctxs):
    out = ctxs[0]
    for c in ctxs[1:]:
        out = CtxPar(out, c)
    return out


# ---------------------------------------------------------------------------
# The reduction relation


def reductions(inst: CalculusInstance, p: Process, fuel=DEFAULT_FUEL) -> frozenset:
    """All reduction steps licensed by Struct, Scope and Ctxt, with at most
    ``fuel.rep_depth`` replication copies along any position's path."""
    check_well_formed(p)
    fuel = as_fuel(fuel)
    root, _ = _expand(inst, p, fuel.rep_depth, support(p))
    env = inst.unit
    for a in root.asserts:
        env = inst.compose(env, a)

    positions = [pos for pos in _positions(root)
                 if pos[3] <= fuel.rep_depth]
    steps = []
    for out_pos in positions:
        o_path, o_prefix, o_guards, _ = out_pos
        if not isinstance(o_prefix, Output):
            continue
        for in_pos in positions:
            i_path, i_prefix, i_guards, _ = in_pos
            if i_path == o_path or not isinstance(i_prefix, Input):
                continue
            if not inst.entails(env, inst.conn(o_prefix.channel, i_prefix.channel)):
                continue
            if not all(inst.entails(env, g) for g in o_guards + i_guards):
                continue
            matches = inst.match_pattern(i_prefix.variables, i_prefix.pattern,
                                         o_prefix.message)
            if not matches:
                continue
            try:
                bs, ctx, markers = _rebuild(
                    root, [(o_path, "out"), (i_path, "in")])
            except _DifferentBranches:
                continue
            for ts in matches:
                sigma = Subst.of(i_prefix.variables, ts)
                received = subst_process(inst, i_prefix.cont, sigma)
                target = res(bs, par(*(Assert(a) for a in root.asserts),
                                     o_prefix.cont, received, ppr(ctx)))
                witness = ReductionWitness(
                    binders=bs, assertions=root.asserts, context=ctx,
                    sender=o_prefix, receiver=i_prefix,
                    sender_first=markers[0] == "out",
                    substitution=tuple(zip(i_prefix.variables, ts)))
                steps.append(ReductionStep(p, target, witness))
    return frozenset(steps)


# ---------------------------------------------------------------------------
# Structural-congruence normal forms (the harmony comparison relation)


def congruence_key(inst: CalculusInstance, p: Process):
    """A canonical form equal for processes related by binder hoisting
    across parallel, unit laws, parallel commutativity/associativity and
    binder reordering.  Used to compare reduction and tau targets."""
    return canonical(_cnorm(inst, p))


def _cnorm(inst, p):
    binders, asserts, comps, _ = hoist(p, support(p))
    parts = [Assert(a) for a in asserts] + comps
    parts.sort(key=lambda q: (sort_key(canonical(q)), sort_key(q)))
    body = par(*parts)
    used = support(body)
    live = [b for b in binders if b in used]
    # binder order is congruence-irrelevant; fix it by first occurrence
    order = _first_occurrence_order(body, live)
    return res(order, body)


def _first_occurrence_order(value, binders):
    todo = set(binders)
    order = []

    def walk(v):
        if not todo:
            return
        if isinstance(v, Name):
            if v in todo:
                todo.discard(v)
                order.append(v)
            return
        if isinstance(v, tuple):
            for e in v:
                walk(e)
        elif isinstance(v, frozenset):
            for e in sorted(v, key=sort_key):
                walk(e)
        else:
            for f in field_names(type(v)) or ():
                walk(getattr(v, f))

    walk(value)
    order.extend(b for b in binders if b not in set(order))
    return tuple(order)


# ---------------------------------------------------------------------------
# Harmony and the derived parallel rule


@dataclass(frozen=True)
class HarmonyReport:
    matched: int
    reduction_only: tuple  # congruence keys with no matching tau
    tau_only: tuple

    @property
    def ok(self):
        return not self.reduction_only and not self.tau_only


def harmony_check(inst: CalculusInstance, p: Process, fuel=DEFAULT_FUEL) -> HarmonyReport:
    """Compare reductions with unit-environment tau transitions, matching
    targets up to the congruence normal form, in both directions."""
    fuel = as_fuel(fuel)
    red = {congruence_key(inst, s.target) for s in reductions(inst, p, fuel)}
    tau = {congruence_key(inst, t.target)
           for t in transitions(inst, inst.unit, p, fuel)
           if isinstance(t.label, TauLabel)}
    return HarmonyReport(matched=len(red & tau),
                         reduction_only=tuple(sorted(map(repr, red - tau))),
                         tau_only=tuple(sorted(map(repr, tau - red))))


def derived_par(inst: CalculusInstance, p: Process, q_guarded: Process,
                fuel=DEFAULT_FUEL) -> bool:
    """The derived rule: every reduction of P survives in P | Q_G."""
    if not assertion_guarded(q_guarded):
        raise ValueError("derived_par requires an assertion-guarded right component")
    fuel = as_fuel(fuel)
    lhs = {congruence_key(inst, Par(s.target, q_guarded))
           for s in reductions(inst, p, fuel)}
    rhs = {congruence_key(inst, s.target)
           for s in reductions(inst, Par(p, q_guarded), fuel)}
    return lhs <= rhs
