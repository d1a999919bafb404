"""The reduction relation, the congruence key and the harmony oracle.

A reduction fires an output and an input prefix at two positions of the
process that are in parallel (not in two branches of one case) and whose
case guards the top-level assertions entail.  Restrictions are handled by
hoisting them to the top first, with the one hoisting routine
``process.hoist`` (which the congruence key uses too), and replication by
materialising copies on demand; both only use rewrites that are
structural-congruence laws.  The target puts the two continuations, the
received one under the match's substitution, beside the top-level
assertions and everything parallel to the two positions, all under the
hoisted binders.  The number of copies mirrors the labelled engine's
per-path replication budget so that harmony is exact at every fuel level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nominal import Fresh, Name, canonical, field_names, sort_key, support
from .params import CalculusInstance, Subst
from .process import (Assert, Bang, Case, Input, NIL, Output, Par, Process,
                      assertion_guarded, check_well_formed, hoist, par, res,
                      subst_process)
from .semantics import DEFAULT_FUEL, TauLabel, transitions


# ---------------------------------------------------------------------------
# Reduction steps


@dataclass(frozen=True)
class ReductionWitness:
    binders: tuple        # hoisted restrictions, outermost first
    assertions: tuple     # the unguarded assertions hoisted from the source
    sender: Process       # the output prefix process that fires
    receiver: Process     # the input prefix process that fires
    substitution: tuple   # the pattern-match witness


@dataclass(frozen=True)
class ReductionStep:
    source: Process
    target: Process
    witness: ReductionWitness


# ---------------------------------------------------------------------------
# Expansion of a process into positions

# The expansion tree mirrors the process structure after hoisting: parallel
# nodes carry hoisted binders and unguarded assertions, case nodes expand
# each branch, bang nodes materialise up to `fuel` copies, and every other
# component (a prefix at a position) is held as it is.  Each node keeps the
# original subterm so unused parts re-enter the target verbatim.  A position
# is the path of child, branch or copy indices from the root to a prefix.


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
    copies: tuple  # tuple[_ParN, ...]; copy i (from 0) costs i + 1 unfoldings


def _expand(p, fuel, fresh, taken):
    binders, asserts, comps = hoist(p, fresh, taken)
    children = []
    for q in comps:
        if isinstance(q, Case):
            children.append(_CaseN(q, tuple((phi, _expand(body, fuel, fresh, taken))
                                            for phi, body in q.branches)))
        elif isinstance(q, Bang):
            copies = tuple(_expand(q.body, fuel, fresh, taken) for _ in range(fuel))
            children.append(_BangN(q, copies))
        else:
            children.append(q)
    return _ParN(p, binders, asserts, tuple(children))


def _positions(node, path=(), guards=(), cost=0):
    """(path, prefix, case guards on the way, replication cost) for every
    output or input prefix of the tree."""
    if isinstance(node, (Output, Input)):
        yield path, node, guards, cost
    elif isinstance(node, _ParN):
        for i, child in enumerate(node.children):
            yield from _positions(child, path + (i,), guards, cost)
    elif isinstance(node, _CaseN):
        for j, (phi, sub) in enumerate(node.branches):
            yield from _positions(sub, path + (j,), guards + (phi,), cost)
    elif isinstance(node, _BangN):
        for i, copy in enumerate(node.copies):
            yield from _positions(copy, path + (i,), guards, cost + i + 1)


def _original(node) -> Process:
    return node.original if isinstance(node, (_ParN, _CaseN, _BangN)) else node


class _DifferentBranches(Exception):
    """Both positions sit in different branches of one case."""


def _rebuild(node, paths):
    """The binders hoisted on the way from ``node`` to the given positions
    (paths relative to ``node``), and the process parallel to them: the
    untouched children of each parallel node, the rest of the one case
    branch holding the positions, and for a bang the copies up to the last
    one used (an unused copy as the bang's body) beside the bang itself."""
    if isinstance(node, _CaseN):
        js = {path[0] for path in paths}
        if len(js) != 1:
            raise _DifferentBranches
        j = js.pop()
        return _rebuild(node.branches[j][1], [path[1:] for path in paths])
    if isinstance(node, _ParN):
        binders, kids, tail = list(node.binders), node.children, ()
    elif isinstance(node, _BangN):
        last = max(path[0] for path in paths)
        binders, kids, tail = [], node.copies[:last + 1], (node.original,)
    else:
        return (), NIL  # the prefix at a position
    rests = []
    for i, kid in enumerate(kids):
        mine = [path[1:] for path in paths if path[0] == i]
        if not mine:
            rests.append(_original(kid))
            continue
        bs, rest = _rebuild(kid, mine)
        binders.extend(bs)
        rests.append(rest)
    return tuple(binders), par(*rests, *tail)


# ---------------------------------------------------------------------------
# The reduction relation


def reductions(inst: CalculusInstance, p: Process, fuel=DEFAULT_FUEL) -> frozenset:
    """All reduction steps licensed by Struct, Scope and Ctxt, with at most
    ``fuel`` replication copies along any position's path."""
    check_well_formed(p)
    root = _expand(p, fuel, Fresh(p), set(support(p)))
    env = inst.unit
    for a in root.asserts:
        env = inst.compose(env, a)

    positions = [pos for pos in _positions(root) if pos[3] <= fuel]
    steps = []
    for o_path, o_prefix, o_guards, _ in positions:
        if not isinstance(o_prefix, Output):
            continue
        for i_path, i_prefix, i_guards, _ in positions:
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
                bs, rest = _rebuild(root, [o_path, i_path])
            except _DifferentBranches:
                continue
            for ts in matches:
                sigma = Subst.of(i_prefix.variables, ts)
                received = subst_process(inst, i_prefix.cont, sigma)
                target = res(bs, par(*(Assert(a) for a in root.asserts),
                                     o_prefix.cont, received, rest))
                witness = ReductionWitness(
                    binders=bs, assertions=root.asserts,
                    sender=o_prefix, receiver=i_prefix,
                    substitution=tuple(zip(i_prefix.variables, ts)))
                steps.append(ReductionStep(p, target, witness))
    return frozenset(steps)


# ---------------------------------------------------------------------------
# Structural-congruence normal forms (the harmony comparison relation)


def congruence_key(inst: CalculusInstance, p: Process):
    """A canonical form equal for processes related by binder hoisting
    across parallel, unit laws, parallel commutativity/associativity and
    binder reordering.  Used to compare reduction and tau targets."""
    return canonical(_cnorm(p))


def _cnorm(p):
    binders, asserts, comps = hoist(p, Fresh(p), set(support(p)))
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
    order.extend(b for b in binders if b in todo)
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
    lhs = {congruence_key(inst, Par(s.target, q_guarded))
           for s in reductions(inst, p, fuel)}
    rhs = {congruence_key(inst, s.target)
           for s in reductions(inst, Par(p, q_guarded), fuel)}
    return lhs <= rhs
