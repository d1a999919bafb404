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

Harmony compares the targets of reductions and of tau transitions by
``congruence_key``, which is exact: two processes get one key exactly when
hoisting the restrictions of their Par/Res spines leaves the same parts, up
to a bijection of the live hoisted binders, a permutation of the parts and
alpha-conversion.  The key is alpha-invariant, so harmony keys the raw tau
targets of the engine's derivation, with no canonical form in between.
The key hoists once, and then walks each part once with
``nominal._canon``, numbering the hoisted binders and the free scratch atoms
(the *renamable* atoms, binders and scratch atoms kept apart) by first
occurrence inside that part.  That gives the part's *shape*, which no
atom's id affects, and the list of the renamable atoms it holds, in order.
Parts that share a renamable atom form a component.  Inside a component the
parts go in the order of their shapes, and the atoms are numbered again
along that order.  The ties left, parts of one shape (``_placed``) and
equal-shaped set elements that would number new atoms
(``nominal._canon_set``), go to ``nominal.least``, the one search that
``canonical`` uses too: it tries each choice that no automorphism of the
component relates to one tried, which keeps symmetric inputs cheap, and
keeps the least numbering, for a part its least shape with the atom list
of each choice that gives it.  A part that meets no tie is walked once.
The key is the multiset of the component keys.  A shape and a component
key are each a *certificate*: a string that two parts (or components)
share exactly when their canonical forms are equal, the ``repr`` of the
form's ``sort_key`` (McKay and Piperno, 2014).  CPython keeps a string's
hash and compares two equal strings with one ``memcmp``.

A fact of one node lives on the node (``nominal._keep``), and a fact of
several nodes in the query.  A part's shape depends only on the part and
on which of its free names are hoisted binders, so the part keeps it
(``_part_entry``) past the query: a query repeated on the same nodes walks
only the parts new in its targets.  A component's key depends on its
parts: the keys of one query share a table of them, looked up by the
identity of the parts' entries (hash-consing's sharing by identity,
Filliâtre and Conchon, 2006).  The engine's tau targets share the parts
they leave untouched, so harmony walks each part and keys each component
once.

A tau target also holds whole the subtrees of the source that its Com left
alone, as the source's own nodes.  So at the query's first firing, which
comes before its first tau target, the source's closed Par and Res nodes
keep their key counts (``_record_closed``), and the key's ``hoist`` cuts
any node that keeps counts, taking it whole, as its counts.  That is exact
for counts from any query: a closed subtree c of the spine has no free
name, so T ≡ c | T[c := 0], and no renamable atom links a part of c to
another part, whence key(T) = key(c) ⊎ key(T[c := 0]).  Only the key
writes these facts, so the oracle stays independent of the engine.  A tau
target then costs its walk down to the nodes the Com touched, and a lookup
per part and per component there.

A reduction target is keyed without building it, as a delta from its
source (``_reduction_key``).  ``reductions`` and harmony read one
enumeration of the pairs that fire (``_fired``).  At the first of them
harmony makes all of the source's key facts (``_Summary``): it records the
closed nodes, and keys the source's hoisted form by component.  A
firing replaces the top-level parts that hold its two prefixes by its new
parts: the two continuations and the rest of a touched case or bang,
hoisted from the source's one supply.  Its key is the source's, without
the components of the replaced parts, and with the components that the
rest of their parts and the new parts form.  That is exact.  An untouched
component keeps its parts, and each of them its live hoisted binders, for
the target keeps every binder of the source, and a binder new in the
target is free in no part of the source.  No new part shares a renamable
atom with an untouched component: each of its renamable atoms is free in a
replaced part or new in the target.  A replaced part may have held its
component together, so the rest of it is grouped again.

Hoisting renames a binder only on a clash, when the binder is hoisted
twice or is free in a part outside its scope.  The key's ``hoist`` finds a
clash on its own spine walk, from the binders in scope of each part, and
reads the free names of the whole target only then.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .nominal import (_canon, _CanonState, _keep, _Tied, canonical, Fresh, least,
                      sort_key, support)
from .params import CalculusInstance, Subst
from .process import (Bang, Case, Input, NIL, Nil, Output, Par, Process, Res,
                      assertion_guarded, check_well_formed, hoist, par, res,
                      subst_process)
from .semantics import _derive, _PROVENANCE, DEFAULT_FUEL, TauLabel


# ---------------------------------------------------------------------------
# Reduction steps


@dataclass(frozen=True)
class ReductionStep:
    """One firing of ``reductions``: its ``target``, the output prefix
    process ``sender`` and the input prefix process ``receiver`` that fire,
    and the pattern match's ``substitution``, as (variable, term) pairs.
    The source is the argument of ``reductions``."""
    target: Process
    sender: Process
    receiver: Process
    substitution: tuple


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
    copies: tuple  # tuple[_ParN, ...]; copy i (from 0) has the fuel less i + 1


def _expand(p, fuel, fresh, taken):
    binders, asserts, comps = hoist(p, fresh, taken)
    children = []
    for q in comps:
        if isinstance(q, Case):
            children.append(_CaseN(q, tuple((phi, _expand(body, fuel, fresh, taken))
                                            for phi, body in q.branches)))
        elif isinstance(q, Bang):
            copies = tuple(_expand(q.body, fuel - i - 1, fresh, taken) for i in range(fuel))
            children.append(_BangN(q, copies))
        else:
            children.append(q)
    return _ParN(p, binders, asserts, tuple(children))


def _positions(node, path=(), guards=()):
    """(path, prefix, case guards on the way) for every output or input
    prefix of the tree."""
    if isinstance(node, (Output, Input)):
        yield path, node, guards
    elif isinstance(node, _ParN):
        for i, child in enumerate(node.children):
            yield from _positions(child, path + (i,), guards)
    elif isinstance(node, _CaseN):
        for j, (phi, sub) in enumerate(node.branches):
            yield from _positions(sub, path + (j,), guards + (phi,))
    elif isinstance(node, _BangN):
        for i, copy in enumerate(node.copies):
            yield from _positions(copy, path + (i,), guards)


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
        binders, kids, tail = node.binders, node.children, ()
    elif isinstance(node, _BangN):
        last = max(path[0] for path in paths)
        binders, kids, tail = (), node.copies[:last + 1], (node.original,)
    else:
        return (), NIL  # the prefix at a position
    touched = _touched(kids, paths)
    return binders + _binders_of(touched), _rest(kids, touched, tail)


def _touched(kids, paths):
    """(index, binders, rest) of each of ``kids`` that holds one of the
    positions, in order, each from ``_rebuild``."""
    return tuple((i, *_rebuild(kids[i], [path[1:] for path in paths if path[0] == i]))
                 for i in sorted({path[0] for path in paths}))


def _binders_of(touched):
    return tuple(b for _, bs, _ in touched for b in bs)


def _rest(kids, touched, tail=()):
    """The process parallel to the positions among ``kids``: each untouched
    kid as it is, each touched one as its rest."""
    rests = {i: rest for i, _, rest in touched}
    return par(*(rests[i] if i in rests else _original(kid) for i, kid in enumerate(kids)),
               *tail)


# ---------------------------------------------------------------------------
# The reduction relation


class _Source:
    """The hoisted form of a query's source, which its firings share: the
    expansion ``root``, ``taken`` (the free names of the source and every
    binder hoisted in ``root``), ``fresh``, the one supply of scratch atoms
    of the expansion, the substitutions and the new parts, and the
    ``summary`` of its key, made at the first firing that harmony keys."""

    __slots__ = ("root", "taken", "fresh", "summary")

    def __init__(self, p, fuel):
        taken = set(support(p))
        self.fresh = Fresh(p)
        self.root = _expand(p, fuel, self.fresh, taken)
        self.taken = frozenset(taken)
        self.summary = None


class _Fired(NamedTuple):
    """A pair of prefixes that fires, with one pattern-match witness."""
    source: _Source
    sender: Output
    receiver: Input
    substitution: tuple  # (variable, term) pairs
    received: Process    # the receiver's continuation under the substitution
    kids: tuple          # _touched: the top-level children holding the two prefixes


def _fired(inst, p, fuel):
    """Every pair of an output and an input prefix of ``p`` that fires, with
    at most ``fuel`` replication copies along either position's path: the
    one enumeration that ``reductions`` and ``harmony_check`` read.  Does not
    check that ``p`` is well formed."""
    source = _Source(p, fuel)
    env = inst.unit
    for a in source.root.asserts:
        env = inst.compose(env, a.assertion)

    positions = list(_positions(source.root))
    for o_path, o_prefix, o_guards in positions:
        if not isinstance(o_prefix, Output):
            continue
        for i_path, i_prefix, i_guards in positions:
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
                kids = _touched(source.root.children, [o_path, i_path])
            except _DifferentBranches:
                continue
            for ts in matches:
                received = subst_process(inst, i_prefix.cont,
                                         Subst.of(i_prefix.variables, ts), source.fresh)
                yield _Fired(source, o_prefix, i_prefix, tuple(zip(i_prefix.variables, ts)),
                             received, kids)


def _target(f):
    """The target of the firing ``f``: the two continuations beside the
    top-level assertions and everything parallel to the two positions, all
    under the hoisted binders."""
    root = f.source.root
    return res(root.binders + _binders_of(f.kids),
               par(*root.asserts, f.sender.cont, f.received,
                   _rest(root.children, f.kids)))


def reductions(inst: CalculusInstance, p: Process, fuel=DEFAULT_FUEL) -> frozenset:
    """All reduction steps licensed by Struct, Scope and Ctxt, with at most
    ``fuel`` replication copies along any position's path."""
    check_well_formed(p)
    return frozenset(ReductionStep(_target(f), f.sender, f.receiver, f.substitution)
                     for f in _fired(inst, p, fuel))


# ---------------------------------------------------------------------------
# Structural-congruence keys (the harmony comparison relation)


class _Part(NamedTuple):
    """A part's entry, kept on the part (``_part_entry``), which it does not
    hold, so as to make no cycle: the hoisted binders ``live`` free in it
    (all that its shape reads from outside it), its shape, a certificate
    string, and its renamable atoms in order, or, where its walk met a set
    tie, no shape (None) and its renamable atoms (``_keyed_component``
    searches)."""
    live: frozenset
    shape: str | None
    atoms: tuple


def congruence_key(p: Process, keys=None):
    """A key equal for two processes exactly when they are related by
    binder hoisting across parallel, scope garbage collection, unit laws,
    parallel commutativity and associativity, binder reordering and
    alpha-conversion.  Used to compare reduction and tau targets; see the
    module docstring.  The key is a frozenset of (component key, count)
    pairs, and a component key is a certificate string.

    ``keys`` is a query's table of component keys (``_keyed_component``),
    and a fresh one when it is left out: a component it holds is not keyed
    again.  A part that keeps its entry is not walked again, and a closed
    node that keeps its counts is cut.
    Harmony calls this function by its module name, so that a wrapper bound
    there (the benchmark's per-layer tracer, a test's check) sees every key
    of a query."""
    keys = {} if keys is None else keys
    binders, asserts, comps = hoist(p, Fresh(p), cut=_counted)
    counts, parts = {}, []
    for q in (*asserts, *comps):
        if isinstance(q, (Par, Res)):
            for k, n in _counted(q).items():  # cut
                counts[k] = counts.get(k, 0) + n
        else:
            parts.append(q)
    loose = frozenset(binders)
    for _, k in _keyed_components(parts, [_part_entry(q, loose) for q in parts], keys):
        counts[k] = counts.get(k, 0) + 1
    return frozenset(counts.items())


def _counted(q):
    return getattr(q, "_counts_cache", None)  # a closed node's key counts, or None


def _record_closed(p, keys):
    """Have each closed Par and Res node below the source ``p`` that a walk
    down its Par nodes meets keep its key counts; ``_Summary`` calls this at
    the query's first firing.  No node below a Res does, nor ``p``: a tau
    target holds a restriction's body only renamed, as new nodes, and never
    the whole source.  The walk goes bottom-up, with an explicit stack, so
    the key of a closed Par cuts its children, which keep theirs already."""
    todo = [(p, False)]
    while todo:
        q, below = todo.pop()
        if q is not p and _counted(q) is not None:
            continue
        if isinstance(q, Par) and not below:
            todo += ((q, True), (q.right, False), (q.left, False))
        elif q is not p and isinstance(q, (Par, Res)) and not support(q):
            _keep(q, "_counts_cache", dict(congruence_key(q, keys)))


def _part_entry(q, loose):
    """The ``_Part`` of ``q`` under the hoisted binders ``loose``, kept on
    ``q`` until ``q`` is asked about with other hoisted binders free in it."""
    live = loose.intersection(support(q))
    got = getattr(q, "_part_cache", None)
    if got is not None and got.live == live:
        return got
    try:
        got = _Part(live, *_walk(q, live, None))
    except _Tied:
        got = _Part(live, None, tuple(n for n in support(q) if n in live or n.is_scratch()))
    return _keep(q, "_part_cache", got)


def _keyed_components(parts, entries, keys):
    """The components that ``parts``, whose ``_Part`` entries are
    ``entries``, form: for each, the indices of its parts and its key."""
    return [(comp, _keyed_component(comp, parts, entries, keys))
            for comp in _components([e.atoms for e in entries])]


def _walk(q, live, ties):
    """The shape of the part ``q`` with the hoisted binders ``live`` free in
    it, a certificate string, and its renamable atoms in order, under the
    choices of ``ties``."""
    st = _CanonState(live, ties)
    return repr(sort_key(_canon(q, {}, st))), tuple(st.free_map)


def _keyed_component(comp, parts, entries, keys):
    """The key of the component of ``parts`` (with ``entries``) indexed by
    ``comp``, a certificate string: the one the query's table ``keys``
    holds, or a new one.  The table maps the sorted ids of a component's
    entries to those entries, which keep the ids from reuse, and its key.

    The entries fix the key.  A part with a set tie is searched here, pruned
    by the automorphisms of its component: its least shape, with its atom
    list under each choice giving it.  Labelled by their shapes, the other
    parts may be permuted, unless another part has a tie too: then each must
    map onto itself.  A component that a target has merged or split has
    other entries, keyed afresh."""
    ident = tuple(sorted(map(id, map(entries.__getitem__, comp))))
    got = keys.get(ident)
    if got is not None:
        return got[1]
    parts, entries = [parts[i] for i in comp], [entries[i] for i in comp]
    items = [(e.shape, (e.atoms,)) for e in entries]
    mine = [k for k, e in enumerate(entries) if e.shape is None]
    labels = {}
    for k in mine:
        others = _multiset((j if len(mine) > 1 else labels.setdefault(shape, len(labels)),
                            occs) for j, (shape, occs) in enumerate(items) if j != k)
        q, live = parts[k], entries[k].live
        items[k] = least(functools.partial(_walk, q, live), (q, others))
    key = repr(_component_key(items))
    keys[ident] = entries, key
    return key


def _components(occs):
    """The indices of the parts, grouped into components: two parts are in
    one component when they share a renamable atom."""
    parent = list(range(len(occs)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner = {}
    for i, occ in enumerate(occs):
        for n in occ:
            j = owner.setdefault(n, i)
            parent[root(j)] = root(i)
    comps = {}
    for i in range(len(occs)):
        comps.setdefault(root(i), []).append(i)
    return comps.values()


def _component_key(items):
    """The key of one component from its parts' (shape, occurrence lists),
    as a tuple, which ``_keyed_component`` spells as a string.

    The parts go in the order of their shapes, each with the indices of its
    renamable atoms when they are numbered by first occurrence along that
    order.  Among parts of equal shape and the lists of a part, ``least``
    searches for the order giving the least indices (``_placed``)."""
    if len(items) == 1:
        ((shape, occs),) = items
        return ((shape, tuple(range(len(occs[0])))),)
    shapes, groups, search = [], [], False
    for shape, occs in sorted(items, key=lambda it: it[0]):
        if shapes and shape == shapes[-1]:
            groups[-1].append(occs)
            search = True
        else:
            groups.append([occs])
            search = search or len(occs) > 1
        shapes.append(shape)
    if not search:
        # no two parts of one shape, and one list per part: one order
        numbering = {}
        return tuple((shape, tuple(numbering.setdefault(n, len(numbering)) for n in occs[0]))
                     for shape, (occs,) in zip(shapes, groups))
    indices, _ = least(lambda ties: (_placed(groups, ties), None),
                          _multiset((g, occs) for g, group in enumerate(groups)
                                    for occs in group))
    return tuple(zip(shapes, indices))


def _multiset(items):
    """The multiset of the (label, occurrence lists) ``items`` as a nominal
    value: renaming it renames the lists only, for the labels are ints."""
    return frozenset(Counter((label, frozenset(occs)) for label, occs in items).items())


def _placed(groups, ties):
    """One run of the order search of ``_component_key``: the index tuples
    of the parts of ``groups`` (per shape, in shape order, the occurrence
    lists of each part), with the atoms numbered by first occurrence along
    the order.  The next part is one of the current group whose list gives
    the least indices; where several (part, list) candidates give them,
    ``ties`` picks, given the atoms each would number."""
    numbering, out = {}, []
    for group in groups:
        group = list(group)
        while group:
            best, tried = None, []
            for j, occs in enumerate(group):
                for occ in occs:
                    nxt, idx = len(numbering), []
                    for n in occ:
                        k = numbering.get(n)
                        if k is None:
                            k, nxt = nxt, nxt + 1
                        idx.append(k)
                    idx = tuple(idx)
                    if best is None or idx < best:
                        best, tried = idx, []
                    if idx == best:
                        tried.append((j, occ))
            j, occ = tried[0] if len(tried) == 1 else ties.pick(
                tried, {c: tuple(n for n in c[1] if n not in numbering) for c in tried})
            out.append(best)
            for n in occ:
                numbering.setdefault(n, len(numbering))
            del group[j]
    return tuple(out)


# ---------------------------------------------------------------------------
# Harmony and the derived parallel rule


@dataclass(frozen=True)
class HarmonyReport:
    matched: int
    reduction_only: tuple  # the repr of one target per unmatched key, canonical, sorted
    tau_only: tuple

    @property
    def ok(self):
        return not self.reduction_only and not self.tau_only


def harmony_check(inst: CalculusInstance, p: Process, fuel=DEFAULT_FUEL) -> HarmonyReport:
    """Compare reductions with unit-environment tau transitions, matching
    targets up to their congruence keys, in both directions.  The tau
    targets are the engine's raw ones: the key is alpha-invariant, so they
    need no canonical form.  A reduction is keyed from its firing by delta
    (``_reduction_key``), and its target is built only for the first firing
    of each key, in enumeration order: that is the target a report shows
    for an unmatched key.  Every key of the query shares one table.
    The first firing makes the source's key facts (``_Summary``), the
    closed nodes' key counts that the tau keys cut included (see the module
    docstring).  Only a target reported unmatched is canonicalised, so that
    no scratch atom's id shows in the report."""
    check_well_formed(p)
    red, tau, keys = {}, {}, {}
    for f in _fired(inst, p, fuel):
        key = _reduction_key(f, keys)
        if key not in red:
            red[key] = _target(f)
    for lab, _, target in _derive(inst, _PROVENANCE, inst.unit, p, fuel):
        if isinstance(lab, TauLabel):
            tau.setdefault(congruence_key(target, keys), target)
    return HarmonyReport(matched=len(red.keys() & tau.keys()),
                         reduction_only=_unmatched(red, tau),
                         tau_only=_unmatched(tau, red))


def _reduction_key(f, keys):
    """``congruence_key`` of the target of the firing ``f``, from the
    source's key kept by component (``f.source.summary``): the key without
    the components of the replaced parts, with the components that the rest
    of them and the new parts form (see the module docstring).  The new
    parts are hoisted as the source was, from its supply and its ``taken``."""
    s = f.source.summary
    if s is None:
        s = f.source.summary = _Summary(f.source, keys)
    gone = {len(f.source.root.asserts) + i for i, _, _ in f.kids}
    affected = {s.comp_of[i] for i in gone}
    parts = [s.parts[i] for c in affected for i in s.comps[c][0] if i not in gone]
    entries = [_part_entry(q, s.loose) for q in parts]
    news = par(f.sender.cont, f.received, *(rest for _, _, rest in f.kids))
    if not isinstance(news, Nil):
        binders, asserts, comps = hoist(news, f.source.fresh, set(f.source.taken))
        loose = s.loose.union(_binders_of(f.kids), binders)
        parts += (*asserts, *comps)
        entries += [_part_entry(q, loose) for q in (*asserts, *comps)]
    counts = dict(s.counts)
    for c in affected:
        counts[s.comps[c][1]] -= 1
    for _, k in _keyed_components(parts, entries, keys):
        counts[k] = counts.get(k, 0) + 1
    return frozenset((k, m) for k, m in counts.items() if m)


class _Summary:
    """The key of a query's source, kept by component, from which
    ``_reduction_key`` keys each target: the hoisted binders ``loose``, the
    top-level ``parts`` (the assertions, then the children), their
    ``comps`` (each the indices of its parts and its key), each part's
    component (``comp_of``) and the multiset of the component keys
    (``counts``), in the source's ``summary``.  Made at the query's first
    firing that harmony keys, which is where all of the source's key facts
    are made: the parts keep their entries, and the source's closed nodes
    their counts (``_record_closed``)."""

    __slots__ = ("loose", "parts", "comps", "comp_of", "counts")

    def __init__(self, source, keys):
        root = source.root
        _record_closed(root.original, keys)
        self.loose = frozenset(root.binders)
        self.parts = (*root.asserts, *map(_original, root.children))
        self.comps = _keyed_components(
            self.parts, [_part_entry(q, self.loose) for q in self.parts], keys)
        self.comp_of = {i: c for c, (comp, _) in enumerate(self.comps) for i in comp}
        self.counts = Counter(k for _, k in self.comps)


def _unmatched(these, those):
    return tuple(sorted(repr(canonical(q)) for key, q in these.items() if key not in those))


def derived_par(inst: CalculusInstance, p: Process, q_guarded: Process,
                fuel=DEFAULT_FUEL) -> bool:
    """The derived rule: every reduction of P survives in P | Q_G."""
    if not assertion_guarded(q_guarded):
        raise ValueError("derived_par requires an assertion-guarded right component")
    keys = {}
    lhs = {congruence_key(Par(s.target, q_guarded), keys)
           for s in reductions(inst, p, fuel)}
    rhs = {congruence_key(s.target, keys)
           for s in reductions(inst, Par(p, q_guarded), fuel)}
    return lhs <= rhs
