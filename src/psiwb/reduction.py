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
along that order; only among parts of equal shape is the order searched
for, taking the least numbering (individualisation over the ties; McKay and
Piperno, "Practical graph isomorphism, II", 2014).  Equal-shaped elements
of a set that would number atoms not yet numbered are ties too
(``nominal._canon_set``): a part that meets such a tie is canonicalised once
per choice there, and keeps its least shape with the atom list of each
choice that gives it.  Of two tied candidates, parts or set elements alike,
only the first is tried when swapping the new atoms of the one with those
of the other maps everything else onto itself: that keeps symmetric inputs
cheap.  The key is the multiset of the component keys.  Exactness assumes
that set elements hold no sets of their own, as in every shipped instance:
ties inside such nested sets are broken by atom ids.

A part's shape depends only on the part and on which of its free names
are hoisted binders, and a component's key only on its parts, so the keys
of one query share one table of parts and of component keys, looked up by
identity (``_Keys``; hash-consing's sharing by identity, Filliâtre and
Conchon, "Type-safe modular hash-consing", 2006, scoped to one query).
The engine's tau targets share the parts they leave untouched, so harmony
walks each part once and keys each component once, not once per target.

A tau target also holds whole the subtrees of the source that its Com left
alone, as the source's own nodes.  So at the query's first tau target
harmony records the key counts of the source's closed Par and Res nodes
(``_record_closed``), and the key's ``hoist`` takes a recorded node whole,
as its counts, instead of walking into it.  That is exact for any process:
a closed subtree c of the spine has no free name, so T ≡ c | T[c := 0], and
no renamable atom links a part of c to another part, whence
key(T) = key(c) ⊎ key(T[c := 0]).  The cut reads only the identity of the
source's nodes, never anything the engine made, so the oracle stays
independent of the engine.  A tau target then costs its walk down to the
nodes the Com touched, and a lookup per part and per component there.

A reduction target is keyed without building it, as a delta from its
source (``_reduction_key``).  ``reductions`` and harmony read one
enumeration of the pairs that fire (``_fired``).  At the first of them
harmony keys the source's hoisted form by component (``_Summary``).  A
firing replaces the top-level parts that hold its two prefixes by its new
parts: the two continuations and the rest of a touched case or bang,
hoisted.  Its key is the source's, without the components of the replaced
parts, and with the components that the rest of their parts and the new
parts form.  That is exact.  An untouched component keeps its parts, and
each of them its live hoisted binders, for the target keeps every binder
of the source, and a binder new in the target is free in no part of the
source.  No new part shares a renamable atom with an untouched component:
each of its renamable atoms is free in a replaced part or new in the
target.  A replaced part may have held its component together, so the
rest of it is grouped again.

Hoisting renames a binder only on a clash, when the binder is hoisted
twice or is free in a part outside its scope.  The key's ``hoist`` finds a
clash on its own spine walk, from the binders in scope of each part, and
reads the free names of the whole target only then.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .nominal import (_canon, _CanonState, canonical, Fresh, rename, sort_key,
                      support)
from .params import CalculusInstance, Subst
from .process import (Bang, Case, Input, NIL, Nil, Output, Par, Process, Res,
                      assertion_guarded, check_well_formed, hoist, par, res,
                      subst_process)
from .semantics import _derive, _PROVENANCE, DEFAULT_FUEL, TauLabel


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
    binder hoisted in ``root``) and the top-level ``assertions``."""

    __slots__ = ("root", "taken", "assertions")

    def __init__(self, p, fuel):
        taken = set(support(p))
        self.root = _expand(p, fuel, Fresh(p), taken)
        self.taken = frozenset(taken)
        self.assertions = tuple(a.assertion for a in self.root.asserts)


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
    for a in source.assertions:
        env = inst.compose(env, a)

    positions = [pos for pos in _positions(source.root) if pos[3] <= fuel]
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
                kids = _touched(source.root.children, [o_path, i_path])
            except _DifferentBranches:
                continue
            for ts in matches:
                received = subst_process(inst, i_prefix.cont,
                                         Subst.of(i_prefix.variables, ts))
                yield _Fired(source, o_prefix, i_prefix, tuple(zip(i_prefix.variables, ts)),
                             received, kids)


def _target(f):
    """The hoisted binders and the target of the firing ``f``: the two
    continuations beside the top-level assertions and everything parallel
    to the two positions, all under the binders."""
    root = f.source.root
    bs = root.binders + _binders_of(f.kids)
    return bs, res(bs, par(*root.asserts, f.sender.cont, f.received,
                           _rest(root.children, f.kids)))


def reductions(inst: CalculusInstance, p: Process, fuel=DEFAULT_FUEL) -> frozenset:
    """All reduction steps licensed by Struct, Scope and Ctxt, with at most
    ``fuel`` replication copies along any position's path."""
    check_well_formed(p)
    steps = set()
    for f in _fired(inst, p, fuel):
        bs, target = _target(f)
        witness = ReductionWitness(
            binders=bs, assertions=f.source.assertions,
            sender=f.sender, receiver=f.receiver, substitution=f.substitution)
        steps.add(ReductionStep(p, target, witness))
    return frozenset(steps)


# ---------------------------------------------------------------------------
# Structural-congruence keys (the harmony comparison relation)


class _Part(NamedTuple):
    """A part's entry in ``_Keys.parts``: the part, the hoisted binders
    ``live`` free in it (all that its shape reads from outside it), its
    shape, its renamable atoms in order, and whether it met a set tie."""
    node: Process
    live: frozenset
    shape: object
    atoms: tuple
    tied: bool


class _Keys:
    """The tables that the keys of one query share:

    * ``parts``: the id of a part -> its ``_Part`` (``_part_entry``);
    * ``components``: the sorted ids of the ``_Part`` entries of a
      component -> (those entries, its key) (``_keyed_component``);
    * ``interned``: a component key -> the one object for it, so that the
      query's counters, sets and dicts find equal keys equal by identity;
    * ``closed``: the id of a closed node of the source -> (the node, its
      key counts), set by ``_record_closed`` and None until then;
    * ``summary``: the source's ``_Summary``, made at the query's first
      firing (``_reduction_key``).

    Each entry of a table looked up by ids holds the objects whose ids key
    it, so that no id is reused while the table lives.  The tables live in
    the query and not on the nodes: they die with the query, and a repeated
    query pays for its walks again."""

    __slots__ = ("parts", "components", "interned", "closed", "summary")

    def __init__(self):
        self.parts, self.components, self.interned = {}, {}, {}
        self.closed = self.summary = None


def congruence_key(p: Process, keys=None):
    """A key equal for two processes exactly when they are related by
    binder hoisting across parallel, scope garbage collection, unit laws,
    parallel commutativity and associativity, binder reordering and
    alpha-conversion.  Used to compare reduction and tau targets; see the
    module docstring.

    ``keys`` is a query's ``_Keys``, and a fresh one when it is left out:
    what it holds is not walked or keyed again, and a closed node of the
    source in it is taken whole.  A clash, which restarts the walk, drops
    what the walk had taken.  Harmony calls this function by its module
    name, so that a wrapper bound there (the benchmark's per-layer tracer,
    a test's check) sees every key of a query."""
    keys = _Keys() if keys is None else keys
    closed = keys.closed
    binders, asserts, comps = hoist(p, Fresh(p), closed=closed)
    loose = frozenset(binders)
    counts, parts = {}, []
    for q in (*asserts, *comps):
        if isinstance(q, (Par, Res)):
            _add_counts(counts, closed[id(q)][1])  # a closed node of the source, cut
        else:
            parts.append(_part_entry(q, loose.intersection(support(q)), keys))
    for comp in _components([e.atoms for e in parts]):
        k = _keyed_component([parts[i] for i in comp], keys)
        counts[k] = counts.get(k, 0) + 1
    return frozenset(counts.items())


def _add_counts(counts, more):
    for k, n in more.items():
        counts[k] = counts.get(k, 0) + n


def _record_closed(p, keys):
    """Set ``keys.closed`` to the key counts of the closed Par and Res nodes
    below ``p`` that a walk down its Par nodes meets.  No node below a Res
    is recorded, nor ``p`` itself: a tau target holds a restriction's body
    only renamed, as new nodes, and never the whole source.  The walk goes
    bottom-up with an explicit stack: a node's ``support`` finds those of
    its Par children cached, and a Par's counts are its children's."""
    closed = keys.closed = {}
    todo = [(p, False)]
    while todo:
        q, below = todo.pop()
        if isinstance(q, Par) and not below:
            todo += ((q, True), (q.right, False), (q.left, False))
        elif q is not p and isinstance(q, (Par, Res)) and not support(q):
            if isinstance(q, Par):
                # a Par binds nothing: its counts are its children's
                counts = {}
                for kid in (q.left, q.right):
                    got = closed.get(id(kid))
                    _add_counts(counts, got[1] if got else dict(congruence_key(kid, keys)))
            else:
                counts = dict(congruence_key(q, keys))
            closed[id(q)] = q, counts


def _part_entry(q, live, keys):
    """The ``_Part`` of ``q`` with the hoisted binders ``live`` free in it,
    from ``keys.parts`` when it holds one for ``q`` and ``live``."""
    got = keys.parts.get(id(q))
    if got is not None and got.live == live:
        return got
    st = _CanonState(live, _Ties())
    got = keys.parts[id(q)] = _Part(q, live, _canon(q, {}, st), tuple(st.free_map),
                                    bool(st.ties.widths))
    return got


def _keyed_component(parts, keys):
    """The key of the component of the ``_Part`` entries ``parts``: the one
    that ``keys.components`` holds for them, or a new one, interned.

    The entries fix the key: a part, the hoisted binders free in it, and
    through them its shape, its atom list and, for a part that meets a set
    tie, its search (``_tied_shape``, with the other parts of the
    component).  A component that a target has merged with another, or
    split, has other entries and is keyed afresh."""
    ident = tuple(sorted(map(id, parts)))
    got = keys.components.get(ident)
    if got is not None:
        return got[1]
    items = [(e.shape, (e.atoms,)) for e in parts]
    mine = [k for k, e in enumerate(parts) if e.tied]
    for k in mine:
        others = items[:k] + items[k + 1:]
        if len(mine) > 1:
            # each other part keeps its label, so that the atom lists
            # pruned here and there stay related (see _Ties)
            others = [(j, occs) for j, (_, occs) in enumerate(others)]
        items[k] = _tied_shape(parts[k].node, parts[k].live, others)
    key = _Hashed(_component_key(items))
    key = keys.interned.setdefault(key, key)
    keys.components[ident] = parts, key
    return key


class _Hashed(tuple):
    """A component key that computes its hash once: the shapes in it are
    dataclasses, whose hash walks them, and a query hashes each component
    key once per target that holds the component."""

    def __new__(cls, items):
        key = super().__new__(cls, items)
        key.hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self.hash


class _Ties:
    """The choices of one canonical traversal at its set ties, where set
    elements of one shape would number atoms not yet numbered (see
    ``nominal._canon_set``).  ``script[i]`` is the option taken at the i-th
    tie met (option 0 past its end), and ``widths[i]`` records how many
    options it had, so that a caller can run the traversal once per
    combination of choices.

    The options are the tied elements up to automorphism: an element is
    left out when swapping the atoms it would number with those of an
    element already offered (``_swap``) maps the ``part`` being
    canonicalised onto itself and ``others``, the (label, occurrence lists)
    of the other parts of its component, onto themselves.  Both picks then
    lead to the same shape, and to atom lists that an automorphism of the
    component relates, so the component key may use either.  Labelled by
    their shapes, the other parts may be permuted.  That is only sound while
    their atom lists are complete: when the component holds another part
    with set ties, whose lists are pruned too, each other part gets a label
    of its own and must map onto itself.  Without a ``part`` a tie takes its
    first element and records the width 0."""

    __slots__ = ("script", "part", "others", "widths")

    def __init__(self, script=(), part=None, others=()):
        self.script, self.part, self.others, self.widths = script, part, others, []

    def pick(self, group, news):
        if self.part is None:
            self.widths.append(0)
            return group[0]
        offered = []
        for e in group:
            if not any(self._alike(news[e], news[f]) for f in offered):
                offered.append(e)
        depth = len(self.widths)
        self.widths.append(len(offered))
        return offered[self.script[depth] if depth < len(self.script) else 0]

    def _alike(self, mine, theirs):
        sigma = _swap(mine, theirs)
        return (sigma is not None and rename(sigma, self.part) == self.part
                and _fixes(sigma, self.others))


def _swap(xs, ys):
    """The involution exchanging ``xs[i]`` with ``ys[i]`` for every i, or
    None when no involution maps ``xs`` onto ``ys``."""
    sigma = {}
    for x, y in zip(xs, ys):
        if x != y and (sigma.setdefault(x, y) != y or sigma.setdefault(y, x) != x):
            return None
    if any(sigma.get(x, x) != y for x, y in zip(xs, ys)):
        return None
    return sigma


def _fixes(sigma, items):
    """Whether the atom map ``sigma`` maps the multiset of parts given by
    ``items`` (label, occurrence lists) onto itself: each part onto one with
    the same label whose occurrence lists it maps onto."""
    def seen(occ_map):
        return Counter((label, frozenset(tuple(occ_map(n) for n in occ) for occ in occs))
                       for label, occs in items)
    return seen(lambda n: sigma.get(n, n)) == seen(lambda n: n)


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


def _tied_shape(q, loose, others):
    """The shape of a part that meets a set tie, and its occurrence lists:
    the least canonical form over every choice at its ties (``_Ties``, with
    ``others`` the other parts of its component), and the renamable atoms
    in order of first occurrence under each choice that gives it."""
    leaves, script = [], []
    while True:
        ties = _Ties(script, q, others)
        st = _CanonState(loose, ties)
        leaves.append((_canon(q, {}, st), tuple(st.free_map)))
        taken = [script[d] if d < len(script) else 0 for d in range(len(ties.widths))]
        while taken and taken[-1] + 1 >= ties.widths[len(taken) - 1]:
            taken.pop()
        if not taken:
            break
        taken[-1] += 1
        script = taken
    least = min(leaves, key=lambda leaf: sort_key(leaf[0]))[0]
    return least, tuple(dict.fromkeys(occ for shape, occ in leaves if shape == least))


def _component_key(items):
    """The key of one component from its parts' (shape, occurrence lists).

    The parts go in the order of their shapes, each with the indices of its
    renamable atoms when they are numbered by first occurrence along that
    order.  Among parts of equal shape the order giving the least indices is
    searched for, over the ties only."""
    if len(items) == 1:
        ((shape, occs),) = items
        return ((shape, tuple(range(len(occs[0])))),)
    # sort_key orders dataclasses by their type's name first, so only parts
    # of one type need its walk
    items = sorted(items, key=_type_name)
    shapes, groups, search = [], [], False
    for _, run in itertools.groupby(items, key=_type_name):
        run = list(run)
        for shape, occs in sorted(run, key=lambda it: sort_key(it[0])) if len(run) > 1 else run:
            if shapes and shape == shapes[-1]:
                groups[-1].append(occs)
                search = True
            else:
                groups.append([occs])
                search = search or len(occs) > 1
            shapes.append(shape)
    if not search:
        numbering = {}
        return tuple((shape, tuple(numbering.setdefault(n, len(numbering)) for n in occs[0]))
                     for shape, (occs,) in zip(shapes, groups))
    return tuple(zip(shapes, _least_indices(groups, {})))


def _type_name(item):
    return type(item[0]).__name__


def _least_indices(groups, numbering):
    """The least sequence of index tuples for the parts of ``groups`` (per
    shape, in shape order, the occurrence lists of each part), given the
    ``numbering`` of the atoms of the parts placed before.

    At each step the candidates are the occurrence lists of the current
    group that give the least indices.  Of two candidates, only the first is
    tried when swapping the atoms in which they differ (``_swap``; they are
    all new) maps the unplaced parts onto themselves: both then lead to the
    same indices."""
    out = []
    for g, group in enumerate(groups):
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
            out.append(best)
            if len(tried) > 1:
                unplaced = [(g, occs) for occs in group]
                unplaced += [(h, occs) for h in range(g + 1, len(groups)) for occs in groups[h]]
                offered = []
                for j, occ in tried:
                    if not any(_alike(occ, other, unplaced) for _, other in offered):
                        offered.append((j, occ))
                tried = offered
            if len(tried) > 1:
                least = None
                for j, occ in tried:
                    numbering2 = dict(numbering)
                    _place(occ, numbering2)
                    rest = _least_indices([group[:j] + group[j + 1:]] + groups[g + 1:],
                                          numbering2)
                    if least is None or rest < least:
                        least = rest
                return tuple(out) + least
            ((j, occ),) = tried
            _place(occ, numbering)
            del group[j]
    return tuple(out)


def _alike(occ, other, unplaced):
    sigma = _swap(occ, other)
    return sigma is not None and _fixes(sigma, unplaced)


def _place(occ, numbering):
    for n in occ:
        numbering.setdefault(n, len(numbering))


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
    for an unmatched key.  Every key of the query shares one ``_Keys``, in
    which the first tau target records the source's closed nodes, and only
    the source's (see the module docstring).  Only a target reported
    unmatched is canonicalised, so that no scratch atom's id shows in the
    report."""
    check_well_formed(p)
    red, tau, keys = {}, {}, _Keys()
    for f in _fired(inst, p, fuel):
        key = _reduction_key(f, keys)
        if key not in red:
            red[key] = _target(f)[1]
    for lab, _, target in _derive(inst, _PROVENANCE, inst.unit, p, fuel):
        if isinstance(lab, TauLabel):
            if keys.closed is None:
                _record_closed(p, keys)
            tau.setdefault(congruence_key(target, keys), target)
    return HarmonyReport(matched=len(red.keys() & tau.keys()),
                         reduction_only=_unmatched(red, tau),
                         tau_only=_unmatched(tau, red))


def _reduction_key(f, keys):
    """``congruence_key`` of the target of the firing ``f``, from the
    source's key kept by component (``keys.summary``): the key without the
    components of the replaced parts, with the components that the rest of
    them and the new parts form (see the module docstring).

    The new parts are hoisted as the source was, with its free names and
    its hoisted binders taken, and a clashing binder is renamed to an atom
    fresh for the new parts too: the substitution may have renamed a
    received binder to a scratch atom of its own supply, which the source's
    supply would hand out again."""
    s = keys.summary
    if s is None:
        s = keys.summary = _Summary(f.source, keys)
    gone = {s.first_kid + i for i, _, _ in f.kids}
    affected = {s.comp_of[i] for i in gone}
    regrouped = [s.parts[i] for c in affected for i in s.comps[c] if i not in gone]
    news = par(f.sender.cont, f.received, *(rest for _, _, rest in f.kids))
    if not isinstance(news, Nil):
        taken = f.source.taken
        binders, asserts, comps = hoist(news, Fresh(news, taken), set(taken))
        extra = frozenset(_binders_of(f.kids) + binders)
        for q in (*asserts, *comps):
            free = support(q)
            regrouped.append(_part_entry(
                q, s.loose.intersection(free) | extra.intersection(free), keys))
    counts = dict(s.counts)
    for c in affected:
        counts[s.keys[c]] -= 1
    for comp in _components([e.atoms for e in regrouped]):
        k = _keyed_component([regrouped[i] for i in comp], keys)
        counts[k] = counts.get(k, 0) + 1
    return frozenset((k, m) for k, m in counts.items() if m)


class _Summary:
    """The key of a query's source, kept by component, from which
    ``_reduction_key`` keys each target: the hoisted binders ``loose``, the
    ``_Part`` entries ``parts`` of the top-level parts (the assertions, then
    the children from ``first_kid`` on), their ``comps``, each part's
    component (``comp_of``), and the component ``keys`` and their multiset
    ``counts``.  A query has one, in ``_Keys.summary``."""

    __slots__ = ("loose", "parts", "first_kid", "comps", "comp_of", "keys", "counts")

    def __init__(self, source, keys):
        root = source.root
        self.loose = frozenset(root.binders)
        parts = (*root.asserts, *map(_original, root.children))
        self.parts = [_part_entry(q, self.loose.intersection(support(q)), keys) for q in parts]
        self.first_kid = len(root.asserts)
        self.comps = list(_components([e.atoms for e in self.parts]))
        self.comp_of = {i: c for c, comp in enumerate(self.comps) for i in comp}
        self.keys = [_keyed_component([self.parts[i] for i in comp], keys)
                     for comp in self.comps]
        self.counts = Counter(self.keys)


def _unmatched(these, those):
    return tuple(sorted(repr(canonical(q)) for key, q in these.items() if key not in those))


def derived_par(inst: CalculusInstance, p: Process, q_guarded: Process,
                fuel=DEFAULT_FUEL) -> bool:
    """The derived rule: every reduction of P survives in P | Q_G."""
    if not assertion_guarded(q_guarded):
        raise ValueError("derived_par requires an assertion-guarded right component")
    keys = _Keys()
    lhs = {congruence_key(Par(s.target, q_guarded), keys)
           for s in reductions(inst, p, fuel)}
    rhs = {congruence_key(s.target, keys)
           for s in reductions(inst, Par(p, q_guarded), fuel)}
    return lhs <= rhs
