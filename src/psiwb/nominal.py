"""Atoms, renaming, support and alpha-equivalence.

Every value the engine touches is a *nominal value*: a finite tree built
from Name atoms, tuples, frozensets, plain scalars and frozen dataclasses.
Three generic traversals work on any such tree:

* ``support(x)``      -- the free names of ``x`` (binders excluded), kept
  on ``x`` by ``_keep``, the one helper that keeps a fact on a value,
* ``map_atoms(f, x)`` -- apply an atom map to every Name, binders included;
  ``rename`` gives it a dict, and ``rename`` with a bijection (a swap is
  ``{a: b, b: a}``) is the permutation action,
* ``canonical(x)``    -- rename binders and engine scratch atoms to a
  canonical numbering, so structural equality decides alpha-equivalence.

A dataclass that binds names declares its binder fields once, as a class
attribute such as ``_binders = ("variables",)`` on ``Input``.  A binder field
holds one Name or a tuple of Names.  It scopes over every field declared
after it and over none before it: ``Input(channel, variables, pattern,
cont)`` binds its variables in the pattern and the continuation, not in the
channel.  ``support`` and ``canonical`` read the declaration; ``map_atoms``
renames binders like any other atom and needs none.  A dataclass's field
names, binder fields and any ``_support`` or ``_canon`` of its own sit in
one table keyed by its type (``_LAYOUTS``), filled on the first visit of
each type: a traversal asks neither the ``dataclasses`` module nor the node
itself how to walk it.

``Transition`` and ``ErasedTransition`` in ``semantics`` share one
``_support`` and one ``_canon`` of their own, which the table also records:
the extruded names of their label bind in a sibling field, the target, which
the one rule cannot express.  One routine there walks both after the source:
label, target, then the provenance where there is one.  ``Transition``
declares that order (``_order``), in which ``sort_key`` compares its fields.

Canonicalisation threads one ``_CanonState`` (binder counter and free-atom
map) through a left-to-right traversal.  ``_CanonState.fork`` copies it, so a
caller that canonicalises many values sharing a prefix (the environment and
source of one query's transitions) can canonicalise the prefix once and fork
the state for each value: the fork continues exactly the numbering a
traversal of the whole value would give, where the prefix meets no tie.

A set has no order of its own, so the atoms its elements meet first are
numbered in the order of the elements' own canonical forms (``_canon_set``).
Elements of one form that would number atoms not yet numbered tie.  A
traversal stops at a tie (``_Tied``), and ``least``, the one search over
ties (the congruence key's too), tries each choice that no automorphism
relates to one tried, keeping the least form.  It assumes what every
shipped instance holds, set elements of names and tuples of names: a binder
in an element would be numbered in ``sort_key`` order, which reads atom
ids, and a tie in a nested set multiplies the search, once per trial form.

Atom ids live in disjoint bands.  User atoms are non-negative and come from
a global counter, which the engine never touches: each query ``mint``s its
scratch atoms from one ``Fresh`` supply over its inputs, which counts up from
above their every MINT-band atom, so its atoms are fresh and reproducible.
Canonicalisation maps binders into one negative band and free scratch atoms
into another.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading

MINT_BASE = 10 ** 12
_CANON_FREE_BASE = 10 ** 9  # canonical free-scratch ids are -(base + k)


class Name:
    """An atom.  Equality and hashing use the id only; hint is display sugar."""

    __slots__ = ("id", "hint")

    def __init__(self, id: int, hint: str = ""):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "hint", hint)

    def __setattr__(self, *_):
        raise AttributeError("Name is immutable")

    def __eq__(self, other):
        return isinstance(other, Name) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"Name({self.id}{',' + self.hint if self.hint else ''})"

    def is_scratch(self) -> bool:
        return self.id < 0 or self.id >= MINT_BASE


_counter = itertools.count(0)
_counter_lock = threading.Lock()


def fresh_name(avoid=(), hint: str = "n") -> Name:
    """A globally new atom, never one from ``avoid``."""
    avoid = frozenset(avoid)
    while True:
        with _counter_lock:
            n = Name(next(_counter), hint)
        if n not in avoid:
            return n


class Fresh:
    """A supply of scratch atoms fresh for ``values``: ids count up from
    above every MINT-band atom of the values, bound ones included.  The
    values are read at the first draw, so a supply never drawn from never
    walks them."""

    def __init__(self, *values):
        self.values, self.next_id = values, None


def mint(fresh: Fresh, hint: str = "f") -> Name:
    """The next atom of the supply ``fresh``."""
    if fresh.next_id is None:
        fresh.next_id = max((n.id + 1 for v in fresh.values for n in atoms(v)
                             if n.id >= MINT_BASE), default=MINT_BASE)
        fresh.values = None
    n = Name(fresh.next_id, hint)
    fresh.next_id += 1
    return n


def mint_many(fresh: Fresh, n: int, hint: str = "f"):
    """The next ``n`` atoms of the supply ``fresh``."""
    return tuple(mint(fresh, hint) for _ in range(n))


# ---------------------------------------------------------------------------
# Generic traversals

class _Layout:
    """What the generic traversals know of one dataclass type: its field
    names in declaration order and in ``sort_key``'s order (``_order``), its
    binder fields, and its own ``_support`` and ``_canon``, if any."""

    __slots__ = ("names", "order", "binders", "support", "canon")

    def __init__(self, cls):
        self.names = tuple(f.name for f in dataclasses.fields(cls))
        self.order = getattr(cls, "_order", self.names)
        self.binders = frozenset(getattr(cls, "_binders", ()))
        self.support = getattr(cls, "_support", None)
        self.canon = getattr(cls, "_canon", None)


class _Layouts(dict):
    """type -> _Layout, or None for a type that is not a dataclass; an entry
    is made on the first lookup of its type."""

    def __missing__(self, cls):
        lay = self[cls] = _Layout(cls) if dataclasses.is_dataclass(cls) else None
        return lay


_LAYOUTS = _Layouts()


def _keep(x, name, fact):
    """Keep ``fact`` on ``x`` as ``name``, and return it.  A value without a
    ``__dict__`` (a Name, a tuple, a frozenset) keeps none.  Not through
    ``x.__dict__``: CPython would trade the compact storage of the
    instance's fields for a dict, which slows every field read."""
    if type(x).__dictoffset__:
        object.__setattr__(x, name, fact)
    return fact


def support(x) -> frozenset:
    """Free names of a nominal value, kept on it (``_keep``).  The walk
    takes two frames per level of a deep term (this and ``_support_walk``)."""
    if isinstance(x, Name):
        return frozenset((x,))
    got = getattr(x, "_supp_cache", None)
    return _keep(x, "_supp_cache", _support_walk(x)) if got is None else got


def _support_walk(x) -> frozenset:
    if isinstance(x, (tuple, list, frozenset, set)):
        return frozenset().union(*(support(e) for e in x))
    lay = _LAYOUTS[type(x)]
    if lay is None:
        return frozenset()
    if lay.support is not None:
        return lay.support(x)
    # last field first: a binder field removes its atoms from the support of
    # the fields declared after it
    out = frozenset()
    for f in reversed(lay.names):
        v = getattr(x, f)
        if f in lay.binders:
            out = out.difference((v,) if isinstance(v, Name) else v)
        else:
            out |= support(v)
    return out


def names_of(*xs) -> frozenset:
    return frozenset().union(*(support(x) for x in xs)) if xs else frozenset()


def map_atoms(f, x):
    """Apply the atom map ``f`` to every Name in ``x``, binders included."""
    if isinstance(x, Name):
        return f(x)
    if isinstance(x, tuple):
        return tuple(map_atoms(f, e) for e in x)
    if isinstance(x, frozenset):
        return frozenset(map_atoms(f, e) for e in x)
    lay = _LAYOUTS[type(x)]
    if lay is None:
        return x
    return type(x)(*[map_atoms(f, getattr(x, g)) for g in lay.names])


def atoms(x) -> frozenset:
    """Every Name in ``x``, binders included, kept on ``x`` as ``support``
    is: every query reads the atoms of its source."""
    got = getattr(x, "_atoms_cache", None)
    return _keep(x, "_atoms_cache", _atoms_walk(x)) if got is None else got


def _atoms_walk(x) -> frozenset:
    # an explicit stack, so depth does not meet the recursion limit
    seen = set()
    todo = [x]
    while todo:
        v = todo.pop()
        if isinstance(v, Name):
            seen.add(v)
        elif isinstance(v, (tuple, frozenset)):
            todo.extend(v)
        else:
            lay = _LAYOUTS[type(v)]
            if lay is not None:
                todo.extend(getattr(v, f) for f in lay.names)
    return frozenset(seen)


def rename(mapping: dict, x):
    """Simultaneous atom renaming: every atom ``mapping`` holds, binders
    included, goes to its image.  With a bijection, such as the swap
    ``{a: b, b: a}``, this is the permutation action on nominal values.
    It makes no capture analysis: give it a bijection, or atoms fresh for
    ``x`` as the images."""
    return map_atoms(lambda n: mapping.get(n, n), x)


# ---------------------------------------------------------------------------
# Canonical forms

def sort_key(x):
    """A deterministic total order on nominal values (pre-canonical ids).
    On the values that shipped instances hold, it tells apart any two that
    ``==`` tells apart, so the ``repr`` of a canonical form's key is a
    certificate of the form (see ``reduction``).  It tells apart some that
    ``==`` equates, which no shipped instance holds: ``True`` and ``1``,
    and ``0.0`` and ``-0.0``."""
    if isinstance(x, Name):
        return (0, x.id)
    if isinstance(x, bool):
        return (1, x)
    if isinstance(x, int):
        return (2, x)
    if isinstance(x, str):
        return (3, x)
    if isinstance(x, tuple):
        return (4, len(x), tuple(sort_key(e) for e in x))
    if isinstance(x, frozenset):
        return (5, len(x), tuple(sorted(sort_key(e) for e in x)))
    lay = _LAYOUTS[type(x)]
    if lay is not None:
        return (6, type(x).__name__, tuple(sort_key(getattr(x, f)) for f in lay.order))
    return (7, repr(x))


class _CanonState:
    """The numbering of one canonical traversal.

    ``free_map`` maps each renamable atom met free so far (in order of first
    occurrence) to its canonical atom.  Renamable are the engine's scratch
    atoms and the atoms of ``loose``: atoms that the caller binds outside
    the value, which are numbered as binders, while free scratch atoms get
    the free band.  ``ties`` makes the choices of the search run that the
    traversal is (``_Ties``); a traversal outside a search raises ``_Tied``
    at a tie."""

    __slots__ = ("binder_n", "free_map", "loose", "ties")

    def __init__(self, loose=frozenset(), ties=None):
        self.binder_n = 0
        self.free_map = {}
        self.loose = loose
        self.ties = ties

    def fork(self) -> "_CanonState":
        """A copy that continues this numbering, in the same search run, and
        never writes back."""
        st = _CanonState(self.loose, self.ties)
        st.binder_n = self.binder_n
        st.free_map = dict(self.free_map)
        return st

    def new_binder(self, hint: str) -> Name:
        self.binder_n += 1
        return Name(-self.binder_n, hint)

    def canon_free(self, n: Name) -> Name:
        got = self.free_map.get(n)
        if got is None:
            if n in self.loose:
                got = self.new_binder(n.hint)
            else:
                got = Name(-(_CANON_FREE_BASE + len(self.free_map)), n.hint)
            self.free_map[n] = got
        return got


def _canon_set(x, env, st):
    """A set's canonical elements, numbering the atoms they meet first in an
    order that does not depend on atom ids: while some element holds
    renamable atoms not yet numbered, the next element is the one that
    would number the fewest, and among those the one whose own canonical
    form, numbered as if it came next, is least.  Among equal forms, a tie,
    ``st.ties`` picks, given the atoms each would number; without a search
    (``st.ties`` None) the traversal stops there (``_Tied``)."""
    if len(x) < 2:
        return frozenset(_canon(e, env, st) for e in x)
    elems = sorted(x, key=sort_key)
    out = []
    while elems and any(n not in env and n not in st.free_map
                        and (n.is_scratch() or n in st.loose) for n in atoms(tuple(elems))):
        numbered = len(st.free_map)
        own, news = [], {}
        for e in elems:
            fork = st.fork()
            form = sort_key(_canon(e, env, fork))
            news[e] = tuple(fork.free_map)[numbered:]
            own.append(((len(news[e]), form), e))
        least = min(k for k, _ in own)
        group = [e for k, e in own if k == least]
        if len(group) > 1 and st.ties is None:
            raise _Tied
        pick = group[0] if len(group) == 1 else st.ties.pick(group, news)
        out.append(_canon(pick, env, st))
        elems.remove(pick)
    return frozenset(out + [_canon(e, env, st) for e in elems])


class _Tied(Exception):
    """A traversal outside a search (``least``) met a tie."""


def _canon(x, env: dict, st: _CanonState):
    if isinstance(x, Name):
        y = env.get(x)
        if y is not None:
            return y
        if x.is_scratch() or (st.loose and x in st.loose):
            return st.canon_free(x)
        return x
    if isinstance(x, tuple):
        return tuple(_canon(e, env, st) for e in x)
    if isinstance(x, frozenset):
        return _canon_set(x, env, st)
    lay = _LAYOUTS[type(x)]
    if lay is None:
        return x
    if lay.canon is not None:
        return lay.canon(x, env, st)
    out = []
    for f in lay.names:
        if f in lay.binders:
            v, env = canon_binders(getattr(x, f), env, st)
        else:
            v = _canon(getattr(x, f), env, st)
        out.append(v)
    return type(x)(*out)


def canonical(x):
    """The canonical alpha-representative of ``x``.

    Binders are renumbered in traversal order; free scratch atoms (engine
    mints and previous canonical atoms) are renumbered too, so enumeration
    results compare stably across calls.  No atom id decides a set tie
    (``least``), as long as set elements bind no names and hold no sets.
    """
    try:
        return _canon(x, {}, _CanonState())
    except _Tied:
        return least(lambda ties: (_canon(x, {}, _CanonState(ties=ties)), None), x)[0]


def canon_binders(binders, env: dict, st: _CanonState):
    """Allocate canonical atoms for a binder field, one Name or an ordered
    tuple of them; returns the field's canonical value and the extended
    environment."""
    env = dict(env)
    if isinstance(binders, Name):
        nb = env[binders] = st.new_binder(binders.hint)
        return nb, env
    out = []
    for b in binders:
        nb = st.new_binder(b.hint)
        env[b] = nb
        out.append(nb)
    return tuple(out), env


class _Ties:
    """The choices of one run of a search (``least``): at the i-th tie it
    takes option ``script[i]`` (0 past its end), recorded in ``taken``.  A
    candidate is no option when swapping the atoms it would number with
    those of an option maps ``context`` onto itself: the swap maps the one
    onto the other and fixes every atom numbered so far.  The runs of one
    search share ``offers``, each tie's options by the options before it."""

    __slots__ = ("script", "context", "offers", "taken")

    def __init__(self, script, context, offers):
        self.script, self.context, self.offers, self.taken = script, context, offers, []

    def pick(self, group, news):
        before = tuple(self.taken)
        if before not in self.offers:
            offered = []
            for e in group:
                if not any(_swaps(news[e], news[f], self.context) for f in offered):
                    offered.append(e)
            self.offers[before] = offered
        depth = len(before)
        self.taken.append(self.script[depth] if depth < len(self.script) else 0)
        return self.offers[before][self.taken[-1]]


def _swaps(xs, ys, context):
    """Whether an involution exchanges ``xs[i]`` with ``ys[i]`` for every i
    and maps ``context`` onto itself."""
    sigma = dict(zip(ys, xs)) | dict(zip(xs, ys))
    return (all(sigma[x] == y and sigma[y] == x for x, y in zip(xs, ys))
            and rename(sigma, context) == context)


def least(run, context):
    """The exact search over the ties of a canonical traversal
    (individualisation, McKay and Piperno, "Practical graph isomorphism,
    II", 2014).  ``run(ties)`` traverses once, ``ties.pick`` choosing at
    each tie, and returns (form, extra).  It runs once per combination of
    choices, pruned by the automorphisms of ``context``, which holds all that
    a run reads.  Returns the least form (by ``sort_key``) and the distinct
    extras of the runs that give it.  Callers traverse plainly first, and
    search only where that meets a tie (``_Tied``)."""
    leaves, script, offers = [], [], {}
    while True:
        ties = _Ties(script, context, offers)
        leaves.append(run(ties))
        # the next script takes the next option at the last tie with one left
        script = ties.taken
        while script and script[-1] + 1 >= len(offers[tuple(script[:-1])]):
            script.pop()
        if not script:
            break
        script[-1] += 1
    keys = [sort_key(form) for form, _ in leaves]
    low = min(keys)
    return (leaves[keys.index(low)][0],
            tuple(dict.fromkeys(extra for key, (_, extra) in zip(keys, leaves) if key == low)))


def alpha_eq(x, y) -> bool:
    """Alpha-equivalence, decided by comparing canonical forms."""
    return x == y or canonical(x) == canonical(y)
