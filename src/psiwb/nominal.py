"""Atoms, permutations, support and alpha-equivalence.

Every value the engine touches is a *nominal value*: a finite tree built
from Name atoms, tuples, frozensets, plain scalars and frozen dataclasses.
Three generic traversals work on any such tree:

* ``support(x)``      -- the free names of ``x`` (binders excluded),
* ``map_atoms(f, x)`` -- apply an atom map to every Name, binders included
  (this is the raw permutation action),
* ``canonical(x)``    -- rename binders and engine scratch atoms to a
  canonical numbering, so structural equality decides alpha-equivalence.

Dataclasses that bind names implement ``_support``, ``_map_atoms`` and
``_canon``; binder-free dataclasses get generic traversals for free.  The
generic traversals read a dataclass's field names from a table keyed by its
type (``field_names``), filled on the first visit, instead of asking the
``dataclasses`` module on every node.

Canonicalisation threads one ``_CanonState`` (binder counter and free-atom
map) through a left-to-right traversal.  ``_CanonState.fork`` copies it, so a
caller that canonicalises many values sharing a prefix (the environment and
source of one query's transitions) can canonicalise the prefix once and fork
the state for each value: the fork continues exactly the numbering a
traversal of the whole value would give.

Atom ids live in disjoint bands.  User atoms are non-negative and come from
a global counter.  The engine itself never touches that counter: it mints
deterministic scratch atoms from MINT_BASE upwards given an avoid set, which
keeps enumeration results reproducible across calls.  Canonicalisation maps
binders into one negative band and free scratch atoms into another.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from dataclasses import dataclass

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


NameSet = frozenset  # frozenset[Name]

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


def mint(avoid, hint: str = "f") -> Name:
    """Deterministic scratch atom: the first MINT-band id not in ``avoid``."""
    k = 0
    while Name(MINT_BASE + k) in avoid:
        k += 1
    return Name(MINT_BASE + k, hint)


def mint_many(avoid, n: int, hint: str = "f"):
    out = []
    avoid = set(avoid)
    for _ in range(n):
        a = mint(avoid, hint)
        avoid.add(a)
        out.append(a)
    return tuple(out), frozenset(avoid)


@dataclass(frozen=True)
class Permutation:
    """A finite sequence of name swaps, applied right-to-left."""

    swaps: tuple = ()

    def act(self, n: Name) -> Name:
        for a, b in reversed(self.swaps):
            if n == a:
                n = b
            elif n == b:
                n = a
        return n

    def inverse(self) -> "Permutation":
        return Permutation(tuple(reversed(self.swaps)))

    def then(self, other: "Permutation") -> "Permutation":
        # self applied first: other's swaps go to the left
        return Permutation(other.swaps + self.swaps)


def swap(a: Name, b: Name) -> Permutation:
    return Permutation(((a, b),))


# ---------------------------------------------------------------------------
# Generic traversals

_FIELDS = {}  # type -> tuple of field names, or None for a non-dataclass


def field_names(cls):
    """The field names of dataclass type ``cls``, or None for any other type;
    computed once per type."""
    try:
        return _FIELDS[cls]
    except KeyError:
        names = (tuple(f.name for f in dataclasses.fields(cls))
                 if dataclasses.is_dataclass(cls) else None)
        _FIELDS[cls] = names
        return names


def support(x) -> frozenset:
    """Free names of a nominal value."""
    if isinstance(x, Name):
        return frozenset((x,))
    cached = getattr(x, "_supp_cache", None)
    if cached is not None:
        return cached
    sup = getattr(x, "_support", None)
    if sup is not None:
        out = sup()
    elif isinstance(x, (tuple, list, frozenset, set)):
        out = frozenset().union(*(support(e) for e in x)) if x else frozenset()
    else:
        names = field_names(type(x))
        if names is None:
            return frozenset()
        out = frozenset().union(*(support(getattr(x, f)) for f in names))
    try:
        object.__setattr__(x, "_supp_cache", out)
    except (AttributeError, TypeError):
        pass
    return out


def names_of(*xs) -> frozenset:
    return frozenset().union(*(support(x) for x in xs)) if xs else frozenset()


def is_fresh(a: Name, x) -> bool:
    """True iff ``a`` is not in the support of ``x``."""
    return a not in support(x)


def map_atoms(f, x):
    """Apply the atom map ``f`` to every Name in ``x``, binders included."""
    if isinstance(x, Name):
        return f(x)
    m = getattr(x, "_map_atoms", None)
    if m is not None:
        return m(f)
    if isinstance(x, tuple):
        return tuple(map_atoms(f, e) for e in x)
    if isinstance(x, frozenset):
        return frozenset(map_atoms(f, e) for e in x)
    names = field_names(type(x))
    if names is not None:
        return type(x)(*(map_atoms(f, getattr(x, g)) for g in names))
    return x


def apply_perm(p: Permutation, x):
    """The permutation action of ``p`` on a nominal value."""
    return map_atoms(p.act, x)


def rename(mapping: dict, x):
    """Simultaneous atom renaming (no capture analysis; use on binder-free
    values or with globally fresh targets)."""
    return map_atoms(lambda n: mapping.get(n, n), x)


# ---------------------------------------------------------------------------
# Canonical forms

def sort_key(x):
    """A deterministic total order on nominal values (pre-canonical ids)."""
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
    names = field_names(type(x))
    if names is not None:
        return (6, type(x).__name__, tuple(sort_key(getattr(x, f)) for f in names))
    return (7, repr(x))


class _CanonState:
    __slots__ = ("binder_n", "free_map", "pinned")

    def __init__(self, pinned):
        self.binder_n = 0
        self.free_map = {}
        self.pinned = pinned

    def fork(self) -> "_CanonState":
        """A copy that continues this numbering and never writes back."""
        st = _CanonState(self.pinned)
        st.binder_n = self.binder_n
        st.free_map = dict(self.free_map)
        return st

    def new_binder(self, hint: str) -> Name:
        self.binder_n += 1
        return Name(-self.binder_n, hint)

    def canon_free(self, n: Name) -> Name:
        got = self.free_map.get(n)
        if got is None:
            got = Name(-(_CANON_FREE_BASE + len(self.free_map)), n.hint)
            self.free_map[n] = got
        return got


def _canon(x, env: dict, st: _CanonState):
    if isinstance(x, Name):
        y = env.get(x)
        if y is not None:
            return y
        if x.is_scratch() and x not in st.pinned:
            return st.canon_free(x)
        return x
    c = getattr(x, "_canon", None)
    if c is not None:
        return c(env, st)
    if isinstance(x, tuple):
        return tuple(_canon(e, env, st) for e in x)
    if isinstance(x, frozenset):
        return frozenset(_canon(e, env, st) for e in sorted(x, key=sort_key))
    names = field_names(type(x))
    if names is not None:
        return type(x)(*(_canon(getattr(x, f), env, st) for f in names))
    return x


def canonical(x, pinned=frozenset()):
    """The canonical alpha-representative of ``x``.

    Binders are renumbered in traversal order; free scratch atoms (engine
    mints and previous canonical atoms) not in ``pinned`` are renumbered
    too, so enumeration results compare stably across calls.
    """
    return _canon(x, {}, _CanonState(frozenset(pinned)))


def canon_binders(binders, env: dict, st: _CanonState):
    """Allocate canonical atoms for an ordered binder sequence; returns the
    new sequence and the extended environment."""
    env = dict(env)
    out = []
    for b in binders:
        nb = st.new_binder(b.hint)
        env[b] = nb
        out.append(nb)
    return tuple(out), env


def alpha_eq(x, y) -> bool:
    """Alpha-equivalence, decided by comparing canonical forms."""
    return x == y or canonical(x) == canonical(y)
