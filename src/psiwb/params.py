"""Calculus parameters: the 7-tuple interface and the shipped instances.

A calculus is given by its term, assertion and condition languages and its
judgements: entailment, composition, unit and channel connectivity, which
need not be symmetric or transitive (see ``CalculusInstance``).

Shipped instances:

* pi        -- terms are names, connectivity is syntactic equality
* ether     -- assertions are name sets naming a shared medium
* triangle  -- directed connectivity facts, for non-transitive scenarios
* preorder  -- arcs generating a preorder; connectivity is joinability
"""

from __future__ import annotations

from dataclasses import dataclass

from .nominal import Fresh, Name, fresh_name, map_atoms, mint, support


class SubstError(ValueError):
    pass


@dataclass(frozen=True)
class Subst:
    """A simultaneous substitution of terms for distinct names."""

    pairs: tuple  # tuple[(Name, term), ...]

    @staticmethod
    def of(names, terms) -> "Subst":
        names, terms = tuple(names), tuple(terms)
        if len(names) != len(terms):
            raise SubstError(
                f"substitution arity mismatch: {len(names)} names vs {len(terms)} terms")
        if len(set(names)) != len(names):
            raise SubstError("substitution names must be pairwise distinct")
        return Subst(tuple(zip(names, terms)))

    def lookup(self, n: Name):
        for x, t in self.pairs:
            if x == n:
                return t
        return n

    @property
    def domain(self):
        return frozenset(x for x, _ in self.pairs)


# A fixed global atom, used as the sum guard subject for closed sums.
GLOBAL_TOP_NAME = fresh_name((), "top")


# ---------------------------------------------------------------------------
# Conditions and assertions of the shipped instances


@dataclass(frozen=True)
class PiUnit:
    """The single pi assertion."""


@dataclass(frozen=True)
class PiEq:
    left: Name
    right: Name


@dataclass(frozen=True)
class EtherConn:
    left: Name
    right: Name


@dataclass(frozen=True)
class TriConn:
    """Directed fact: ``src`` may send to ``dst``."""

    src: Name
    dst: Name


@dataclass(frozen=True)
class Prec:
    """x is below y in the arc preorder."""

    low: Name
    high: Name


@dataclass(frozen=True)
class Join:
    """x and y have a common upper bound."""

    left: Name
    right: Name


def _sorted_names(names):
    return sorted(names, key=lambda n: n.id)


class CalculusInstance:
    """Base class.  An instance gives its judgements (``unit``,
    ``entails``, ``compose``, ``conn``), its substitutions and its finite
    bases (``match_pattern``, ``message_basis``, ``assertion_basis``,
    ``random_assertion``).  The channel enumerators, ``condition_basis``
    and ``random_condition`` default to forms derived from ``conn`` and
    ``entails``, assuming that under psi a channel M connects only to M and
    to names of psi; an instance whose connectivity reaches further
    overrides them, as ``_HubPi`` in ``tests/test_semantics.py`` does.

    Terms, assertions and conditions must be binder-free nominal values.
    All operations are pure; instances are immutable and thread-safe.
    """

    name = "abstract"

    # -- the paper-level parameters ------------------------------------
    @property
    def unit(self):
        raise NotImplementedError

    def entails(self, psi, phi) -> bool:
        raise NotImplementedError

    def compose(self, p1, p2):
        raise NotImplementedError

    def conn(self, sender, receiver):
        """The condition that ``sender`` may send to ``receiver``."""
        raise NotImplementedError

    # -- substitution ---------------------------------------------------
    def subst_term(self, term, sigma: Subst):
        raise NotImplementedError

    def subst_assertion(self, psi, sigma: Subst):
        raise NotImplementedError

    def subst_condition(self, phi, sigma: Subst):
        raise NotImplementedError

    # -- finite enumerators ----------------------------------------------
    def out_channels(self, psi, term):
        """Finite set of K with psi |- term -> K."""
        return frozenset(k for k in support(psi) | {term}
                         if self.entails(psi, self.conn(term, k)))

    def in_channels(self, psi, term):
        """Finite set of K with psi |- K -> term."""
        return frozenset(k for k in support(psi) | {term}
                         if self.entails(psi, self.conn(k, term)))

    def match_pattern(self, variables, pattern, message):
        """All term tuples T with pattern[variables := T] == message."""
        raise NotImplementedError

    def condition_basis(self, psi1, psi2):
        """Conditions sufficient to separate psi1 from psi2."""
        names = _sorted_names(support(psi1) | support(psi2))
        return tuple(self.conn(a, b) for a in names for b in names)

    def message_basis(self, ctx):
        """Candidate received messages over a finite name context."""
        raise NotImplementedError

    def assertion_basis(self, names):
        """Finite stand-in for 'for all assertions' over the given names."""
        raise NotImplementedError

    def top_condition(self, names=()):
        """An always-entailed condition, or None if the instance has none."""
        return None

    # -- corpus hooks -----------------------------------------------------
    def random_assertion(self, rng, names):
        raise NotImplementedError

    def random_condition(self, rng, names):
        ns = list(names)
        return self.conn(rng.choice(ns), rng.choice(ns))

    def random_term(self, rng, names):
        return rng.choice(list(names))


class _NameTermMixin:
    """Shared behaviour for instances whose terms are bare names."""

    def subst_term(self, term, sigma: Subst):
        if not isinstance(term, Name):
            raise SubstError(f"{self.name}: terms are names, got {term!r}")
        out = sigma.lookup(term)
        if not isinstance(out, Name):
            raise SubstError(f"{self.name}: substitution range must be names")
        return out

    def subst_assertion(self, psi, sigma: Subst):
        # assertions and conditions are binder-free values over name terms
        return map_atoms(lambda n: self.subst_term(n, sigma), psi)

    subst_condition = subst_assertion

    def match_pattern(self, variables, pattern, message):
        if not isinstance(message, Name):
            return ()
        if len(variables) == 0:
            return ((),) if pattern == message else ()
        if len(variables) == 1 and pattern == variables[0]:
            return ((message,),)
        # patterns over name terms are either a variable or a closed name
        return ()

    def message_basis(self, ctx):
        rep = mint(Fresh(ctx), "m")
        return tuple(_sorted_names(support(frozenset(ctx)))) + (rep,)


class _SetAssertions(CalculusInstance):
    """Shared behaviour for instances whose assertions are finite sets of
    facts, composed by union, with the empty set as the unit.  A random
    assertion is up to three pair facts, as in triangle and preorder."""

    @property
    def unit(self):
        return frozenset()

    def compose(self, p1, p2):
        return p1 | p2

    def random_assertion(self, rng, names):
        ns = list(names)
        return frozenset((rng.choice(ns), rng.choice(ns))
                         for _ in range(rng.randint(0, 3)))


class PiInstance(_NameTermMixin, CalculusInstance):
    """Terms are names, the only assertion is the unit, connectivity is
    syntactic equality of names."""

    name = "pi"
    _UNIT = PiUnit()

    @property
    def unit(self):
        return self._UNIT

    def entails(self, psi, phi):
        return isinstance(phi, PiEq) and phi.left == phi.right

    def compose(self, p1, p2):
        return self._UNIT

    def conn(self, sender, receiver):
        return PiEq(sender, receiver)

    def assertion_basis(self, names):
        return (self._UNIT,)

    def top_condition(self, names=()):
        n = _sorted_names(names)[0] if names else GLOBAL_TOP_NAME
        return PiEq(n, n)

    def random_assertion(self, rng, names):
        return self._UNIT


class EtherInstance(_NameTermMixin, _SetAssertions):
    """Assertions are finite name sets naming a single shared medium;
    x and y are connected iff both are members."""

    name = "ether"

    def entails(self, psi, phi):
        return isinstance(phi, EtherConn) and phi.left in psi and phi.right in psi

    def conn(self, sender, receiver):
        return EtherConn(sender, receiver)

    def assertion_basis(self, names):
        out = [frozenset()]
        out.extend(frozenset((n,)) for n in _sorted_names(names))
        return tuple(out)

    def random_assertion(self, rng, names):
        ns = list(names)
        return frozenset(rng.sample(ns, rng.randint(0, min(2, len(ns)))))


class TriangleInstance(_NameTermMixin, _SetAssertions):
    """Assertions are finite sets of directed facts (a, b): a may send to b.
    Reflexive facts are opt-in per pair, so the non-transitive scenarios can
    state exactly which conditions hold."""

    name = "triangle"

    def entails(self, psi, phi):
        return isinstance(phi, TriConn) and (phi.src, phi.dst) in psi

    def conn(self, sender, receiver):
        return TriConn(sender, receiver)

    def assertion_basis(self, names):
        ns = _sorted_names(names)
        out = [frozenset()]
        out.extend(frozenset(((a, b),)) for a in ns for b in ns)
        return tuple(out)


class PreorderInstance(_NameTermMixin, _SetAssertions):
    """Arcs generate a preorder; two names are connected when joinable,
    i.e. when some name is above both."""

    name = "preorder"

    def _up(self, psi, x):
        """Upward closure of x under the reflexive-transitive arc closure."""
        seen = {x}
        todo = [x]
        while todo:
            cur = todo.pop()
            for lo, hi in psi:
                if lo == cur and hi not in seen:
                    seen.add(hi)
                    todo.append(hi)
        return seen

    def entails(self, psi, phi):
        if isinstance(phi, Prec):
            return phi.high in self._up(psi, phi.low)
        if isinstance(phi, Join):
            return bool(self._up(psi, phi.left) & self._up(psi, phi.right))
        return False

    def conn(self, sender, receiver):
        return Join(sender, receiver)

    def condition_basis(self, psi1, psi2):
        # Prec conditions tell apart arc sets that Join conditions cannot
        names = _sorted_names(support(psi1) | support(psi2))
        return (tuple(Prec(a, b) for a in names for b in names)
                + super().condition_basis(psi1, psi2))

    def assertion_basis(self, names):
        ns = _sorted_names(names)
        out = [frozenset()]
        out.extend(frozenset(((a, b),)) for a in ns for b in ns if a != b)
        return tuple(out)

    def top_condition(self, names=()):
        n = _sorted_names(names)[0] if names else GLOBAL_TOP_NAME
        return Prec(n, n)

    def random_condition(self, rng, names):
        ns = list(names)
        if rng.random() < 0.5:
            return Prec(rng.choice(ns), rng.choice(ns))
        return Join(rng.choice(ns), rng.choice(ns))


# ---------------------------------------------------------------------------
# Static equivalence


def static_equiv(inst: CalculusInstance, psi1, psi2) -> bool:
    """Static equivalence, decided over the instance's condition basis."""
    if psi1 == psi2:
        return True
    return all(inst.entails(psi1, phi) == inst.entails(psi2, phi)
               for phi in inst.condition_basis(psi1, psi2))

