"""Calculus parameters: the 7-tuple interface and the shipped instances.

A calculus is given by its term, assertion and condition languages plus
entailment, composition, unit and channel connectivity.  On top of the
paper-level parameters every instance supplies finite enumerators
(out_channels / in_channels / match_pattern / condition_basis /
message_basis / assertion_basis) which are what make transition enumeration
and equivalence checking effective on finite fragments.

Shipped instances:

* pi        -- terms are names, connectivity is syntactic equality
* ether     -- assertions are name sets naming a shared medium
* triangle  -- directed connectivity facts, for non-transitive scenarios
* preorder  -- arcs generating a preorder; connectivity is joinability
* tagged(B) -- B extended with tagged terms, for the choice encoding
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .nominal import Name, fresh_name, mint, names_of, sort_key, support


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


SubstitutionSeq = tuple  # tuple[Subst, ...]

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


@dataclass(frozen=True)
class Tagged:
    """A term decorated with a tag name."""

    term: object
    tag: Name


@dataclass(frozen=True)
class TaggedAssertion:
    base: object
    disabled: frozenset  # frozenset[Name]


@dataclass(frozen=True)
class TagCond:
    """Entailed iff the tag is disabled."""

    tag: Name


@dataclass(frozen=True)
class TaggedConn:
    """Connectivity condition over tagged-or-untagged terms."""

    sender: object
    receiver: object


class CalculusInstance:
    """Base class; shipped instances override the instance-specific parts.

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
    def out_channels(self, psi, term, ctx=frozenset()):
        """Finite set of K with psi |- term -> K."""
        raise NotImplementedError

    def in_channels(self, psi, term, ctx=frozenset()):
        """Finite set of K with psi |- K -> term."""
        raise NotImplementedError

    def match_pattern(self, variables, pattern, message):
        """All term tuples T with pattern[variables := T] == message."""
        raise NotImplementedError

    def condition_basis(self, psi1, psi2):
        """Conditions sufficient to separate psi1 from psi2."""
        raise NotImplementedError

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
        raise NotImplementedError

    def random_term(self, rng, names):
        return rng.choice(list(names))


def _sorted_names(names):
    return sorted(names, key=lambda n: n.id)


class _NameTermMixin:
    """Shared behaviour for instances whose terms are bare names."""

    def subst_term(self, term, sigma: Subst):
        if not isinstance(term, Name):
            raise SubstError(f"{self.name}: terms are names, got {term!r}")
        out = sigma.lookup(term)
        if not isinstance(out, Name):
            raise SubstError(f"{self.name}: substitution range must be names")
        return out

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
        rep = mint(ctx, "m")
        return tuple(_sorted_names(support(frozenset(ctx)))) + (rep,)


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

    def subst_assertion(self, psi, sigma):
        return psi

    def subst_condition(self, phi, sigma):
        return PiEq(self.subst_term(phi.left, sigma), self.subst_term(phi.right, sigma))

    def out_channels(self, psi, term, ctx=frozenset()):
        return frozenset((term,))

    def in_channels(self, psi, term, ctx=frozenset()):
        return frozenset((term,))

    def condition_basis(self, psi1, psi2):
        return ()

    def assertion_basis(self, names):
        return (self._UNIT,)

    def top_condition(self, names=()):
        n = _sorted_names(names)[0] if names else GLOBAL_TOP_NAME
        return PiEq(n, n)

    def random_assertion(self, rng, names):
        return self._UNIT

    def random_condition(self, rng, names):
        ns = list(names)
        return PiEq(rng.choice(ns), rng.choice(ns))


class EtherInstance(_NameTermMixin, CalculusInstance):
    """Assertions are finite name sets naming a single shared medium;
    x and y are connected iff both are members."""

    name = "ether"

    @property
    def unit(self):
        return frozenset()

    def entails(self, psi, phi):
        return isinstance(phi, EtherConn) and phi.left in psi and phi.right in psi

    def compose(self, p1, p2):
        return p1 | p2

    def conn(self, sender, receiver):
        return EtherConn(sender, receiver)

    def subst_assertion(self, psi, sigma):
        return frozenset(self.subst_term(n, sigma) for n in psi)

    def subst_condition(self, phi, sigma):
        return EtherConn(self.subst_term(phi.left, sigma),
                         self.subst_term(phi.right, sigma))

    def out_channels(self, psi, term, ctx=frozenset()):
        return frozenset(psi) if term in psi else frozenset()

    def in_channels(self, psi, term, ctx=frozenset()):
        return self.out_channels(psi, term, ctx)

    def condition_basis(self, psi1, psi2):
        names = _sorted_names(support(psi1) | support(psi2))
        return tuple(EtherConn(a, b) for a in names for b in names)

    def assertion_basis(self, names):
        out = [frozenset()]
        out.extend(frozenset((n,)) for n in _sorted_names(names))
        return tuple(out)

    def random_assertion(self, rng, names):
        ns = list(names)
        return frozenset(rng.sample(ns, rng.randint(0, min(2, len(ns)))))

    def random_condition(self, rng, names):
        ns = list(names)
        return EtherConn(rng.choice(ns), rng.choice(ns))


class TriangleInstance(_NameTermMixin, CalculusInstance):
    """Assertions are finite sets of directed facts (a, b): a may send to b.
    Reflexive facts are opt-in per pair, so the non-transitive scenarios can
    state exactly which conditions hold."""

    name = "triangle"

    @property
    def unit(self):
        return frozenset()

    def entails(self, psi, phi):
        return isinstance(phi, TriConn) and (phi.src, phi.dst) in psi

    def compose(self, p1, p2):
        return p1 | p2

    def conn(self, sender, receiver):
        return TriConn(sender, receiver)

    def subst_assertion(self, psi, sigma):
        return frozenset((self.subst_term(a, sigma), self.subst_term(b, sigma))
                         for a, b in psi)

    def subst_condition(self, phi, sigma):
        return TriConn(self.subst_term(phi.src, sigma), self.subst_term(phi.dst, sigma))

    def out_channels(self, psi, term, ctx=frozenset()):
        return frozenset(b for a, b in psi if a == term)

    def in_channels(self, psi, term, ctx=frozenset()):
        return frozenset(a for a, b in psi if b == term)

    def condition_basis(self, psi1, psi2):
        names = _sorted_names(support(psi1) | support(psi2))
        return tuple(TriConn(a, b) for a in names for b in names)

    def assertion_basis(self, names):
        ns = _sorted_names(names)
        out = [frozenset()]
        out.extend(frozenset(((a, b),)) for a in ns for b in ns)
        return tuple(out)

    def random_assertion(self, rng, names):
        ns = list(names)
        facts = set()
        for _ in range(rng.randint(0, 3)):
            facts.add((rng.choice(ns), rng.choice(ns)))
        return frozenset(facts)

    def random_condition(self, rng, names):
        ns = list(names)
        return TriConn(rng.choice(ns), rng.choice(ns))


class PreorderInstance(_NameTermMixin, CalculusInstance):
    """Arcs generate a preorder; two names are connected when joinable,
    i.e. when some name is above both."""

    name = "preorder"

    @property
    def unit(self):
        return frozenset()

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

    def compose(self, p1, p2):
        return p1 | p2

    def conn(self, sender, receiver):
        return Join(sender, receiver)

    def subst_assertion(self, psi, sigma):
        return frozenset((self.subst_term(a, sigma), self.subst_term(b, sigma))
                         for a, b in psi)

    def subst_condition(self, phi, sigma):
        if isinstance(phi, Prec):
            return Prec(self.subst_term(phi.low, sigma), self.subst_term(phi.high, sigma))
        return Join(self.subst_term(phi.left, sigma), self.subst_term(phi.right, sigma))

    def out_channels(self, psi, term, ctx=frozenset()):
        universe = support(psi) | {term}
        return frozenset(k for k in universe if self.entails(psi, Join(term, k)))

    def in_channels(self, psi, term, ctx=frozenset()):
        universe = support(psi) | {term}
        return frozenset(k for k in universe if self.entails(psi, Join(k, term)))

    def condition_basis(self, psi1, psi2):
        names = _sorted_names(support(psi1) | support(psi2))
        out = [Prec(a, b) for a in names for b in names]
        out.extend(Join(a, b) for a in names for b in names)
        return tuple(out)

    def assertion_basis(self, names):
        ns = _sorted_names(names)
        out = [frozenset()]
        out.extend(frozenset(((a, b),)) for a in ns for b in ns if a != b)
        return tuple(out)

    def top_condition(self, names=()):
        n = _sorted_names(names)[0] if names else GLOBAL_TOP_NAME
        return Prec(n, n)

    def random_assertion(self, rng, names):
        ns = list(names)
        arcs = set()
        for _ in range(rng.randint(0, 3)):
            arcs.add((rng.choice(ns), rng.choice(ns)))
        return frozenset(arcs)

    def random_condition(self, rng, names):
        ns = list(names)
        if rng.random() < 0.5:
            return Prec(rng.choice(ns), rng.choice(ns))
        return Join(rng.choice(ns), rng.choice(ns))


class TaggedInstance(CalculusInstance):
    """The choice-encoding target over a base instance.

    Terms gain one layer of tagging; assertions carry a set of disabled
    tags.  Tagged channels are connected when the underlying channels are,
    the tags differ, and neither tag is disabled.  A sorting discipline
    keeps communicated objects untagged: substitution ranges and received
    messages must be base terms.
    """

    def __init__(self, base: CalculusInstance):
        self.base = base
        self.name = f"tagged:{base.name}"

    @property
    def unit(self):
        return TaggedAssertion(self.base.unit, frozenset())

    def entails(self, psi, phi):
        base, disabled = psi.base, psi.disabled
        if isinstance(phi, TagCond):
            return phi.tag in disabled
        if isinstance(phi, TaggedConn):
            m, k = phi.sender, phi.receiver
            if isinstance(m, Tagged) and isinstance(k, Tagged):
                return (m.tag != k.tag and m.tag not in disabled
                        and k.tag not in disabled
                        and self.base.entails(base, self.base.conn(m.term, k.term)))
            if isinstance(m, Tagged):
                return m.tag not in disabled and self.base.entails(
                    base, self.base.conn(m.term, k))
            if isinstance(k, Tagged):
                return k.tag not in disabled and self.base.entails(
                    base, self.base.conn(m, k.term))
            return self.base.entails(base, self.base.conn(m, k))
        return self.base.entails(base, phi)

    def compose(self, p1, p2):
        return TaggedAssertion(self.base.compose(p1.base, p2.base),
                               p1.disabled | p2.disabled)

    def conn(self, sender, receiver):
        if isinstance(sender, Tagged) or isinstance(receiver, Tagged):
            return TaggedConn(sender, receiver)
        return self.base.conn(sender, receiver)

    def subst_term(self, term, sigma):
        if isinstance(term, Tagged):
            tag = sigma.lookup(term.tag)
            if not isinstance(tag, Name):
                raise SubstError("tag positions only take names")
            return Tagged(self.base.subst_term(term.term, sigma), tag)
        out = self.base.subst_term(term, sigma)
        if isinstance(out, Tagged):
            raise SubstError("sorting violation: tagged term in substitution range")
        return out

    def subst_assertion(self, psi, sigma):
        disabled = []
        for t in psi.disabled:
            nt = sigma.lookup(t)
            if not isinstance(nt, Name):
                raise SubstError("disabled-tag positions only take names")
            disabled.append(nt)
        return TaggedAssertion(self.base.subst_assertion(psi.base, sigma),
                               frozenset(disabled))

    def subst_condition(self, phi, sigma):
        if isinstance(phi, TagCond):
            nt = sigma.lookup(phi.tag)
            if not isinstance(nt, Name):
                raise SubstError("tag positions only take names")
            return TagCond(nt)
        if isinstance(phi, TaggedConn):
            return TaggedConn(self.subst_term(phi.sender, sigma),
                              self.subst_term(phi.receiver, sigma))
        return self.base.subst_condition(phi, sigma)

    def _tags(self, psi, ctx, exclude=frozenset()):
        cand = [n for n in _sorted_names(frozenset(ctx))
                if n not in psi.disabled and n not in exclude]
        return cand

    def out_channels(self, psi, term, ctx=frozenset()):
        if isinstance(term, Tagged):
            if term.tag in psi.disabled:
                return frozenset()
            inner = self.base.out_channels(psi.base, term.term, ctx)
            exclude = frozenset((term.tag,))
        else:
            inner = self.base.out_channels(psi.base, term, ctx)
            exclude = frozenset()
        out = set(inner)
        for k in inner:
            for tag in self._tags(psi, ctx, exclude):
                out.add(Tagged(k, tag))
        return frozenset(out)

    def in_channels(self, psi, term, ctx=frozenset()):
        if isinstance(term, Tagged):
            if term.tag in psi.disabled:
                return frozenset()
            inner = self.base.in_channels(psi.base, term.term, ctx)
            exclude = frozenset((term.tag,))
        else:
            inner = self.base.in_channels(psi.base, term, ctx)
            exclude = frozenset()
        out = set(inner)
        for k in inner:
            for tag in self._tags(psi, ctx, exclude):
                out.add(Tagged(k, tag))
        return frozenset(out)

    def match_pattern(self, variables, pattern, message):
        if isinstance(message, Tagged) or isinstance(pattern, Tagged):
            return ()  # sorting: only base terms are communicated
        return self.base.match_pattern(variables, pattern, message)

    def condition_basis(self, psi1, psi2):
        out = list(self.base.condition_basis(psi1.base, psi2.base))
        names = _sorted_names(support(psi1) | support(psi2))
        out.extend(TagCond(n) for n in names)
        for a in names:
            for b in names:
                out.append(TaggedConn(a, b))
                for t in names:
                    out.append(TaggedConn(Tagged(a, t), b))
                    out.append(TaggedConn(a, Tagged(b, t)))
                    for u in names:
                        out.append(TaggedConn(Tagged(a, t), Tagged(b, u)))
        return tuple(out)

    def message_basis(self, ctx):
        return self.base.message_basis(ctx)

    def assertion_basis(self, names):
        out = [TaggedAssertion(b, frozenset())
               for b in self.base.assertion_basis(names)]
        out.extend(TaggedAssertion(self.base.unit, frozenset((n,)))
                   for n in _sorted_names(names))
        return tuple(out)

    def top_condition(self, names=()):
        return self.base.top_condition(names)

    def random_assertion(self, rng, names):
        ns = list(names)
        disabled = frozenset(rng.sample(ns, rng.randint(0, 1)))
        return TaggedAssertion(self.base.random_assertion(rng, names), disabled)

    def random_condition(self, rng, names):
        return self.base.random_condition(rng, names)


# ---------------------------------------------------------------------------
# Module-level operations (thin wrappers; the instance carries the logic)


def entails(inst: CalculusInstance, psi, phi) -> bool:
    return inst.entails(psi, phi)


def compose(inst: CalculusInstance, p1, p2):
    return inst.compose(p1, p2)


def static_equiv(inst: CalculusInstance, psi1, psi2) -> bool:
    """Static equivalence, decided over the instance's condition basis."""
    if psi1 == psi2:
        return True
    return all(inst.entails(psi1, phi) == inst.entails(psi2, phi)
               for phi in inst.condition_basis(psi1, psi2))


# ---------------------------------------------------------------------------
# Instance registry

_REGISTRY = {
    "pi": PiInstance,
    "ether": EtherInstance,
    "triangle": TriangleInstance,
    "preorder": PreorderInstance,
}


def get_instance(spec: str) -> CalculusInstance:
    if spec.startswith("tagged:"):
        return TaggedInstance(get_instance(spec.split(":", 1)[1]))
    try:
        return _REGISTRY[spec]()
    except KeyError:
        raise KeyError(f"unknown calculus {spec!r}; expected one of "
                       f"{sorted(_REGISTRY)} or tagged:<base>") from None
