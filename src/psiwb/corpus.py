"""Process corpora for the property suites: deterministic pseudo-random
ones, and every process up to a size."""

from __future__ import annotations

import random

from .nominal import fresh_name
from .params import CalculusInstance
from .process import (NIL, Assert, Bang, Case, Input, Output, Par, Process,
                      Res, check_well_formed)


def random_process(inst: CalculusInstance, rng: random.Random, size: int,
                   names, allow_bang: bool = True) -> Process:
    """A well-formed process of at most ``size`` operators."""
    names = tuple(names)

    def guarded(sz):
        # prefix-guarded or nil: safe under bang and case
        if sz <= 1 or rng.random() < 0.15:
            return NIL
        return prefix(sz)

    def prefix(sz):
        ch = inst.random_term(rng, names)
        if rng.random() < 0.5:
            return Output(ch, inst.random_term(rng, names), build(sz - 1))
        v = fresh_name(names, "w")
        if rng.random() < 0.7:
            return Input(ch, (v,), v, build(sz - 1))
        return Input(ch, (), inst.random_term(rng, names), build(sz - 1))

    def handshake(sz):
        # a matching pair plus assertion keeps communication reachable
        ch = rng.choice(names)
        v = fresh_name(names, "w")
        pair = Par(Output(ch, inst.random_term(rng, names), guarded(sz // 3)),
                   Input(ch, (v,), v, guarded(sz // 3)))
        if rng.random() < 0.5:
            return Par(pair, Assert(inst.random_assertion(rng, names)))
        return pair

    def build(sz):
        if sz <= 1:
            return NIL if rng.random() < 0.4 else Assert(
                inst.random_assertion(rng, names))
        roll = rng.random()
        if roll < 0.25:
            return prefix(sz)
        if roll < 0.40:
            return handshake(sz)
        if roll < 0.60:
            half = max(1, (sz - 1) // 2)
            return Par(build(half), build(sz - 1 - half))
        if roll < 0.72:
            bound = rng.choice(names)
            return Res(bound, build(sz - 1))
        if roll < 0.82:
            k = rng.randint(1, 2)
            return Case(tuple((inst.random_condition(rng, names),
                               guarded((sz - 1) // k)) for _ in range(k)))
        if roll < 0.90 and allow_bang:
            return Bang(guarded(sz - 1))
        return Assert(inst.random_assertion(rng, names))

    p = build(size)
    check_well_formed(p)
    return p


def all_processes(inst: CalculusInstance, size: int, names):
    """Every well-formed process of exactly ``size`` operators over
    ``names``, each once up to alpha-conversion.

    Nil has size 0 and an assertion size 1; every other operator adds 1 to
    the sizes of its operands, and both sides of a Par have size 1 or more.
    The binder of an input or a restriction is the atom of its depth (the
    number of binders above it), so no alpha-variant comes twice.  Terms
    are the names in scope, the given ones and the binders above, as in
    every shipped instance, and an input binds one variable, its pattern.
    An assertion is drawn from ``inst.assertion_basis(names)``, and a case
    has one branch, under a condition of ``inst.condition_basis(names,
    ())``.  Subterms of one size, depth and guardedness are built once and
    shared between the processes."""
    names = tuple(names)
    asserts = [Assert(psi) for psi in inst.assertion_basis(names)]
    conds = inst.condition_basis(names, ())
    binders, built = [], {}

    def terms(sz, depth, guarded):
        key = sz, depth, guarded
        if key not in built:
            built[key] = list(build(sz, depth, guarded))
        return built[key]

    def build(sz, depth, guarded):
        if sz == 0:
            yield NIL
            return
        if sz == 1 and not guarded:
            yield from asserts
        if len(binders) == depth:
            binders.append(fresh_name(names, "x"))
        v, scope = binders[depth], names + tuple(binders[:depth])
        for ch in scope:
            for msg in scope:
                for cont in terms(sz - 1, depth, False):
                    yield Output(ch, msg, cont)
            for cont in terms(sz - 1, depth + 1, False):
                yield Input(ch, (v,), v, cont)
        for body in terms(sz - 1, depth + 1, guarded):
            yield Res(v, body)
        for body in terms(sz - 1, depth, True):
            yield Bang(body)
            yield from (Case(((phi, body),)) for phi in conds)
        for left in range(1, sz - 1):
            for p in terms(left, depth, guarded):
                for q in terms(sz - 1 - left, depth, guarded):
                    yield Par(p, q)

    return terms(size, 0, False)


def triangle_counterexample_shapes(a, b, c):
    """The two non-transitive scenarios as explicit corpus members."""
    from .process import par

    psi1 = frozenset({(a, b), (b, c), (c, c)})
    shape1 = Res(b, par(Output(a, a, NIL), Input(c, (c,), c, NIL), Assert(psi1)))
    d = fresh_name((a, b, c), "d")
    psi2 = frozenset({(a, b), (d, b), (c, d), (c, c)})
    shape2 = Res(b, Res(d, par(Output(a, a, NIL), Input(c, (c,), c, NIL),
                               Assert(psi2))))
    return [shape1, shape2]
