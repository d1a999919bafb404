"""Deterministic pseudo-random process corpora for the property suites."""

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
