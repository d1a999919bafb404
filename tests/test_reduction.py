import random

import pytest

from psiwb.nominal import alpha_eq, fresh_name
from psiwb.corpus import random_process, triangle_counterexample_shapes
from psiwb.params import (EtherInstance, PiEq, PiInstance, PreorderInstance,
                          TriangleInstance)
from psiwb.process import (NIL, Assert, Bang, Case, Input, Output, Par, Res,
                           normal_form, par)
from psiwb.reduction import (HOLE, CtxCase, CtxPar, CtxProc, conds,
                             congruence_key, derived_par, fill,
                             harmony_check, holes, ppr, reductions)

a, b, c, x, y, z = (fresh_name((), h) for h in "abcxyz")
pi = PiInstance()
ether = EtherInstance()
tri = TriangleInstance()
pre = PreorderInstance()


def out(ch, msg=None, cont=NIL):
    return Output(ch, msg if msg is not None else ch, cont)


def inp(ch, cont=NIL):
    v = fresh_name((a, b, c, x, y, z), "v")
    return Input(ch, (v,), v, cont)


# -- contexts -------------------------------------------------------------------

def test_holes_and_fill():
    c1 = CtxPar(HOLE, CtxProc(out(a)))
    assert holes(c1) == 1
    assert fill(c1, [out(b)]) == Par(out(b), out(a))
    with pytest.raises(ValueError):
        fill(c1, [out(b), out(c)])


def test_conds_and_ppr_base_clauses():
    c1 = CtxPar(HOLE, CtxProc(out(a)))
    assert conds(c1) == frozenset()
    assert ppr(c1) == out(a)  # the nil hole contributes nothing


def test_conds_collects_case_guards():
    phi = PiEq(a, a)
    c1 = CtxCase((), phi, HOLE, ((PiEq(b, b), out(b)),))
    assert conds(c1) == frozenset((phi,))
    assert ppr(c1) == NIL


def test_conds_ppr_structural_recursion_oracle():
    # independent recursion over randomly built context trees
    rng = random.Random(11)

    def build(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return CtxProc(out(rng.choice((a, b))))
        if roll < 0.5:
            return HOLE
        if roll < 0.8:
            return CtxPar(build(depth - 1), build(depth - 1))
        return CtxCase((), PiEq(rng.choice((a, b)), a), build(depth - 1), ())

    def oracle_conds(ctx):
        if isinstance(ctx, CtxPar):
            return oracle_conds(ctx.left) | oracle_conds(ctx.right)
        if isinstance(ctx, CtxCase):
            return {ctx.guard} | oracle_conds(ctx.inner)
        return set()

    def oracle_ppr(ctx):
        if isinstance(ctx, CtxProc):
            return [ctx.proc]
        if isinstance(ctx, CtxPar):
            return oracle_ppr(ctx.left) + oracle_ppr(ctx.right)
        if isinstance(ctx, CtxCase):
            return oracle_ppr(ctx.inner)
        return []

    from psiwb.process import par_components
    for _ in range(60):
        ctx = build(3)
        assert conds(ctx) == frozenset(oracle_conds(ctx))
        assert par_components(ppr(ctx)) == oracle_ppr(ctx)


# -- reductions -------------------------------------------------------------------

def test_pi_handshake_reduces_to_nil():
    p = Par(out(a, x), inp(a))
    steps = reductions(pi, p)
    assert len(steps) == 1
    (s,) = steps
    assert congruence_key(pi, s.target) == congruence_key(pi, NIL)
    assert s.witness.sender == out(a, x)


def test_triangle_counterexample_has_no_reduction():
    p, _ = triangle_counterexample_shapes(a, b, c)
    assert reductions(tri, p) == frozenset()


def test_failed_guard_blocks_reduction():
    never = PiEq(a, b)  # a != b: never entailed
    p = Par(Case(((never, out(a, x)),)), inp(a))
    assert reductions(pi, p) == frozenset()


def test_guard_mutation_removes_dependent_steps():
    good = PiEq(a, a)
    bad = PiEq(a, b)
    p_good = Par(Case(((good, out(a, x)),)), inp(a))
    p_bad = Par(Case(((bad, out(a, x)),)), inp(a))
    assert len(reductions(pi, p_good)) == 1
    assert len(reductions(pi, p_bad)) == 0


def test_no_communication_between_branches_of_one_case():
    good = PiEq(a, a)
    p = Case(((good, out(a, x)), (good, inp(a))))
    assert reductions(pi, p) == frozenset()


def test_reduction_under_restriction():
    p = Res(a, Par(out(a, x), inp(a)))
    steps = reductions(pi, p)
    assert len(steps) == 1


def test_ether_composite_reduces():
    P = Res(x, Par(Output(x, x, NIL), Assert(frozenset({x}))))
    Q = Res(y, Par(Input(y, (y,), y, NIL), Assert(frozenset({y}))))
    steps = reductions(ether, Par(P, Q))
    assert len(steps) == 1


def test_replication_enables_bounded_copies():
    p = Bang(Par(out(a, x), inp(a)))
    assert len(reductions(pi, p, fuel=0)) == 0
    assert len(reductions(pi, p, fuel=1)) >= 1


def test_inter_copy_communication_needs_fuel_two():
    p = Par(Bang(out(a, x)), Bang(inp(a)))
    steps = reductions(pi, p, fuel=1)
    assert len(steps) >= 1


# -- derived rule ------------------------------------------------------------------

def test_derived_par_preserves_steps():
    p = Par(out(a, x), inp(a))
    assert derived_par(pi, p, out(b, z))


def test_derived_par_on_stuck_process():
    assert derived_par(pi, out(a, x), out(b, z))


def test_derived_par_rejects_unguarded():
    with pytest.raises(ValueError):
        derived_par(pi, NIL, Assert(pi.unit))


# -- harmony ------------------------------------------------------------------------

def test_harmony_pi_handshake():
    rep = harmony_check(pi, Par(out(a, x), inp(a)))
    assert rep.ok and rep.matched == 1


def test_harmony_stuck():
    rep = harmony_check(pi, out(a, x))
    assert rep.ok and rep.matched == 0


def test_harmony_ether_composite():
    P = Res(x, Par(Output(x, x, NIL), Assert(frozenset({x}))))
    Q = Res(y, Par(Input(y, (y,), y, NIL), Assert(frozenset({y}))))
    rep = harmony_check(ether, Par(P, Q))
    assert rep.ok and rep.matched == 1


def test_harmony_case_under_restriction():
    # requires hoisting the restriction out of the case branch
    guard = PiEq(a, a)
    p = Case(((guard, Res(b, Par(out(b, b), inp(b)))),))
    rep = harmony_check(pi, p)
    assert rep.ok and rep.matched == 1


def test_hoisting_keeps_same_named_sibling_binders_apart():
    # (nu x)x<a>.0 | (nu x)x(y).y: the second x is renamed when hoisted, so
    # the two private channels stay distinct and nothing communicates
    p = Par(Res(x, Output(x, a, NIL)), Res(x, Input(x, (y,), y, NIL)))
    shared = Res(x, Par(Output(x, a, NIL), Input(x, (y,), y, NIL)))
    nf = normal_form(pi, p)
    assert len(set(nf.binders)) == 2
    assert reductions(pi, p) == frozenset()
    assert harmony_check(pi, p).ok
    assert congruence_key(pi, p) != congruence_key(pi, shared)


@pytest.mark.parametrize("inst", [pi, ether, tri, pre], ids=lambda i: i.name)
def test_harmony_on_corpus(inst):
    rng = random.Random(13)
    shapes = triangle_counterexample_shapes(a, b, c) if inst is tri else []
    count = 0
    for p in shapes + [random_process(inst, rng, rng.randint(2, 7), (a, b, c))
                       for _ in range(60)]:
        rep = harmony_check(inst, p, fuel=2)
        assert rep.ok, (p, rep)
        count += rep.matched
    assert count > 0
