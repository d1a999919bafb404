import random

import pytest

from psiwb.nominal import MINT_BASE, Fresh, Name, fresh_name, support
from psiwb.corpus import random_process, triangle_counterexample_shapes
from psiwb.params import (EtherInstance, PiEq, PiInstance, PreorderInstance,
                          TriangleInstance)
from psiwb.process import (NIL, Assert, Bang, Case, Input, Output, Par, Res,
                           hoist, par)
from psiwb.reduction import (congruence_key, derived_par, harmony_check,
                             reductions)
from psiwb.semantics import TauLabel, legacy_transitions, transitions

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


def preorder_counterexample_shape(a, b, c):
    """a<a>.0 | c(x).0 | (|{(b,a),(b,c)}|): under the arcs b <= a and b <= c,
    a and b join and b and c join, but a and c do not."""
    return par(Output(a, a, NIL), Input(c, (x,), x, NIL),
               Assert(frozenset({(b, a), (b, c)})))


def test_preorder_counterexample_has_only_a_legacy_tau():
    p = preorder_counterexample_shape(a, b, c)
    arcs = frozenset({(b, a), (b, c)})
    assert pre.entails(arcs, pre.conn(a, b)) and pre.entails(arcs, pre.conn(b, c))
    assert not pre.entails(arcs, pre.conn(a, c))

    def taus(ts):
        return [t for t in ts if isinstance(t.label, TauLabel)]

    for reorient_in in (False, True):
        assert len(taus(legacy_transitions(pre, pre.unit, p, reorient_in=reorient_in))) == 1
    assert taus(transitions(pre, pre.unit, p)) == []
    assert reductions(pre, p) == frozenset()
    assert harmony_check(pre, p).ok


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


@pytest.mark.parametrize("fuel, matched", [(1, 1), (2, 2)])
def test_harmony_replicated_handshake(fuel, matched):
    # !(a<x>.0 | a(v).v): each target keeps the bang beside the copies used
    rep = harmony_check(pi, Bang(Par(out(a, x), inp(a))), fuel=fuel)
    assert rep.ok and rep.matched == matched


@pytest.mark.parametrize("fuel, matched", [(1, 1), (2, 4)])
def test_harmony_replicated_sender_and_receiver(fuel, matched):
    # !a<x>.0 | !a(v).v: at fuel 2 a step may use the second copy of one
    # bang, so its unused first copy stays in the target
    rep = harmony_check(pi, Par(Bang(out(a, x)), Bang(inp(a))), fuel=fuel)
    assert rep.ok and rep.matched == matched


def test_hoisting_keeps_same_named_sibling_binders_apart():
    # (nu x)x<a>.0 | (nu x)x(y).y: the second x is renamed when hoisted, so
    # the two private channels stay distinct and nothing communicates
    p = Par(Res(x, Output(x, a, NIL)), Res(x, Input(x, (y,), y, NIL)))
    shared = Res(x, Par(Output(x, a, NIL), Input(x, (y,), y, NIL)))
    binders, _, _ = hoist(p, Fresh(p), set(support(p)))
    assert len(set(binders)) == 2
    assert reductions(pi, p) == frozenset()
    assert harmony_check(pi, p).ok
    assert congruence_key(pi, p) != congruence_key(pi, shared)


def test_harmony_when_a_hoisted_binder_is_bound_again_below_an_input():
    # n<n>.0 | (nu n)(c<m>.0 | c(x).(nu n)d(x).n<x>.0): hoisting renames both
    # n binders, and the received continuation renames x; neither renaming
    # may capture, so the target keeps d(v).n<v> under its own n
    n, m, d = (fresh_name((), h) for h in "nmd")
    inner = Res(n, Input(d, (x,), x, Output(n, x, NIL)))
    p = Par(Output(n, n, NIL), Res(n, Par(Output(c, m, NIL), Input(c, (x,), x, inner))))
    (step,) = reductions(pi, p)
    want = Par(Output(n, n, NIL), Res(y, Res(z, Input(d, (x,), x, Output(z, x, NIL)))))
    assert congruence_key(pi, step.target) == congruence_key(pi, want)
    rep = harmony_check(pi, p)
    assert rep.ok and rep.matched == 1


def test_congruence_key_of_binder_bound_again_by_a_mint_atom():
    # (|{a}|) | (nu a)(nu M0)a<M0>.0: hoisting renames the clashing a, not to
    # the first mint atom, which is bound inside its scope
    m0 = Name(MINT_BASE)
    p = Par(Assert(frozenset({a})), Res(a, Res(m0, Output(a, m0, NIL))))
    q = Par(Assert(frozenset({a})), Res(x, Res(y, Output(x, y, NIL))))
    assert congruence_key(ether, p) == congruence_key(ether, q)


@pytest.mark.parametrize("inst", [pi, ether, tri, pre], ids=lambda i: i.name)
def test_harmony_on_corpus(inst):
    rng = random.Random(13)
    shapes = {tri: triangle_counterexample_shapes(a, b, c),
              pre: [preorder_counterexample_shape(a, b, c)]}.get(inst, [])
    count = 0
    for p in shapes + [random_process(inst, rng, rng.randint(2, 7), (a, b, c))
                       for _ in range(60)]:
        rep = harmony_check(inst, p, fuel=2)
        assert rep.ok, (p, rep)
        count += rep.matched
    assert count > 0
