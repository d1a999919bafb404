import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from psiwb.nominal import apply_perm, fresh_name, support, swap
from psiwb.params import (EtherConn, EtherInstance, Join, PiEq, PiInstance,
                          Prec, PreorderInstance, Subst, SubstError, Tagged,
                          TaggedAssertion, TaggedInstance, TriangleInstance,
                          compose, entails, get_instance, static_equiv)

a, b, c, x, y, z = (fresh_name((), h) for h in "abcxyz")
NAMES = (a, b, c, x, y, z)

pi = PiInstance()
ether = EtherInstance()
tri = TriangleInstance()
pre = PreorderInstance()
tagged = TaggedInstance(pi)
ALL = (pi, ether, tri, pre, tagged)


def test_registry():
    assert isinstance(get_instance("pi"), PiInstance)
    assert isinstance(get_instance("tagged:ether").base, EtherInstance)
    with pytest.raises(KeyError):
        get_instance("nope")


# -- entailment --------------------------------------------------------------

def test_ether_entailment():
    assert entails(ether, frozenset({x, y}), EtherConn(x, y))
    assert not entails(ether, frozenset({x}), EtherConn(x, y))


def test_preorder_entailment_matches_transitive_closure_oracle():
    arcs = frozenset({(b, a)})
    assert entails(pre, arcs, Prec(b, a))

    def closure(arcs, names):
        rel = set(arcs) | {(n, n) for n in names}
        changed = True
        while changed:
            changed = False
            for (p, q), (r, s) in itertools.product(list(rel), repeat=2):
                if q == r and (p, s) not in rel:
                    rel.add((p, s))
                    changed = True
        return rel

    rng = random.Random(0)
    for _ in range(40):
        arcs = frozenset((rng.choice(NAMES[:4]), rng.choice(NAMES[:4]))
                         for _ in range(rng.randint(0, 4)))
        rel = closure(arcs, NAMES[:4])
        for p, q in itertools.product(NAMES[:4], repeat=2):
            assert entails(pre, arcs, Prec(p, q)) == ((p, q) in rel)
            joins = any((p, w) in rel and (q, w) in rel for w in NAMES[:4])
            assert entails(pre, arcs, Join(p, q)) == joins


def test_tagged_entailment_clauses():
    psi = TaggedAssertion(pi.unit, frozenset({z}))
    mk = tagged.conn
    assert entails(tagged, psi, mk(Tagged(a, x), Tagged(a, y)))
    assert not entails(tagged, psi, mk(Tagged(a, x), Tagged(a, x)))   # equal tags
    assert not entails(tagged, psi, mk(Tagged(a, z), Tagged(a, y)))   # disabled
    assert not entails(tagged, psi, mk(Tagged(a, x), Tagged(b, y)))   # base fails
    assert entails(tagged, psi, mk(Tagged(a, x), a))
    assert entails(tagged, psi, mk(a, Tagged(a, x)))
    assert entails(tagged, psi, mk(a, a))
    from psiwb.params import TagCond
    assert entails(tagged, psi, TagCond(z))
    assert not entails(tagged, psi, TagCond(x))


def test_tagged_connectivity_not_reflexive_not_transitive():
    # reflexivity fails: M_x cannot talk to M_x
    psi = tagged.unit
    assert not entails(tagged, psi, tagged.conn(Tagged(a, x), Tagged(a, x)))
    # transitivity fails: M_x -> M_y and M_y -> M_x but not M_x -> M_x
    assert entails(tagged, psi, tagged.conn(Tagged(a, x), Tagged(a, y)))
    assert entails(tagged, psi, tagged.conn(Tagged(a, y), Tagged(a, x)))


def test_pi_connectivity_is_equivalence():
    for m in NAMES:
        assert entails(pi, pi.unit, pi.conn(m, m))
    for m, k in itertools.product(NAMES, repeat=2):
        assert entails(pi, pi.unit, pi.conn(m, k)) == entails(pi, pi.unit, pi.conn(k, m))
        for l in NAMES:
            if entails(pi, pi.unit, pi.conn(m, k)) and entails(pi, pi.unit, pi.conn(k, l)):
                assert entails(pi, pi.unit, pi.conn(m, l))


# -- static equivalence ------------------------------------------------------

def test_static_equiv_reflexive():
    psi = frozenset({x, y})
    assert static_equiv(ether, psi, psi)


def test_static_equiv_ether():
    assert static_equiv(ether, frozenset({x, y}), frozenset({y, x}))
    # basis enumeration: y <-> y distinguishes {x} from {x, y}
    assert not static_equiv(ether, frozenset({x}), frozenset({x, y}))


# -- substitution ------------------------------------------------------------

def test_subst_basics():
    s = Subst.of((x,), (y,))
    assert pi.subst_term(x, s) == y
    assert pi.subst_term(a, s) == a


def test_subst_rejects_ill_formed():
    with pytest.raises(SubstError):
        Subst.of((x, y), (a,))
    with pytest.raises(SubstError):
        Subst.of((x, x), (a, b))


def test_subst_capture_avoidance():
    from psiwb.process import NIL, Output, Res, subst_process
    from psiwb.nominal import alpha_eq, canonical
    # ((nu z) a<z>.0)[a := z]  ==  (nu z')(z<z'>.0) with z' fresh
    p = Res(z, Output(a, z, NIL))
    q = subst_process(ether, p, Subst.of((a,), (z,)))
    # oracle: pre-rename the binder, then substitute naively
    w = fresh_name(NAMES, "w")
    oracle = Res(w, Output(z, w, NIL))
    assert alpha_eq(q, oracle)


def test_swap_substitution_equals_permutation():
    # substitution and permutation agree for swapping of fresh distinct names
    for inst, psi in ((ether, frozenset({a, b})), (pre, frozenset({(a, b)}))):
        s = Subst.of((a, b), (x, y))
        p = apply_perm(swap(a, x).then(swap(b, y)), psi)
        assert inst.subst_assertion(psi, s) == p


# -- composition -------------------------------------------------------------

def test_compose_examples():
    assert compose(ether, frozenset({x}), frozenset({y})) == frozenset({x, y})
    t1 = TaggedAssertion(frozenset({x}), frozenset({x}))
    t2 = TaggedAssertion(frozenset({y}), frozenset({y}))
    te = TaggedInstance(ether)
    assert compose(te, t1, t2) == TaggedAssertion(frozenset({x, y}), frozenset({x, y}))


def _random_assertions(inst, rng, n=30):
    return [inst.random_assertion(rng, NAMES[:4]) for _ in range(n)]


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_abelian_monoid_laws(inst):
    rng = random.Random(7)
    asserts = _random_assertions(inst, rng)
    for p1, p2 in zip(asserts, asserts[1:]):
        assert static_equiv(inst, compose(inst, p1, p2), compose(inst, p2, p1))
        assert static_equiv(inst, compose(inst, p1, inst.unit), p1)
    for p1, p2, p3 in zip(asserts, asserts[1:], asserts[2:]):
        assert static_equiv(inst,
                            compose(inst, p1, compose(inst, p2, p3)),
                            compose(inst, compose(inst, p1, p2), p3))


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_static_equiv_preserved_by_composition(inst):
    rng = random.Random(8)
    asserts = _random_assertions(inst, rng)
    for p1, p2, q in zip(asserts, asserts[1:], asserts[2:]):
        if static_equiv(inst, p1, p2):
            assert static_equiv(inst, compose(inst, p1, q), compose(inst, p2, q))


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_channel_enumerators_sound_and_complete(inst):
    rng = random.Random(9)
    universe = NAMES[:4]
    for _ in range(25):
        psi = inst.random_assertion(rng, universe)
        ctx = frozenset(universe)
        for m in universe:
            outs = inst.out_channels(psi, m, ctx)
            ins = inst.in_channels(psi, m, ctx)
            for k in outs:
                assert entails(inst, psi, inst.conn(m, k))
            for k in ins:
                assert entails(inst, psi, inst.conn(k, m))
            # completeness over the name universe
            for k in universe:
                if entails(inst, psi, inst.conn(m, k)):
                    assert k in outs
                if entails(inst, psi, inst.conn(k, m)):
                    assert k in ins


def test_match_pattern():
    assert pi.match_pattern((x,), x, y) == ((y,),)
    assert pi.match_pattern((), a, a) == ((),)
    assert pi.match_pattern((), a, b) == ()
    assert tagged.match_pattern((x,), x, Tagged(a, y)) == ()  # sorting check


def test_tagged_substitution_sorting_check():
    te = TaggedInstance(pi)
    with pytest.raises(SubstError):
        te.subst_term(x, Subst.of((x,), (Tagged(a, y),)))
