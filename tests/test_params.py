import itertools
import random

import pytest

from psiwb.nominal import fresh_name, rename
from psiwb.params import (EtherConn, EtherInstance, Join, PiEq, PiInstance,
                          Prec, PreorderInstance, Subst, SubstError, TriConn,
                          TriangleInstance, static_equiv)

a, b, c, x, y, z = (fresh_name((), h) for h in "abcxyz")
NAMES = (a, b, c, x, y, z)

pi = PiInstance()
ether = EtherInstance()
tri = TriangleInstance()
pre = PreorderInstance()
ALL = (pi, ether, tri, pre)


# -- entailment --------------------------------------------------------------

def test_ether_entailment():
    assert ether.entails(frozenset({x, y}), EtherConn(x, y))
    assert not ether.entails(frozenset({x}), EtherConn(x, y))


def test_preorder_entailment_matches_transitive_closure_oracle():
    arcs = frozenset({(b, a)})
    assert pre.entails(arcs, Prec(b, a))

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
            assert pre.entails(arcs, Prec(p, q)) == ((p, q) in rel)
            joins = any((p, w) in rel and (q, w) in rel for w in NAMES[:4])
            assert pre.entails(arcs, Join(p, q)) == joins


def test_connectivity_need_not_be_symmetric_or_transitive():
    # triangle: a -> b and b -> c, but neither a -> c, b -> a nor a -> a
    facts = frozenset({(a, b), (b, c)})
    assert tri.entails(facts, TriConn(a, b)) and tri.entails(facts, TriConn(b, c))
    for src, dst in ((a, c), (b, a), (a, a)):
        assert not tri.entails(facts, TriConn(src, dst))
    # preorder: a and b share w, b and c share v, but a and c share nothing
    w, v = (fresh_name((), h) for h in "wv")
    arcs = frozenset({(a, w), (b, w), (b, v), (c, v)})
    assert pre.entails(arcs, Join(a, b)) and pre.entails(arcs, Join(b, c))
    assert not pre.entails(arcs, Join(a, c))


def test_pi_connectivity_is_reflexive():
    for m in NAMES:
        assert pi.entails(pi.unit, pi.conn(m, m))


@pytest.mark.parametrize("inst", [pi, ether], ids=lambda i: i.name)
def test_connectivity_is_symmetric_and_transitive(inst):
    # the instances the conservativity test runs on: connectivity must be
    # symmetric and transitive under every assertion of the basis
    for psi in inst.assertion_basis(NAMES):
        def conn(m, k):
            return inst.entails(psi, inst.conn(m, k))
        for m, k in itertools.product(NAMES, repeat=2):
            assert conn(m, k) == conn(k, m)
            for l in NAMES:
                if conn(m, k) and conn(k, l):
                    assert conn(m, l)


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


def test_name_terms_reject_what_is_not_a_name():
    # neither a term nor a substitution's image may be other than a name
    with pytest.raises(SubstError):
        pi.subst_term((a, b), Subst.of((x,), (y,)))
    with pytest.raises(SubstError):
        pi.subst_term(x, Subst.of((x,), ((a, b),)))


def test_subst_capture_avoidance():
    from psiwb.process import NIL, Output, Res, subst_process
    from psiwb.nominal import alpha_eq
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
        p = rename({a: x, x: a, b: y, y: b}, psi)
        assert inst.subst_assertion(psi, s) == p


# -- composition -------------------------------------------------------------

def test_compose_examples():
    assert ether.compose(frozenset({x}), frozenset({y})) == frozenset({x, y})


def _random_assertions(inst, rng, n=30):
    return [inst.random_assertion(rng, NAMES[:4]) for _ in range(n)]


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_abelian_monoid_laws(inst):
    rng = random.Random(7)
    asserts = _random_assertions(inst, rng)
    for p1, p2 in zip(asserts, asserts[1:]):
        assert static_equiv(inst, inst.compose(p1, p2), inst.compose(p2, p1))
        assert static_equiv(inst, inst.compose(p1, inst.unit), p1)
    for p1, p2, p3 in zip(asserts, asserts[1:], asserts[2:]):
        assert static_equiv(inst,
                            inst.compose(p1, inst.compose(p2, p3)),
                            inst.compose(inst.compose(p1, p2), p3))


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_static_equiv_preserved_by_composition(inst):
    rng = random.Random(8)
    asserts = _random_assertions(inst, rng)
    for p1, p2, q in zip(asserts, asserts[1:], asserts[2:]):
        if static_equiv(inst, p1, p2):
            assert static_equiv(inst, inst.compose(p1, q), inst.compose(p2, q))


@pytest.mark.parametrize("inst", ALL, ids=lambda i: i.name)
def test_channel_enumerators_sound_and_complete(inst):
    rng = random.Random(9)
    universe = NAMES[:4]
    asserts = _random_assertions(inst, rng, 25)
    composed = [inst.compose(p1, p2) for p1, p2 in zip(asserts, asserts[1:])]
    for psi in asserts + composed:
        for m in universe:
            outs = inst.out_channels(psi, m)
            ins = inst.in_channels(psi, m)
            for k in outs:
                assert inst.entails(psi, inst.conn(m, k))
            for k in ins:
                assert inst.entails(psi, inst.conn(k, m))
            # completeness over the name universe
            for k in universe:
                if inst.entails(psi, inst.conn(m, k)):
                    assert k in outs
                if inst.entails(psi, inst.conn(k, m)):
                    assert k in ins


def test_match_pattern():
    assert pi.match_pattern((x,), x, y) == ((y,),)
    assert pi.match_pattern((), a, a) == ((),)
    assert pi.match_pattern((), a, b) == ()


def test_match_pattern_rejects_what_is_not_a_name_pattern():
    # a message that is not a name matches nothing
    assert pi.match_pattern((x,), x, (a, b)) == ()
    # a pattern that is neither its one variable nor closed matches nothing
    assert pi.match_pattern((x,), a, b) == ()
    assert pi.match_pattern((x, y), x, b) == ()


def test_preorder_entails_no_condition_of_another_instance():
    # even where the preorder's own conditions on the same names hold
    psi = frozenset({(a, b), (b, a)})
    assert pre.entails(psi, Prec(a, b)) and pre.entails(psi, Join(a, b))
    for phi in (PiEq(a, a), EtherConn(a, b), TriConn(a, b)):
        assert not pre.entails(psi, phi)
