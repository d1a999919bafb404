import functools
import itertools
import random

import pytest

from psiwb.nominal import (MINT_BASE, Name, alpha_eq, apply_perm, canonical,
                           fresh_name, names_of, support, swap)
from psiwb.params import (EtherInstance, PiEq, PiInstance, PreorderInstance,
                          TriangleInstance, TaggedInstance, entails)
from psiwb.process import (NIL, Assert, Bang, Case, Input, Output, Par, Res,
                           opened_frame, par)
from psiwb.semantics import (BOT, Bot, ErasedTransition, Fuel, InLabel,
                             OutLabel, Prov, TAU, TauLabel, Transition,
                             erase_provenance, legacy_transitions,
                             prov_append, prov_pushdown, prov_scope,
                             transitions)

from naive_engine import naive_transitions

a, b, c, x, y, z = (fresh_name((), h) for h in "abcxyz")
pi = PiInstance()
ether = EtherInstance()
tri = TriangleInstance()
pre = PreorderInstance()


def taus(ts):
    return [t for t in ts if isinstance(t.label, TauLabel)]


# -- provenance operators ------------------------------------------------------

def test_pushdown_moves_outer_binders():
    assert prov_pushdown(Prov((x,), (), a)) == Prov((), (x,), a)
    assert prov_pushdown(Prov((x,), (y,), a)) == Prov((), (x, y), a)


def test_bot_is_absorbing():
    assert prov_pushdown(BOT) == BOT
    assert prov_append(BOT, (z,)) == BOT
    assert prov_scope(b, BOT) == BOT


def test_scope_prepends_outer_binder():
    assert prov_scope(b, Prov((x,), (y,), a)) == Prov((b, x), (y,), a)


def test_append_extends_outer_binders():
    assert prov_append(Prov((x,), (y,), a), (z,)) == Prov((x, z), (y,), a)


def test_transition_tau_iff_bot():
    with pytest.raises(ValueError):
        Transition(ether.unit, NIL, TAU, Prov((), (), a), NIL)
    with pytest.raises(ValueError):
        Transition(ether.unit, NIL, OutLabel(a, (), b), BOT, NIL)


# -- the ether worked example ---------------------------------------------------

def ether_P():
    return Res(x, Par(Output(x, x, NIL), Assert(frozenset({x}))))


def ether_Q():
    return Res(y, Par(Input(y, (y,), y, NIL), Assert(frozenset({y}))))


def test_ether_output_example():
    ts = transitions(ether, frozenset({y}), ether_P())
    assert len(ts) == 1
    (t,) = ts
    assert isinstance(t.label, OutLabel)
    assert t.label.subject == y
    assert len(t.label.extruded) == 1
    ext = t.label.extruded[0]
    assert t.label.obj == ext
    assert t.prov.inner == () and len(t.prov.outer) == 1
    assert t.prov.term == t.prov.outer[0]


def test_ether_input_example():
    ts = transitions(ether, frozenset({x}), ether_Q())
    assert ts
    for t in ts:
        assert isinstance(t.label, InLabel)
        assert t.label.subject == x
        assert len(t.prov.outer) == 1 and t.prov.term == t.prov.outer[0]


def test_ether_com_example():
    ts = transitions(ether, frozenset(), Par(ether_P(), ether_Q()))
    tau = taus(ts)
    assert len(tau) == 1
    (t,) = tau
    assert t.prov == BOT
    # the output premise extrudes x (the message), so the conclusion rebinds
    # it around both components: (nu x)((0 | (|{x}|)) | (nu y)(0 | (|{y}|)))
    expected = Res(x, Par(Par(NIL, Assert(frozenset({x}))),
                          Res(y, Par(NIL, Assert(frozenset({y}))))))
    assert alpha_eq(t.target, expected)


def test_stuck_process_has_no_transitions():
    assert transitions(ether, frozenset({x}), NIL) == frozenset()


def test_triangle_has_no_tau_between_a_and_c():
    psi = frozenset({(a, b), (b, c), (c, c)})
    p = Res(b, Par(Par(Output(a, a, NIL), Input(c, (z,), z, NIL)), Assert(psi)))
    assert taus(transitions(tri, frozenset(), p)) == []


def test_triangle_legacy_strings_a_derivation_via_b():
    psi = frozenset({(a, b), (b, c), (c, c)})
    p = Res(b, Par(Par(Output(a, a, NIL), Input(c, (z,), z, NIL)), Assert(psi)))
    legacy = legacy_transitions(tri, frozenset(), p)
    assert len([t for t in legacy if isinstance(t.label, TauLabel)]) >= 1


def test_triangle_reoriented_legacy_strings_a_derivation_via_b():
    # reoriented In-Old gives the input on c the subjects b and c; Com-Old
    # still strings a's b to c, where the provenance Com finds no partner
    psi = frozenset({(a, b), (b, c), (c, c)})
    p = Res(b, Par(Par(Output(a, a, NIL), Input(c, (z,), z, NIL)), Assert(psi)))
    assert len(taus(legacy_transitions(tri, frozenset(), p, reorient_in=True))) == 1
    assert taus(transitions(tri, frozenset(), p)) == []


def test_legacy_pi_handshake_agrees():
    p = Par(Output(a, x, NIL), Input(a, (y,), y, NIL))
    ts = legacy_transitions(pi, pi.unit, p)
    tau = [t for t in ts if isinstance(t.label, TauLabel)]
    assert len(tau) == 1
    assert alpha_eq(tau[0].target, Par(NIL, NIL))


def test_legacy_ether_composite():
    # the Example 2.10 composite also has the tau under the legacy engine
    ts = legacy_transitions(ether, frozenset(), Par(ether_P(), ether_Q()))
    assert len([t for t in ts if isinstance(t.label, TauLabel)]) == 1


def test_legacy_in_orientation_flag():
    # directed fact c->a only: under the printed orientation an input on c
    # has labels from out_channels(c), under the reoriented one from
    # in_channels(c)
    psi = frozenset({(c, a)})
    p = Par(Input(c, (z,), z, NIL), Assert(psi))
    printed = legacy_transitions(tri, frozenset(), p)
    reoriented = legacy_transitions(tri, frozenset(), p, reorient_in=True)
    assert {t.label.subject for t in printed} == {a}
    assert reoriented == frozenset()


# -- erase_provenance ------------------------------------------------------------

def test_erase_empty():
    assert erase_provenance(frozenset()) == frozenset()


def test_erase_projects():
    ts = transitions(ether, frozenset(), Par(ether_P(), ether_Q()))
    erased = erase_provenance(ts)
    assert all(isinstance(t, ErasedTransition) for t in erased)
    assert len(erased) == len(ts)


def test_erase_collapses_provenance_only_differences():
    # case T:x<n>.0 [] T:y<n>.0 in ether: both branches emit the same label
    # to the same target but from different prefixes
    psi = frozenset({x, y, z})
    guard = ether.conn(x, x)
    p = Par(Case(((guard, Output(x, a, NIL)), (guard, Output(y, a, NIL)))),
            Assert(psi))
    ts = transitions(ether, frozenset({a}), p)
    zs = [t for t in ts if isinstance(t.label, OutLabel) and t.label.subject == z]
    assert len(zs) == 2 and len({t.prov for t in zs}) == 2
    assert len(erase_provenance(zs)) == 1


# -- invariants -------------------------------------------------------------------

def corpus(inst, rng, n, size=5, names=(a, b, c)):
    from psiwb.corpus import random_process
    return [random_process(inst, rng, size, names) for _ in range(n)]


@pytest.mark.parametrize("inst", [pi, ether, tri, pre], ids=lambda i: i.name)
def test_provenance_frame_alignment_and_lemma_connectivity(inst):
    rng = random.Random(42)
    checked = 0
    for p in corpus(inst, rng, 40):
        env = inst.random_assertion(rng, (a, b, c))
        for t in transitions(inst, env, p, fuel=2):
            checked += _check_lemma(inst, t)
    assert checked > 0


def _check_lemma(inst, t):
    """Lemma 'find connected provenance' plus binder/frame alignment."""
    if isinstance(t.label, TauLabel):
        assert t.prov == BOT
        return 0
    avoid = names_of(t.env, t.source, t.label, t.prov, t.target)
    bs, psi_p, avoid = opened_frame(inst, t.source, avoid)
    assert len(t.prov.outer) == len(bs), "provenance binders mismatch frame binders"
    from psiwb.nominal import mint_many, rename
    temps, _ = mint_many(avoid, len(t.prov.inner), "t")
    k = rename(dict(list(zip(t.prov.outer, bs)) + list(zip(t.prov.inner, temps))),
               t.prov.term)
    env2 = inst.compose(t.env, psi_p)
    if isinstance(t.label, InLabel):
        assert entails(inst, env2, inst.conn(t.label.subject, k))
    else:
        assert entails(inst, env2, inst.conn(k, t.label.subject))
    return 1


def test_fuel_monotonicity():
    rng = random.Random(3)
    for inst in (pi, ether):
        for p in corpus(inst, rng, 15, size=5):
            env = inst.random_assertion(rng, (a, b))
            prev = frozenset()
            for f in (0, 1, 2):
                cur = transitions(inst, env, p, fuel=f)
                assert prev <= cur
                prev = cur


def test_transitions_equivariant():
    rng = random.Random(4)
    perm = swap(a, b)
    for p in corpus(ether, rng, 15, size=4):
        env = ether.random_assertion(rng, (a, b, c))
        lhs = frozenset(canonical(apply_perm(perm, t))
                        for t in transitions(ether, env, p))
        rhs = transitions(ether, apply_perm(perm, env), apply_perm(perm, p))
        assert lhs == rhs


def test_transitions_deterministic_across_calls():
    rng = random.Random(5)
    for p in corpus(ether, rng, 10, size=5):
        env = ether.random_assertion(rng, (a, b, c))
        assert transitions(ether, env, p) == transitions(ether, env, p)


def spine(parts, right=False):
    """The parallel composition of ``parts``, nested to the left or right."""
    if not right:
        return par(*parts)
    return functools.reduce(lambda acc, q: Par(q, acc), reversed(parts[:-1]),
                            parts[-1])


def ether_copies(n, right=False):
    """n copies of the ether example P | Q as one spine of 2n components."""
    return spine([ether_P(), ether_Q()] * n, right)


# the channel enumerators offer the sibling's bound c as an output subject,
# which Par's freshness side condition must drop.  The ether spines hand
# opened frames down several Par levels, one of them through a component
# whose frame nests a restriction inside another.
SIBLING_BINDER_CASES = {
    "triangle": [Par(Res(c, Assert(frozenset({(a, c)}))), Output(a, a, NIL))],
    "ether": [Par(Res(c, Assert(frozenset({a, c}))), Output(a, a, NIL)),
              ether_copies(2), ether_copies(2, right=True),
              ether_copies(3), ether_copies(3, right=True),
              Par(Res(x, Par(Res(y, Assert(frozenset({x, y}))),
                             Output(x, y, NIL))),
                  Res(z, Par(Input(z, (b,), b, NIL), Assert(frozenset({z})))))],
}


@pytest.mark.parametrize("inst", [pi, ether, tri, pre], ids=lambda i: i.name)
def test_agreement_with_naive_oracle(inst):
    # soundness spot-check: an independent naive proof search derives the
    # same provenance-erased transitions on small terms over two names
    rng = random.Random(6)
    cases = [(inst.random_assertion(rng, (a, b)), p)
             for p in corpus(inst, rng, 25, size=6, names=(a, b))]
    cases += [(inst.unit, p) for p in SIBLING_BINDER_CASES.get(inst.name, ())]
    for env, p in cases:
        got = erase_provenance(transitions(inst, env, p, fuel=2))
        want = naive_transitions(inst, env, p, fuel=2)
        assert got == want


def test_conservativity_on_pi_small():
    # pi's channel enumerators are symmetric, so both orientations of In-Old
    # agree with the provenance rules
    rng = random.Random(7)
    for p in corpus(pi, rng, 40, size=6):
        for f in (0, 1, 2):
            new = erase_provenance(transitions(pi, pi.unit, p, fuel=f))
            for reorient_in in (False, True):
                old = legacy_transitions(pi, pi.unit, p, fuel=f, reorient_in=reorient_in)
                assert new == old


def pi_handshakes():
    """Components of pi spines: a private handshake, a sender extruding a
    private channel, a receiver using what it gets, a replicated sender."""
    private = Res(c, Par(Output(c, a, NIL), Input(c, (y,), y, NIL)))
    extrude = Res(c, Output(a, c, Output(c, b, NIL)))
    receive = Input(a, (z,), z, Input(z, (y,), y, NIL))
    bang = Bang(Res(c, Output(a, c, NIL)))
    return private, extrude, receive, bang


@pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
def test_conservativity_on_pi_spines(right):
    # both engines hand opened frames down these spines, and the replicated
    # sender is reopened at each unfolding
    private, extrude, receive, bang = pi_handshakes()
    for p in (spine([private, extrude, receive], right),
              spine([extrude, private, receive, private], right),
              spine([bang, receive, private], right)):
        for f in (0, 1, 2):
            new = erase_provenance(transitions(pi, pi.unit, p, fuel=f))
            assert taus(transitions(pi, pi.unit, p, fuel=f))
            assert new == legacy_transitions(pi, pi.unit, p, fuel=f)


def test_unfolded_copy_is_opened_fresh_for_sibling_frames():
    # each replication unfolding is opened against everything in scope: were
    # the copy's private y opened to the sibling's opened c, the ether would
    # connect y to a and the copy would send on a
    p = Par(Res(c, Assert(frozenset({c, a}))),
            Bang(Res(x, Res(y, Output(y, a, NIL)))))
    for f in (0, 1, 2):
        assert transitions(ether, ether.unit, p, fuel=f) == frozenset()
        assert legacy_transitions(ether, ether.unit, p, fuel=f) == frozenset()


def test_frames_opened_once_per_query(monkeypatch):
    # one opening at the root covers every restriction on the Par spine, and
    # the Com partner search reuses it: the 8 restrictions of 4 ether-example
    # copies need 8 atoms, plus the message basis's one
    from psiwb import (corpus as corpus_mod, nominal, params, process, reduction,
                       semantics)
    minted = []
    original = nominal.mint

    def counting_mint(*args, **kwargs):
        minted.append(1)
        return original(*args, **kwargs)

    for mod in (nominal, params, process, semantics, reduction, corpus_mod):
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, counting_mint)
    p = ether_copies(4)
    restrictions = 8
    for engine in (transitions, legacy_transitions):
        minted.clear()
        ts = engine(ether, ether.unit, p)
        assert len(taus(ts)) == 16
        assert len(minted) <= 2 * restrictions


# -- the shared canonical head ----------------------------------------------------

@pytest.mark.parametrize("inst", [pi, ether], ids=lambda i: i.name)
def test_results_are_canonical_fixed_points(inst):
    rng = random.Random(42)
    for p in corpus(inst, rng, 40):
        env = inst.random_assertion(rng, (a, b, c))
        for t in transitions(inst, env, p) | legacy_transitions(inst, env, p):
            assert canonical(t) == t


def test_erase_provenance_matches_whole_transition_canonical():
    # hand-built, non-canonical transitions from two sources, interleaved:
    # u and v are alpha-variant extruded binders, the free scratch atom s
    # occurs in the source and in some targets, and q2 is an alpha-variant
    # of the source q1
    u, v, s = (Name(MINT_BASE + k, h) for k, h in ((3, "u"), (7, "v"), (5, "s")))
    p = Par(Output(a, s, NIL), Input(a, (y,), y, NIL))
    q1 = Res(x, Output(a, x, NIL))
    q2 = Res(z, Output(a, z, NIL))
    ts = [
        Transition(pi.unit, p, OutLabel(a, (), s), Prov((), (), a),
                   Par(NIL, Input(a, (y,), y, NIL))),
        Transition(pi.unit, q1, OutLabel(a, (u,), u), Prov((u,), (), a), NIL),
        Transition(pi.unit, p, TAU, BOT, Par(NIL, NIL)),
        Transition(pi.unit, q2, OutLabel(a, (v,), v), Prov((v,), (), a), NIL),
        Transition(pi.unit, p, InLabel(a, s), Prov((), (), a),
                   Par(Output(a, s, NIL), NIL)),
        Transition(pi.unit, q1, OutLabel(a, (v,), v), Prov((), (v,), a), NIL),
    ]
    want = frozenset(canonical(ErasedTransition(t.env, t.source, t.label, t.target))
                     for t in ts)
    assert len(want) == 4
    assert erase_provenance(ts) == want


def test_extruded_binders_scope_over_target_not_provenance():
    u = Name(MINT_BASE + 3, "u")
    t = canonical(Transition(pi.unit, NIL, OutLabel(a, (u,), u), Prov((), (), u),
                             Output(a, u, NIL)))
    (bound,) = t.label.extruded
    assert t.label.obj == t.target.message == bound
    assert t.prov.term != bound
