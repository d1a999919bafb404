import functools
import random
from dataclasses import dataclass

import pytest

from psiwb.nominal import (MINT_BASE, Fresh, Name, alpha_eq, canonical, fresh_name,
                           mint_many, rename, support)
from psiwb.params import (CalculusInstance, EtherInstance, PiEq, PiInstance,
                          PreorderInstance, TriangleInstance, _NameTermMixin)
from psiwb.process import (NIL, Assert, Bang, Case, Input, Output, Par, Res,
                           opened_frame, par)
from psiwb.semantics import (BOT, ErasedTransition, InLabel,
                             OutLabel, Prov, TAU, TauLabel, Transition,
                             erase_provenance, legacy_transitions, transitions)
from psiwb.reduction import harmony_check

from naive_engine import naive_transitions

a, b, c, x, y, z = (fresh_name((), h) for h in "abcxyz")
pi = PiInstance()
ether = EtherInstance()
tri = TriangleInstance()
pre = PreorderInstance()


def taus(ts):
    return [t for t in ts if isinstance(t.label, TauLabel)]


# -- provenances ---------------------------------------------------------------

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


# Receivers whose input on c gets the label subject b (or z) only through a
# fact on a private name.  Scope (Par, for the sibling binder z) rejects that
# premise, so the receiver has no input transition of its own, and Com-Old
# must not use it as a receiving premise either.
# shape -> (the orientation under which Com-Old would fire, receiver)
RECEIVER_ESCAPES = {
    "scope-reoriented": (True, Res(b, Par(Input(c, (x,), x, NIL),
                                          Assert(frozenset({(a, b), (b, b), (b, c)}))))),
    "scope-printed": (False, Res(b, Par(Input(c, (x,), x, NIL),
                                        Assert(frozenset({(a, b), (b, b), (c, b)}))))),
    "sibling-reoriented": (True, Par(Input(c, (x,), x, NIL),
                                     Res(z, Assert(frozenset({(a, z), (z, z), (z, c)}))))),
}


@pytest.mark.parametrize("shape", sorted(RECEIVER_ESCAPES))
def test_com_old_receiver_obeys_scope_and_par(shape):
    reorient_in, q = RECEIVER_ESCAPES[shape]
    p = Par(Output(a, y, NIL), q)
    for ro in (False, True):
        assert legacy_transitions(tri, frozenset(), q, reorient_in=ro) == frozenset()
        assert taus(legacy_transitions(tri, frozenset(), p, reorient_in=ro)) == []
    assert transitions(tri, frozenset(), q) == frozenset()
    assert taus(transitions(tri, frozenset(), p)) == []
    # the fact on the private name is what the receiver needs: made public,
    # it gives Com-Old its tau under the same orientation
    public = q.body if isinstance(q, Res) else Par(q.left, q.right.body)
    assert len(taus(legacy_transitions(tri, frozenset(), Par(Output(a, y, NIL), public),
                                       reorient_in=reorient_in))) == 1


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


def test_support_of_a_transition_and_of_its_erasure():
    # an OutLabel's extruded names bind in its object and the target only:
    # free in the provenance they are in the support
    t = Transition(ether.unit, Res(b, Output(a, b, Output(b, c, NIL))),
                   OutLabel(a, (b,), b), Prov((), (), b), Output(b, c, NIL))
    assert support(ErasedTransition(t.env, t.source, t.label, t.target)) == {a, c}
    assert support(t) == {a, b, c}
    # a transition's support is its erasure's and its provenance's
    rng, extruding = random.Random(7), 0
    for inst in (pi, ether):
        for p in corpus(inst, rng, 20) + [t.source, Par(t.source, Input(a, (x,), x, NIL))]:
            for u in transitions(inst, inst.unit, p):
                erased = ErasedTransition(u.env, u.source, u.label, u.target)
                assert support(u) == support(erased) | support(u.prov)
                extruding += isinstance(u.label, OutLabel) and bool(u.label.extruded)
    assert extruding > 0


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
    fresh = Fresh(t.env, t.source, t.label, t.prov, t.target)
    frame = opened_frame(inst, t.source, fresh)
    bs, psi_p = frame.binders, frame.assertion
    assert len(t.prov.outer) == len(bs), "provenance binders mismatch frame binders"
    temps = mint_many(fresh, len(t.prov.inner), "t")
    k = rename(dict(list(zip(t.prov.outer, bs)) + list(zip(t.prov.inner, temps))),
               t.prov.term)
    env2 = inst.compose(t.env, psi_p)
    if isinstance(t.label, InLabel):
        assert inst.entails(env2, inst.conn(t.label.subject, k))
    else:
        assert inst.entails(env2, inst.conn(k, t.label.subject))
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
    perm = {a: b, b: a}
    for p in corpus(ether, rng, 15, size=4):
        env = ether.random_assertion(rng, (a, b, c))
        lhs = frozenset(canonical(rename(perm, t))
                        for t in transitions(ether, env, p))
        rhs = transitions(ether, rename(perm, env), rename(perm, p))
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


# In triangle and ether the channel enumerators offer the sibling's bound c
# as an output subject, which Par's freshness side condition must drop.  The
# ether spines hand opened frames down several Par levels, one of them
# through a component whose frame nests a restriction inside another.  The
# pi case binds the first mint atom but one below a restriction, which
# opening the root restriction must steer clear of.
ORACLE_CASES = {
    "pi": [Res(c, Input(a, (x,), x, Res(Name(MINT_BASE + 1), Output(
        c, Name(MINT_BASE + 1), NIL))))],
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
    cases += [(inst.unit, p) for p in ORACLE_CASES.get(inst.name, ())]
    for env, p in cases:
        got = erase_provenance(transitions(inst, env, p, fuel=2))
        want = naive_transitions(inst, env, p, fuel=2)
        assert got == want


@pytest.mark.parametrize("inst", [pi, ether], ids=lambda i: i.name)
def test_conservativity_on_small_terms(inst):
    # pi's and ether's connectivity is symmetric and transitive (checked by
    # test_connectivity_is_symmetric_and_transitive), so both orientations of
    # In-Old agree with the provenance rules, under any environment
    rng = random.Random(7)
    members = [p for size in (6, 3, 4, 5) for p in corpus(inst, rng, 40, size=size)]
    for p in members:
        for psi in (inst.unit, inst.random_assertion(rng, (a, b, c))):
            for f in (0, 1, 2):
                new = erase_provenance(transitions(inst, psi, p, fuel=f))
                for reorient_in in (False, True):
                    assert new == legacy_transitions(inst, psi, p, fuel=f,
                                                     reorient_in=reorient_in)


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


def test_root_restriction_opened_clear_of_bound_mint_atoms():
    # (nu n)a(x).(nu M1)n<M1>.0: the root's n is opened to a mint atom, which
    # must not be the bound M1, or the target's n<M1> would become M1<M1>
    n = fresh_name((), "n")
    m1 = Name(MINT_BASE + 1)
    p = Res(n, Input(a, (x,), x, Res(m1, Output(n, m1, NIL))))
    want = Res(n, Res(y, Output(n, y, NIL)))
    for engine in (transitions, legacy_transitions):
        ts = engine(pi, pi.unit, p, 0)
        assert ts and all(alpha_eq(t.target, want) for t in ts)


def test_step_runs_once_per_node(monkeypatch):
    # Com joins the premises Par already derived: a 50-wide Par of outputs
    # has 50 leaves and 49 Par nodes, and no receiver is derived again
    from psiwb import semantics
    calls = []
    original = semantics._step

    def counting_step(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(semantics, "_step", counting_step)
    names = [fresh_name((), "k") for _ in range(50)]
    ts = transitions(pi, pi.unit, par(*(Output(n, n, NIL) for n in names)))
    assert len(ts) == 50
    assert len(calls) == 99


def _ether_copies(n):
    """n copies of (nu x)(x<x>.0 | (|{x}|)) | (nu y)(y(y).0 | (|{y}|)), each
    with its own names."""
    copies = []
    for _ in range(n):
        u, v = fresh_name((), "x"), fresh_name((), "y")
        copies.append(Par(Res(u, Par(Output(u, u, NIL), Assert(frozenset({u})))),
                          Res(v, Par(Input(v, (v,), v, NIL), Assert(frozenset({v}))))))
    return par(*copies)


@pytest.mark.parametrize("n, premises", [(2, 22), (3, 44), (4, 75), (5, 117), (6, 172)])
def test_step_keeps_one_premise_per_prefix(monkeypatch, n, premises):
    # through the shared medium each prefix of n ether copies has 2n label
    # subjects; it is one premise all the same, up every Par and Res, and
    # Com and the root pick its subjects.  One premise per subject made
    # 58 / 150 / 293 / 493 / 756 premises at n = 2..6
    from psiwb import semantics
    made = []
    original = semantics._step

    def counting_step(*args):
        got = original(*args)
        made.append(len(got))
        return got

    monkeypatch.setattr(semantics, "_step", counting_step)
    semantics._derive(ether, semantics._PROVENANCE, ether.unit, _ether_copies(n), 2)
    assert sum(made) == premises


def test_narrowing_drops_the_subjects_that_mention_a_narrowed_name():
    # Name subjects go by set difference; a compound subject, here a tuple,
    # goes where its support meets the narrowed names, and stays otherwise
    from psiwb import semantics
    subjects = frozenset({a, b, (a, c), (b, c)})
    for lab in (semantics._Out(subjects, (), z), semantics._LateIn(subjects, (x,), x)):
        got = semantics._narrow(lab, frozenset({a}))
        assert got.subjects == {b, (b, c)}
        assert type(got) is type(lab) and got.mentions() == lab.mentions()
        assert semantics._narrow(lab, frozenset({c})).subjects == {a, b}
        assert semantics._narrow(lab, frozenset({y})) is lab
        assert semantics._narrow(lab, frozenset({a, b})) is None
    assert semantics._narrow(TAU, frozenset({a})) is TAU


def test_stuck_process_is_not_canonicalised(monkeypatch):
    # with nothing derived there is no result to canonicalise the
    # environment and the source for
    from psiwb import semantics

    def refused(*args, **kwargs):
        raise AssertionError("canonicalised the head of a query with no result")

    monkeypatch.setattr(semantics, "_canon_results", refused)
    p = Res(a, Par(Output(a, b, NIL), Input(b, (x,), x, NIL)))
    assert transitions(ether, ether.unit, p) == frozenset()
    for reorient in (False, True):
        assert legacy_transitions(ether, ether.unit, p, reorient_in=reorient) == frozenset()


def test_com_between_case_branches_that_open_the_same_atom():
    # each side opens its case branch's restriction against the same avoid
    # set, so s and z become one scratch atom; receiving s must not capture z
    from psiwb.reduction import harmony_check
    s, w = fresh_name((), "s"), fresh_name((), "w")
    send = Case(((PiEq(a, a), Res(s, Output(a, s, NIL))),))
    recv = Case(((PiEq(a, a), Res(z, Input(a, (x,), x, Output(x, z, NIL)))),))
    p = Par(send, recv)
    (t,) = taus(transitions(pi, pi.unit, p))
    assert alpha_eq(t.target, Res(w, Par(NIL, Res(z, Output(w, z, NIL)))))
    assert harmony_check(pi, p).ok


HUB = fresh_name((), "hub")


class _HubPi(PiInstance):
    """pi plus one hub name that every name may send to and receive from.
    ``out_channels`` is complete, but ``in_channels`` cannot list every name
    and offers the hub only the hub.  That lets an output on a restricted
    channel keep a subject, the hub, while its provenance term is the bound
    channel; under enumerators that are complete no premise has such a
    term."""

    name = "hub"

    def entails(self, psi, phi):
        return super().entails(psi, phi) or (
            isinstance(phi, PiEq) and HUB in (phi.left, phi.right))

    def out_channels(self, psi, term):
        return frozenset((term, HUB))

    in_channels = out_channels


def test_provenance_term_naming_an_inner_binder_meets_no_subject():
    # the sender's provenance term is the bound s, demoted to an inner binder
    # by case or replication: no receiving subject the enumerators give can
    # be s, so the provenance rules make no Com, as in the naive oracle;
    # Com-Old sees hub -> hub
    hub = _HubPi()
    s = fresh_name((), "s")
    recv = Input(HUB, (x,), x, NIL)
    for send in (Case(((PiEq(a, a), Res(s, Output(s, a, NIL))),)),
                 Bang(Res(s, Output(s, a, NIL)))):
        p = Par(send, recv)
        ts = transitions(hub, hub.unit, p, fuel=1)
        assert not taus(ts)
        assert any(isinstance(t.label, OutLabel) and t.prov.inner for t in ts)
        assert erase_provenance(ts) == naive_transitions(hub, hub.unit, p, fuel=1)
        assert taus(legacy_transitions(hub, hub.unit, p, fuel=1))


def test_com_needs_the_receivers_provenance_among_the_senders_subjects():
    # hub<a>.0 | a(x).0: the receiver offers hub, the sender's provenance,
    # among its subjects, but the sender's one subject is hub, not a, the
    # receiver's provenance, so the provenance rules make no Com; Com-Old
    # sees hub -> hub
    hub = _HubPi()
    p = Par(Output(HUB, a, NIL), Input(a, (x,), x, NIL))
    ts = transitions(hub, hub.unit, p, fuel=1)
    assert not taus(ts)
    assert erase_provenance(ts) == naive_transitions(hub, hub.unit, p, fuel=1)
    assert taus(legacy_transitions(hub, hub.unit, p, fuel=1))


@dataclass(frozen=True)
class _Link:
    left: Name
    right: Name


class _ReflexiveEther(_NameTermMixin, CalculusInstance):
    """A minimal name-term instance: it gives its judgements and assertion
    bases only, and takes the channel enumerators, the condition basis and
    random conditions from ``CalculusInstance``.  Assertions are name sets;
    a name is connected to itself and to every other member of the set."""

    name = "reflexive-ether"

    @property
    def unit(self):
        return frozenset()

    def entails(self, psi, phi):
        return isinstance(phi, _Link) and (
            phi.left == phi.right or {phi.left, phi.right} <= psi)

    def compose(self, p1, p2):
        return p1 | p2

    def conn(self, sender, receiver):
        return _Link(sender, receiver)

    def assertion_basis(self, names):
        return (frozenset(), frozenset(names))

    def random_assertion(self, rng, names):
        return frozenset(n for n in names if rng.random() < 0.5)


def test_instance_of_judgements_alone():
    inst = _ReflexiveEther()
    # a sends to b only under an assertion naming both
    p = Par(Output(a, a, NIL), Input(b, (x,), x, NIL))
    linked = Par(p, Assert(frozenset({a, b})))
    assert not taus(transitions(inst, inst.unit, p))
    assert len(taus(transitions(inst, inst.unit, linked))) == 1
    rng = random.Random(12)
    for q in [p, linked] + corpus(inst, rng, 20, size=6, names=(a, b)):
        for env in (inst.unit, inst.random_assertion(rng, (a, b))):
            assert (erase_provenance(transitions(inst, env, q, fuel=1))
                    == naive_transitions(inst, env, q, fuel=1))
        assert harmony_check(inst, q, fuel=1).ok


def test_frames_opened_once_per_query(monkeypatch):
    # one opening at the root covers every restriction on the Par spine, and
    # Com reuses it: the 8 restrictions of 4 ether-example copies need 8
    # atoms, plus the message basis's one and one per input variable
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
        ts = transitions(inst, env, p)
        for t in ts | legacy_transitions(inst, env, p) | erase_provenance(ts):
            assert canonical(t) == t


def test_erase_provenance_matches_whole_transition_canonical():
    # hand-built, non-canonical transitions from two sources, interleaved:
    # u and v are alpha-variant extruded binders, the free scratch atom s
    # occurs in the source and in some targets, and q2 is an alpha-variant
    # of the source q1; erase_provenance takes canonical transitions, as
    # transitions returns them
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
    assert erase_provenance(map(canonical, ts)) == want


def test_extruded_binders_scope_over_target_not_provenance():
    u = Name(MINT_BASE + 3, "u")
    t = canonical(Transition(pi.unit, NIL, OutLabel(a, (u,), u), Prov((), (), u),
                             Output(a, u, NIL)))
    (bound,) = t.label.extruded
    assert t.label.obj == t.target.message == bound
    assert t.prov.term != bound
