"""The exhaustive small-term enumerator, and a sweep of every small term:
harmony on every instance, and the naive derivation oracle too."""

import functools

import pytest

from naive_engine import naive_transitions
from psiwb.corpus import all_processes
from psiwb.nominal import canonical, fresh_name
from psiwb.params import EtherInstance, PiInstance, PreorderInstance, TriangleInstance
from psiwb.process import (NIL, Assert, Bang, Case, Input, Output, Par, Res,
                           check_well_formed)
from psiwb.reduction import harmony_check
from psiwb.semantics import erase_provenance, legacy_transitions, transitions

a, b = fresh_name((), "a"), fresh_name((), "b")
pi, ether, tri, pre = PiInstance(), EtherInstance(), TriangleInstance(), PreorderInstance()
INSTANCES = [pi, ether, tri, pre]


def test_all_processes_of_size_one():
    # four outputs, an input per channel, a restriction, a bang and a case
    # per condition around Nil, and pi's one assertion
    got = all_processes(pi, 1, (a, b))
    x = got[6].variables[0]
    conds = pi.condition_basis((a, b), ())
    want = ([Output(ch, msg, NIL) for ch in (a, b) for msg in (a, b)]
            + [Assert(pi.unit)] + [Input(ch, (x,), x, NIL) for ch in (a, b)]
            + [Res(x, NIL), Bang(NIL)] + [Case(((phi, NIL),)) for phi in conds])
    assert sorted(map(repr, got)) == sorted(map(repr, want))


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: i.name)
def test_all_processes_are_well_formed_and_apart(inst):
    for size in (0, 1, 2):
        ps = all_processes(inst, size, (a, b))
        for p in ps:
            check_well_formed(p)
        assert len({canonical(p) for p in ps}) == len(ps) > 0


@pytest.mark.parametrize("inst, largest", [(pi, 3), (pre, 3), (ether, 2), (tri, 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_harmony_on_every_small_term(inst, largest):
    # a<a>.0 | a(x).0 has size 3, and it reduces under the unit in pi and
    # preorder (a joins a); in ether and triangle a channel connects only
    # under an assertion beside both prefixes, so nothing below size 5
    # reduces there, and harmony checks that neither side makes a step up
    matched = 0
    for size in range(1, largest + 1):
        for p in all_processes(inst, size, (a, b)):
            for fuel in (1, 2):
                rep = harmony_check(inst, p, fuel)
                assert rep.ok, (p, fuel, rep)
                matched += rep.matched
    assert (matched > 0) == (largest == 3)


def test_naive_oracle_on_every_small_pi_term():
    # pi's connectivity is symmetric and transitive, so both orientations of
    # In-Old agree with the provenance rules too (conservativity)
    for size in (1, 2, 3):
        for p in all_processes(pi, size, (a, b)):
            got = erase_provenance(transitions(pi, pi.unit, p, 2))
            assert got == naive_transitions(pi, pi.unit, p, 2), p
            for r in (False, True):
                assert got == legacy_transitions(pi, pi.unit, p, 2, reorient_in=r), (p, r)


@pytest.mark.parametrize("inst", [ether, tri, pre], ids=lambda i: i.name)
def test_naive_oracle_on_every_small_term_under_every_basis_assertion(inst):
    # under the unit nothing connects below size 5 in ether and triangle;
    # under each assertion of the basis, and under their composition, a
    # prefix has label subjects, several of them under the composition.
    # Com needs a Par of two prefixes, size 3; the Pars of size 3 run under
    # the composition alone, which keeps the sweep near a second.  On
    # ether, Com-Old fires once per pair of premises, and the legacy rules
    # give the same transitions as the provenance rules
    basis = inst.assertion_basis((a, b))
    every = functools.reduce(inst.compose, basis)
    sweep = [(p, basis + (every,)) for size in (1, 2) for p in all_processes(inst, size, (a, b))]
    sweep += [(p, (every,)) for p in all_processes(inst, 3, (a, b)) if isinstance(p, Par)]
    for p, envs in sweep:
        for env in envs:
            got = erase_provenance(transitions(inst, env, p, 2))
            assert got == naive_transitions(inst, env, p, 2), (p, env)
            if inst is ether:
                assert got == legacy_transitions(inst, env, p, 2), (p, env)
