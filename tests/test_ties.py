"""Canonical forms and congruence keys where set elements tie: every
renaming of the scratch atoms of a set-valued assertion gives one
``canonical`` and one ``congruence_key``, so that ``alpha_eq`` and the
results of ``transitions`` do not depend on atom ids."""

import itertools
import random

from psiwb.nominal import MINT_BASE, Name, alpha_eq, canonical, fresh_name, rename
from psiwb.params import PreorderInstance, TriangleInstance
from psiwb.process import NIL, Assert, Output, Par
from psiwb.reduction import congruence_key
from psiwb.semantics import (ErasedTransition, erase_provenance, legacy_transitions,
                             transitions)

S = tuple(Name(MINT_BASE + i, f"s{i}") for i in range(5))


def _renamings(x, atoms):
    for perm in itertools.permutations(atoms):
        yield rename(dict(zip(atoms, perm)), x)


def _path(atoms):
    """A path of arcs through ``atoms`` beside an output on the first."""
    return Par(Assert(frozenset(zip(atoms, atoms[1:]))), Output(atoms[0], atoms[0], NIL))


def test_every_renaming_of_pair_facts_gives_one_form_and_one_key():
    # sets of directed facts, as triangle and preorder assert them, over
    # 2-5 scratch atoms: their elements tie whenever facts look alike up to
    # the atoms not yet numbered
    rng = random.Random(7)
    for _ in range(60):
        atoms = S[:rng.randint(2, 5)]
        fact = Assert(frozenset((rng.choice(atoms), rng.choice(atoms))
                                for _ in range(rng.randint(1, 5))))
        variants = list(_renamings(fact, atoms))
        assert len({canonical(v) for v in variants}) == 1, fact
        assert len({congruence_key(v) for v in variants}) == 1, fact


def test_a_path_of_three_arcs_has_one_canonical_form():
    # a choice by atom ids gave 3 forms over the 24 renamings
    p = _path(S[:4])
    assert len({canonical(v) for v in _renamings(p, S[:4])}) == 1


def _ring(atoms):
    """A directed ring through ``atoms``, whose rotations no swap of two
    atoms gives, beside an output on a user atom that the ring leaves alone."""
    a = fresh_name((), "a")
    return Par(Assert(frozenset(zip(atoms, atoms[1:] + atoms[:1])) | {(a, a)}),
               Output(a, a, NIL))


def test_a_reversed_path_is_an_alpha_variant_with_the_same_transitions():
    ring = _ring(S[:3])
    for p, q in ((_path(S[:4]), _path(S[3::-1])),
                 (ring, rename({S[0]: S[1], S[1]: S[0]}, ring))):
        assert alpha_eq(p, q)
        for inst in (TriangleInstance(), PreorderInstance()):
            ts = transitions(inst, inst.unit, p)
            assert ts and ts == transitions(inst, inst.unit, q)
            # the head ties, so each result is searched whole: still a fixed
            # point whose first four fields are the canonical erased transition
            assert all(canonical(t) == t for t in ts)
            assert erase_provenance(ts) == {
                canonical(ErasedTransition(t.env, t.source, t.label, t.target)) for t in ts}
            legacy = legacy_transitions(inst, inst.unit, p)
            assert legacy and legacy == legacy_transitions(inst, inst.unit, q)
