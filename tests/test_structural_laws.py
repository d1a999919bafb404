"""Structural congruence is a bisimulation, checked one step deep over every
small term (the first rung of the paper's bisimulation laws).

``congruence_key`` decides a structural congruence: commutativity,
associativity and the unit of ``|``, scope extension and the restriction
of an unused name.  Two processes with one key must then have the same
moves.  ``one_step_mismatches`` groups terms by their keys, and compares
the moves of the members of each class under each environment given.  A
move is a label and its target up to the key, from ``transitions`` at
fuel 2:

* an output: ``("out", subject, key of (ν extruded)(subject⟨obj⟩.0 |
  target))``, for the extruded names bind in the object and the target, so
  they are compared as binders, through the key;
* an input: ``("in", subject, object, key of target)``;
* a tau: ``("tau", key of target)``.

Bisimulation compares labels and targets, not provenances: a provenance
names the frame binders of its source, which congruent sources order and
name apart.  The static clause, that related processes have equivalent
frames, waits for a bisimulation proper: ``static_equiv`` on the opened
frames would compare their private binders, which must be related by the
same bijection as the targets.
"""

import pytest

from psiwb.corpus import all_processes
from psiwb.nominal import fresh_name
from psiwb.params import EtherInstance, PiInstance, PreorderInstance, TriangleInstance
from psiwb.process import NIL, Output, Par, res
from psiwb.reduction import congruence_key
from psiwb.semantics import InLabel, OutLabel, transitions

a, b = fresh_name((), "a"), fresh_name((), "b")
pi, ether, tri, pre = PiInstance(), EtherInstance(), TriangleInstance(), PreorderInstance()


def moves(inst, env, p):
    """The moves of ``p`` under ``env``, each a label with its target up to
    the congruence key."""
    out = set()
    for t in transitions(inst, env, p, 2):
        lab = t.label
        if isinstance(lab, OutLabel):
            sent = Par(Output(lab.subject, lab.obj, NIL), t.target)
            out.add(("out", lab.subject, congruence_key(res(lab.extruded, sent))))
        elif isinstance(lab, InLabel):
            out.add(("in", lab.subject, lab.obj, congruence_key(t.target)))
        else:
            out.add(("tau", congruence_key(t.target)))
    return frozenset(out)


def one_step_mismatches(inst, terms, envs):
    """The classes of ``terms`` by congruence key, and the (term, term,
    environment) triples whose members of one class move differently under
    an environment of ``envs``: the first member of the class against each
    other one."""
    classes = {}
    for p in terms:
        classes.setdefault(congruence_key(p), []).append(p)
    mismatches = []
    for first, *rest in classes.values():
        for env in envs if rest else ():
            want = moves(inst, env, first)
            mismatches += [(first, q, env) for q in rest if moves(inst, env, q) != want]
    return classes, mismatches


@pytest.mark.parametrize("inst, largest, basis, terms, classes", [
    (pi, 3, True, 2975, 236),
    (pre, 3, False, 6149, 449),
    (pre, 2, True, 315, 19),
    (ether, 2, True, 199, 15),
    (tri, 2, True, 215, 17),
], ids=["pi", "preorder-unit", "preorder", "ether", "triangle"])
def test_congruent_small_terms_move_alike(inst, largest, basis, terms, classes):
    # every term up to the size, under each assertion of the basis or under
    # the unit alone; the counts pin how many classes hold two or more
    # terms, so that a key which told every term apart would fail too
    ps = [p for size in range(largest + 1) for p in all_processes(inst, size, (a, b))]
    envs = inst.assertion_basis((a, b)) if basis else (inst.unit,)
    by_key, mismatches = one_step_mismatches(inst, ps, envs)
    assert not mismatches, mismatches[:3]
    assert (len(ps), sum(len(c) > 1 for c in by_key.values())) == (terms, classes)
