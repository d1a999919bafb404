"""Order-independent digests of the engine's results, to check that a
change to the engine keeps every result.

    python tests/digests.py 43 977

For each seed it builds seeded corpora of pi, ether, triangle and preorder
(sizes 3-10, 30 per size), the composites family (n parallel copies of the
ether example, n = 1..5) and the two triangle counterexample shapes, and
prints one SHA-256 per kind of result:

* ``transitions``: at fuel 1 and 2, under the unit and under one seeded
  assertion;
* ``legacy_transitions``: the same queries, in both orientations;
* ``reductions``: the targets, canonical, at fuel 1 and 2;
* ``harmony``: the ``HarmonyReport`` of every member at fuel 1 and 2;
* ``keys``: the congruence keys harmony computes, of every reduction
  target and of every raw tau target of the engine, as multisets, through
  one ``reduction._Keys`` per member and fuel in which the member's closed
  nodes are recorded first, so that the keys take them whole as harmony's
  do;
* ``tau_order``: the keys of the raw tau targets in the engine's order.
  This one is not a result: it changes when the engine derives its taus in
  another order.

Every value is printed through ``_stable``, which sorts the elements of
sets and leaves out name hints, so a digest depends neither on hash order
nor on display names.  pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from psiwb import corpus, nominal, params, process, reduction, semantics  # noqa: E402

KINDS = ("transitions", "legacy_transitions", "reductions", "harmony", "keys",
         "tau_order")
SIZES = range(3, 11)
PER_SIZE = 30
COMPOSITE_COPIES = range(1, 6)
_HINT = re.compile(r"Name\((-?\d+),[^)]*\)")


def _stable(x) -> str:
    """A repr of a nominal value with set elements sorted and without name
    hints."""
    if isinstance(x, nominal.Name):
        return f"N{x.id}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(_stable, x)) + ")"
    if isinstance(x, (frozenset, set)):
        return "{" + ",".join(sorted(map(_stable, x))) + "}"
    if isinstance(x, str):
        return repr(_HINT.sub(r"Name(\1)", x))
    if dataclasses.is_dataclass(x):
        fields = ",".join(_stable(getattr(x, f.name)) for f in dataclasses.fields(x))
        return f"{type(x).__name__}({fields})"
    return repr(x)


def members(seed):
    """(instance, environment, process) for every member of the corpora."""
    a, b, c = (nominal.fresh_name((), h) for h in "abc")
    rng = random.Random(seed)
    insts = (params.PiInstance(), params.EtherInstance(),
             params.TriangleInstance(), params.PreorderInstance())
    out = []
    for inst in insts:
        for size in SIZES:
            for _ in range(PER_SIZE):
                p = corpus.random_process(inst, rng, size, (a, b, c))
                out.append((inst, inst.random_assertion(rng, (a, b, c)), p))
    ether = insts[1]
    for n in COMPOSITE_COPIES:
        out.append((ether, ether.unit, process.par(*(_ether_example() for _ in range(n)))))
    tri = insts[2]
    out.extend((tri, tri.unit, shape)
               for shape in corpus.triangle_counterexample_shapes(a, b, c))
    return out


def _ether_example():
    """P | Q with P = (nu x)(x<x>.0 | (|{x}|)), Q = (nu y)(y(y).0 | (|{y}|))."""
    x, y = nominal.fresh_name((), "x"), nominal.fresh_name((), "y")
    P = process.Res(x, process.Par(process.Output(x, x, process.NIL),
                                   process.Assert(frozenset({x}))))
    Q = process.Res(y, process.Par(process.Input(y, (y,), y, process.NIL),
                                   process.Assert(frozenset({y}))))
    return process.Par(P, Q)


def digests(seed):
    lines = {kind: [] for kind in KINDS}
    for i, (inst, psi, p) in enumerate(members(seed)):
        for fuel in (1, 2):
            tag = f"{i}/{fuel}"
            for env in (inst.unit, psi):
                lines["transitions"].append(
                    tag + _stable(semantics.transitions(inst, env, p, fuel)))
                for reorient in (False, True):
                    lines["legacy_transitions"].append(tag + _stable(
                        semantics.legacy_transitions(inst, env, p, fuel, reorient)))
            steps = reduction.reductions(inst, p, fuel)
            lines["reductions"].append(
                tag + _stable({nominal.canonical(s.target) for s in steps}))
            lines["harmony"].append(tag + _stable(reduction.harmony_check(inst, p, fuel)))
            keys = reduction._Keys()
            reduction._record_closed(p, keys)
            red_keys = [_key(s.target, keys) for s in steps]
            tau_keys = [_key(tgt, keys) for lab, _, tgt in
                        semantics._derive(inst, semantics._PROVENANCE, inst.unit, p, fuel)
                        if isinstance(lab, semantics.TauLabel)]
            lines["keys"].append(tag + _stable((sorted(red_keys), sorted(tau_keys))))
            lines["tau_order"].append(tag + _stable(tuple(tau_keys)))
    return {kind: hashlib.sha256("\n".join(ls).encode()).hexdigest()
            for kind, ls in lines.items()}


def _key(p, keys):
    return _stable(reduction.congruence_key(p, keys))


def main(argv):
    for seed in map(int, argv or ["43"]):
        for kind, digest in digests(seed).items():
            print(f"seed {seed} {kind:<18} {digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
