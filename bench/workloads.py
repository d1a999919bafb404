"""The benchmark's four workloads: inputs built from a seed, the query each
input runs, and the checks on every result.

Every engine function is reached through its module attribute
(``semantics.transitions``, not a name bound at import), so that the wrappers
of a traced run, which replace those attributes, see every call.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "psiwb").is_dir():
    raise SystemExit(f"bench: no psiwb sources at {SRC}")
sys.path.insert(0, str(SRC))

from psiwb import corpus, nominal, params, process, reduction, semantics  # noqa: E402
from psiwb.process import NIL, Assert, Input, Output, Par, Res  # noqa: E402

MODULES = {"nominal": nominal, "params": params, "process": process,
           "semantics": semantics, "reduction": reduction, "corpus": corpus}


class Incorrect(Exception):
    """A result differs from the value worked out apart from the engine."""


@dataclass(eq=False)
class Query:
    """One operation of a round.

    ``check`` runs on every result, outside the timed region: it returns
    False when the operation failed (a wrong harmony verdict) and raises
    Incorrect when an output is wrong.  ``verify`` holds the costlier
    independent checks; it runs once per run, on the first round's result.
    ``seeded`` marks an input drawn from the seed: such an operation that
    fails in the first round is left out of the counted rounds, so that the
    share of failed operations does not depend on the seed.
    """

    size: int
    run: Callable[[], object]
    check: Callable[[object], bool]
    verify: Optional[Callable[[object], None]] = None
    seeded: bool = False


def _check_naive(inst, p, fuel, erased):
    """Compare erased transitions with those of the test suite's naive
    derivation oracle, imported read-only.

    Only pi is cross-checked: on instances whose channel enumerators can
    return a sibling's opened binder, the oracle keeps labels that mention
    it, which the engine rightly drops.
    """
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    import naive_engine
    if erased != naive_engine.naive_transitions(inst, inst.unit, p, fuel):
        raise Incorrect(f"engine and naive oracle disagree at fuel {fuel}: {p!r}")


def _left_par(parts):
    """Left-associated Par that keeps Nil leaves, as the engine's targets do."""
    out = parts[0]
    for q in parts[1:]:
        out = Par(out, q)
    return out


# ---------------------------------------------------------------------------
# wide-par: transitions of one wide Par of pi outputs on distinct channels

WIDE_PAR_LADDER = (12, 25, 50, 100, 200)


def wide_par(seed: int, quick: bool):
    rng = random.Random(seed)
    pi = params.PiInstance()
    queries = []
    for k in WIDE_PAR_LADDER[:1] if quick else WIDE_PAR_LADDER:
        chans = [nominal.fresh_name((), "c") for _ in range(k)]
        prefixes = [Output(ch, rng.choice(chans), NIL) for ch in chans]
        p = process.par(*prefixes)
        process.check_well_formed(p)
        queries.append(Query(k, _wide_par_run(pi, p), _wide_par_check(pi, p, prefixes)))
    if quick:
        return queries
    # The three small sizes run after each of the two large ones, so that
    # their least times sample the machine twice per round.
    small, (k100, k200) = queries[:3], queries[3:]
    return small + [k200] + small + [k100]


def _wide_par_run(pi, p):
    return lambda: semantics.transitions(pi, pi.unit, p)


def _wide_par_check(pi, p, prefixes):
    expected = None

    def check(result):
        # one output per prefix: subject its channel, provenance its own
        # prefix, target the input with that prefix replaced by 0
        nonlocal expected
        if expected is None:
            expected = set()
            for i, pre in enumerate(prefixes):
                parts = list(prefixes)
                parts[i] = NIL
                expected.add(semantics.Transition(
                    pi.unit, p, semantics.OutLabel(pre.channel, (), pre.message),
                    semantics.Prov((), (), pre.channel), _left_par(parts)))
            expected = frozenset(expected)
        if result != expected:
            raise Incorrect(f"wide-par k={len(prefixes)}: {len(result)} transitions, "
                            f"{len(result - expected)} unexpected, "
                            f"{len(expected - result)} missing")
        return True
    return check


# ---------------------------------------------------------------------------
# composites: harmony on n parallel copies of the ether example

COMPOSITE_COPIES = (1, 2, 3, 4, 5)


def ether_example():
    """P | Q with P = (nu x)(x<x>.0 | (|{x}|)), Q = (nu y)(y(y).0 | (|{y}|))."""
    x, y = nominal.fresh_name((), "x"), nominal.fresh_name((), "y")
    P = Res(x, Par(Output(x, x, NIL), Assert(frozenset({x}))))
    Q = Res(y, Par(Input(y, (y,), y, NIL), Assert(frozenset({y}))))
    return Par(P, Q)


def composites(seed: int, quick: bool):
    # The inputs do not depend on the seed: the harmony verdicts on n >= 2
    # fail every time, and a failure must not come and go with the seed.
    ether = params.EtherInstance()
    queries = []
    for n in COMPOSITE_COPIES[:1] if quick else COMPOSITE_COPIES:
        p = process.par(*(ether_example() for _ in range(n)))
        process.check_well_formed(p)
        queries.append(Query(n, _harmony_run(ether, p, 2), _harmony_ok,
                             _composite_verify(ether, p, n)))
    return queries


def _harmony_run(inst, p, fuel):
    return lambda: reduction.harmony_check(inst, p, fuel)


def _harmony_ok(rep):
    # reductions and taus must match both ways: a wrong verdict is a failed
    # operation, not an incorrect run
    return rep.ok


def _composite_verify(ether, p, n):
    def verify(_rep):
        # every output can reach every input through the shared ether:
        # n * n Coms, each a tau, and nothing visible since all names are bound
        ts = semantics.transitions(ether, ether.unit, p)
        visible = [t for t in ts if not isinstance(t.label, semantics.TauLabel)]
        if visible or len(ts) != n * n:
            raise Incorrect(f"composites n={n}: {len(ts)} transitions, "
                            f"{len(visible)} visible; want {n * n} taus")
        red = reduction.reductions(ether, p)
        if len(red) != n * n:
            raise Incorrect(f"composites n={n}: {len(red)} reductions, want {n * n}")
    return verify


# ---------------------------------------------------------------------------
# corpus-harmony: harmony on a seeded corpus over four instances

CORPUS_SIZES = range(6, 13)
CORPUS_PER_SIZE = 160
# Per-query costs spread over three orders of magnitude, so the median at
# the largest size needs this many more members to hold still across seeds.
LARGEST_SIZE_FACTOR = 8
CORPUS_NAIVE_MAX_SIZE = 8


def corpus_harmony(seed: int, quick: bool):
    a, b, c = (nominal.fresh_name((), h) for h in "abc")
    insts = (params.PiInstance(), params.EtherInstance(),
             params.TriangleInstance(), params.PreorderInstance())
    rng = random.Random(seed)
    sizes = CORPUS_SIZES[:1] if quick else CORPUS_SIZES
    queries = []
    for inst in insts:
        for size in sizes:
            for _ in range(_members(size, CORPUS_SIZES, CORPUS_PER_SIZE)):
                p = corpus.random_process(inst, rng, size, (a, b, c))
                verify = (_corpus_verify(inst, p)
                          if inst.name == "pi" and size <= CORPUS_NAIVE_MAX_SIZE else None)
                queries.append(Query(size, _harmony_run(inst, p, 2), _harmony_ok,
                                     verify, seeded=True))
    tri = insts[2]
    for shape in corpus.triangle_counterexample_shapes(a, b, c):
        process.check_well_formed(shape)
        queries.append(Query(0, _harmony_run(tri, shape, 2), _harmony_ok,
                             _triangle_verify(tri, shape)))
    return queries


def _members(size, sizes, per_size):
    return per_size * (LARGEST_SIZE_FACTOR if size == sizes[-1] else 1)


def _corpus_verify(inst, p):
    def verify(_rep):
        _check_naive(inst, p, 2, semantics.erase_provenance(
            semantics.transitions(inst, inst.unit, p, 2)))
    return verify


def _triangle_verify(tri, shape):
    def verify(rep):
        # a -> b and b -> c hold but a -> c does not: no communication at all
        taus = [t for t in semantics.transitions(tri, tri.unit, shape, 2)
                if isinstance(t.label, semantics.TauLabel)]
        if taus or reduction.reductions(tri, shape, 2) or rep.matched:
            raise Incorrect("a triangle counterexample shape communicates")
    return verify


# ---------------------------------------------------------------------------
# conservativity: provenance engine, erased, against the legacy engine

CONSERVATIVITY_SIZES = range(4, 11)
CONSERVATIVITY_PER_SIZE = 100
CONSERVATIVITY_FUELS = (0, 1, 2, 3)
CONSERVATIVITY_NAIVE_MAX_SIZE = 6
CONSERVATIVITY_NAIVE_MAX_FUEL = 2


def conservativity(seed: int, quick: bool):
    a, b, c = (nominal.fresh_name((), h) for h in "abc")
    pi = params.PiInstance()
    rng = random.Random(seed)
    sizes = CONSERVATIVITY_SIZES[:1] if quick else CONSERVATIVITY_SIZES
    queries = []
    for size in sizes:
        for _ in range(_members(size, CONSERVATIVITY_SIZES, CONSERVATIVITY_PER_SIZE)):
            p = corpus.random_process(pi, rng, size, (a, b, c), allow_bang=True)
            by_fuel = {}
            for f in CONSERVATIVITY_FUELS:
                queries.append(Query(size, _conservativity_run(pi, p, f),
                                     _conservativity_check(p, f),
                                     _conservativity_verify(pi, p, f, size, by_fuel)))
    return queries


def _conservativity_run(pi, p, f):
    def run():
        new = semantics.erase_provenance(semantics.transitions(pi, pi.unit, p, f))
        return new, semantics.legacy_transitions(pi, pi.unit, p, f)
    return run


def _conservativity_check(p, f):
    def check(result):
        new, old = result
        if new != old:
            raise Incorrect(f"engines disagree at fuel {f}: {p!r}")
        return True
    return check


def _conservativity_verify(pi, p, f, size, by_fuel):
    # by_fuel passes this member's warm-up result on to the next fuel's check
    def verify(result):
        new, _ = result
        less = by_fuel.pop(f - 1, None)
        if less is not None and not less <= new:
            raise Incorrect(f"transitions at fuel {f - 1} are not kept at fuel {f}: {p!r}")
        if f < CONSERVATIVITY_FUELS[-1]:
            by_fuel[f] = new
        if f <= CONSERVATIVITY_NAIVE_MAX_FUEL and size <= CONSERVATIVITY_NAIVE_MAX_SIZE:
            _check_naive(pi, p, f, new)
    return verify


WORKLOADS = {
    "wide-par": wide_par,
    "composites": composites,
    "corpus-harmony": corpus_harmony,
    "conservativity": conservativity,
}


def build(name: str, seed: int, quick: bool = False):
    """The queries of one round, in order; a query may run more than once in
    a round.  Inputs are built in the same order on every run: names come
    from a global counter, and results depend on the order of their ids."""
    return WORKLOADS[name](seed, quick)
