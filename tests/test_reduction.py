import itertools
import random
from collections import Counter

import pytest

from psiwb import nominal, process, reduction, semantics
from psiwb.nominal import (MINT_BASE, Fresh, Name, canonical, fresh_name, mint_many,
                           rename, support)
from psiwb.corpus import random_process, triangle_counterexample_shapes
from psiwb.params import (EtherInstance, PiEq, PiInstance, PreorderInstance,
                          TriangleInstance)
from psiwb.process import (NIL, Assert, Bang, Case, Input, Output, Par, Res,
                           hoist, par, res)
from psiwb.reduction import (congruence_key, derived_par, harmony_check,
                             reductions)
from psiwb.semantics import (_derive, _PROVENANCE, TauLabel, legacy_transitions,
                             transitions)

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
    assert congruence_key(s.target) == congruence_key(NIL)
    assert s.sender == out(a, x)


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


@pytest.mark.parametrize("fuel, expanded, steps", [(1, 2, 0), (2, 4, 2), (3, 7, 7)])
def test_bang_expansion_stops_at_the_fuel(monkeypatch, fuel, expanded, steps):
    # !(!a<a>.0 | a(x).0): copy i of a bang costs i + 1 unfoldings, so it is
    # expanded with the fuel left after them, and a nested bang in it gets
    # fewer copies.  Each copy expanded with the whole fuel would make
    # 3 / 7 / 13 expansions, and positions beyond the fuel that no step uses
    p = Bang(Par(Bang(out(a)), inp(a)))
    calls = _counting(monkeypatch, reduction._expand, (reduction,))
    assert len(reductions(pi, p, fuel)) == steps
    assert len(calls) == expanded


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


# (nu x)x<a>.0 | (nu x)x(y).y, and its shared-scope variant
SIBLING_BINDERS = (Par(Res(x, Output(x, a, NIL)), Res(x, Input(x, (y,), y, NIL))),
                   Res(x, Par(Output(x, a, NIL), Input(x, (y,), y, NIL))))


def test_hoisting_keeps_same_named_sibling_binders_apart():
    # the second x is renamed when hoisted, so the two private channels stay
    # distinct and nothing communicates
    p, shared = SIBLING_BINDERS
    binders, _, _ = hoist(p, Fresh(p), set(support(p)))
    assert len(set(binders)) == 2
    assert reductions(pi, p) == frozenset()
    assert harmony_check(pi, p).ok
    assert congruence_key(p) != congruence_key(shared)


def test_harmony_when_a_hoisted_binder_is_bound_again_below_an_input():
    # n<n>.0 | (nu n)(c<m>.0 | c(x).(nu n)d(x).n<x>.0): hoisting renames both
    # n binders, and the received continuation renames x; neither renaming
    # may capture, so the target keeps d(v).n<v> under its own n
    n, m, d = (fresh_name((), h) for h in "nmd")
    inner = Res(n, Input(d, (x,), x, Output(n, x, NIL)))
    p = Par(Output(n, n, NIL), Res(n, Par(Output(c, m, NIL), Input(c, (x,), x, inner))))
    (step,) = reductions(pi, p)
    want = Par(Output(n, n, NIL), Res(y, Res(z, Input(d, (x,), x, Output(z, x, NIL)))))
    assert congruence_key(step.target) == congruence_key(want)
    rep = harmony_check(pi, p)
    assert rep.ok and rep.matched == 1


def test_congruence_key_of_binder_bound_again_by_a_mint_atom():
    # (|{a}|) | (nu a)(nu M0)a<M0>.0: hoisting renames the clashing a, not to
    # the first mint atom, which is bound inside its scope
    m0 = Name(MINT_BASE)
    p = Par(Assert(frozenset({a})), Res(a, Res(m0, Output(a, m0, NIL))))
    q = Par(Assert(frozenset({a})), Res(x, Res(y, Output(x, y, NIL))))
    assert congruence_key(p) == congruence_key(q)


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


def ether_example():
    """(nu x)(x<x>.0 | (|{x}|)) | (nu y)(y(y).0 | (|{y}|)), with its own names."""
    x, y = fresh_name((), "x"), fresh_name((), "y")
    return Par(Res(x, Par(Output(x, x, NIL), Assert(frozenset({x})))),
               Res(y, Par(Input(y, (y,), y, NIL), Assert(frozenset({y})))))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_harmony_on_ether_composites(n):
    # n * n reductions and taus, all congruent: each leaves the same shape
    rep = harmony_check(ether, par(*(ether_example() for _ in range(n))), fuel=2)
    assert rep.ok and rep.matched == 1


REPLICATED_RESTRICTIONS = {
    # !(nu c)(a<c>.0 | a(b).b<a>.0)
    "bang-res-par": (Bang(Res(c, Par(Output(a, c, NIL), Input(a, (b,), b, Output(b, a, NIL))))),
                     (1, 2, 3)),
    # !(nu c)a<c>.0 | !a(b).b<a>.0
    "bang-res-bang": (Par(Bang(Res(c, Output(a, c, NIL))),
                          Bang(Input(a, (b,), b, Output(b, a, NIL)))), (1, 4, 9)),
    # !(nu c)(a<c>.0 | !a(b).b<a>.0)
    "bang-res-par-bang": (Bang(Res(c, Par(Output(a, c, NIL),
                                          Bang(Input(a, (b,), b, Output(b, a, NIL)))))),
                          (0, 2, 6)),
}


@pytest.mark.parametrize("name", sorted(REPLICATED_RESTRICTIONS))
@pytest.mark.parametrize("fuel", [1, 2, 3])
def test_harmony_on_replicated_restrictions(name, fuel):
    # from fuel 2 on, targets hold two copies of the restricted c, which
    # hoisting names apart in different ways on each side
    p, matched = REPLICATED_RESTRICTIONS[name]
    rep = harmony_check(pi, p, fuel=fuel)
    assert rep.ok and rep.matched == matched[fuel - 1]


@pytest.mark.parametrize("name", sorted(REPLICATED_RESTRICTIONS))
def test_derived_par_on_replicated_restrictions(name):
    # each fuel level unfolds the bangs once more, in P and in P | Q alike
    p, _ = REPLICATED_RESTRICTIONS[name]
    for fuel in range(4):
        assert derived_par(pi, p, out(b, z), fuel)


def test_harmony_when_set_elements_tie():
    # after b<b> meets b(w), the set {(b,c'),(a',a'),(b,b)} comes to the top
    # level, where b is a hoisted binder met first inside the set:
    # (a',a') and (b,b) have one shape, and only b occurs elsewhere
    w1, w2 = fresh_name((), "w"), fresh_name((), "w")
    p = Res(b, par(Output(b, b, NIL), Input(b, (w1,), w1, NIL), Assert(frozenset({(c, c)})),
                   Res(a, Res(a, Res(c, Input(b, (w2,), w2, Assert(
                       frozenset({(b, c), (a, a), (b, b)}))))))))
    rep = harmony_check(pre, p, fuel=2)
    assert rep.ok and rep.matched == 2


def test_harmony_report_shows_one_target_per_unmatched_key(monkeypatch):
    p = Res(c, Par(out(a, c), Input(a, (x,), x, out(x, x))))
    (step,) = reductions(pi, p)
    monkeypatch.setattr(reduction, "_derive", lambda *args: [])
    rep = harmony_check(pi, p)
    assert not rep.ok and rep.matched == 0
    assert rep.reduction_only == (repr(canonical(step.target)),) and rep.tau_only == ()


def test_harmony_report_shows_a_canonical_tau_target(monkeypatch):
    # the raw tau target binds scratch atoms; the report shows its
    # canonical form, which holds none
    p = Res(c, Par(out(a, c), Input(a, (x,), x, out(x, x))))
    (t,) = [t for t in transitions(pi, pi.unit, p) if isinstance(t.label, TauLabel)]
    monkeypatch.setattr(reduction, "_fired", lambda *args: ())
    rep = harmony_check(pi, p)
    assert not rep.ok and rep.matched == 0
    assert rep.reduction_only == () and rep.tau_only == (repr(canonical(t.target)),)
    assert "Name(-1," in rep.tau_only[0] and f"Name({MINT_BASE}" not in rep.tau_only[0]


def _reference_harmony(inst, p, fuel):
    """Harmony's counts from the public results: the canonical tau targets
    of ``transitions`` and the targets of ``reductions``, both keyed."""
    red = {congruence_key(s.target) for s in reductions(inst, p, fuel)}
    tau = {congruence_key(t.target) for t in transitions(inst, inst.unit, p, fuel)
           if isinstance(t.label, TauLabel)}
    return len(red & tau), len(red - tau), len(tau - red)


def _oracle_inputs():
    rng = random.Random(41)
    for inst in (pi, ether, tri, pre):
        for size in range(3, 11):
            for _ in range(12):
                yield inst, random_process(inst, rng, size, (a, b, c))
    for n in range(1, 5):
        yield ether, par(*(ether_example() for _ in range(n)))
    for p in triangle_counterexample_shapes(a, b, c):
        yield tri, p


def test_harmony_on_raw_targets_agrees_with_public_results():
    checked = 0
    for inst, p in _oracle_inputs():
        for fuel in (1, 2):
            rep = harmony_check(inst, p, fuel)
            got = (rep.matched, len(rep.reduction_only), len(rep.tau_only))
            assert got == _reference_harmony(inst, p, fuel), (inst.name, p, fuel)
            checked += rep.matched
    assert checked > 0


def test_harmony_sweep_on_corpus():
    # seed 5 holds members on which a key that breaks ties by atom ids
    # reports false mismatches
    rng = random.Random(5)
    count = 0
    for inst in (pi, ether, tri, pre):
        for size in range(6, 13):
            for _ in range(36):
                p = random_process(inst, rng, size, (a, b, c))
                rep = harmony_check(inst, p, fuel=2)
                assert rep.ok, (inst.name, p, rep)
                count += rep.matched
    assert count > 0


# -- properties of the congruence key ---------------------------------------------

def _parts(p):
    """The live hoisted binders and the parts of ``p``."""
    binders, asserts, comps = hoist(p, Fresh(p), set(support(p)))
    parts = list(asserts) + comps
    used = set().union(*(support(q) for q in parts))
    return [n for n in binders if n in used], parts


def _congruent_by_search(p, q):
    """Whether some bijection of the live hoisted binders and permutation of
    the parts map ``p`` onto ``q`` up to alpha, found by trying every
    bijection.  Neither may hold a free scratch atom, which ``canonical``
    would renumber part by part."""
    bp, pp = _parts(p)
    bq, pq = _parts(q)
    if len(bp) != len(bq) or len(pp) != len(pq):
        return False
    marks = [fresh_name((), "k") for _ in bq]
    want = Counter(canonical(rename(dict(zip(bq, marks)), r)) for r in pq)
    return any(Counter(canonical(rename(dict(zip(order, marks)), r)) for r in pp) == want
               for order in itertools.permutations(bp))


def _variant(p, rng):
    """``p`` with its binders renamed and reordered, its parts permuted and
    re-associated, and units added."""
    binders, parts = _parts(p)
    # user atoms, or scratch atoms as the engine mints them, in shuffled order
    fresh = (list(mint_many(Fresh(p), len(binders), "r")) if rng.random() < 0.5
             else [fresh_name((), "r") for _ in binders])
    rng.shuffle(fresh)
    parts = [rename(dict(zip(binders, fresh)), q) for q in parts] + [NIL]
    rng.shuffle(parts)
    rng.shuffle(fresh)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [Par(parts[i], parts[i + 1])]
    return res(fresh, parts[0])


def _key_pool(inst, seed):
    """Small terms of ``inst`` beside the replicated restrictions (pi) or
    three ether examples (ether), their reduction and tau targets, and a
    variant of each."""
    rng = random.Random(seed)
    pool = []
    sources = ([p for p, _ in REPLICATED_RESTRICTIONS.values()] if inst is pi
               else [par(*(ether_example() for _ in range(3)))])
    sources += [random_process(inst, rng, size, (a, b, c))
                for size in range(2, 9) for _ in range(30)]
    for p in sources:
        pool.append(p)
        pool += [s.target for s in reductions(inst, p, 2)]
        pool += [t.target for t in transitions(inst, inst.unit, p, 2)
                 if isinstance(t.label, TauLabel)]
    return pool + [_variant(p, rng) for p in pool]


@pytest.mark.parametrize("inst", [pi, ether], ids=lambda i: i.name)
def test_equal_congruence_keys_have_a_witness(inst):
    by_key = {}
    for p in _key_pool(inst, 29):
        by_key.setdefault(congruence_key(p), []).append(p)
    pairs = 0
    for ps in by_key.values():
        for q in ps[1:]:
            if q != ps[0]:
                assert _congruent_by_search(ps[0], q), (ps[0], q)
                pairs += 1
    assert pairs > 200


def test_congruence_key_tells_apart_parts_linked_differently():
    # one component, and the same shapes: c<d>, d<e>, e<a> is a chain, while
    # in c<d>, e<d>, d<a> two outputs send d
    d, e = fresh_name((), "d"), fresh_name((), "e")
    chain = res((c, d, e), par(out(c, d), out(d, e), out(e, a)))
    fork = res((c, d, e), par(out(c, d), out(e, d), out(d, a)))
    assert not _congruent_by_search(chain, fork)
    assert congruence_key(chain) != congruence_key(fork)
    assert congruence_key(chain) == congruence_key(_variant(chain, random.Random(1)))


def test_congruence_key_of_a_set_over_linked_names():
    # the elements of {d1, d2, d3} tie, and each name occurs in another part
    # too: only a swap of two d's that maps those parts onto each other
    # makes their elements interchangeable
    d = [fresh_name((), "d") for _ in range(3)]
    p = res(d, par(*(out(c, di) for di in d), Assert(frozenset(d))))
    q = res(d, par(*(out(c, di) for di in d), Assert(frozenset(d[:2]))))
    rng = random.Random(3)
    for _ in range(5):
        assert congruence_key(_variant(p, rng)) == congruence_key(p)
    assert congruence_key(q) != congruence_key(p)


def test_congruence_key_of_ties_that_do_not_swap():
    # c<d1> and c<d2> tie, and so do the elements of {d1, d2} and (d1,a),
    # (d2,a), but swapping d1 and d2 is no automorphism: d1<a> and d2<b>, or
    # the fact (d1,b), tell them apart.  In whatever order a variant holds
    # them, the key stays one
    d1, d2 = fresh_name((), "d"), fresh_name((), "d")
    tail = (out(d1, a), out(d2, b))
    hub = res((c, d1, d2), par(out(c, d1), out(c, d2), *tail))
    sets = res((d1, d2), par(Assert(frozenset({d1, d2})), *tail))
    facts = res((d1, d2), Assert(frozenset({(d1, a), (d2, a), (d1, b)})))
    rng = random.Random(5)
    for p in (hub, sets, facts):
        swapped = rename({d1: d2, d2: d1}, p)
        for q in [swapped] + [_variant(p, rng) for _ in range(8)]:
            assert congruence_key(q) == congruence_key(p), p


@pytest.mark.parametrize("inst", [pi, ether], ids=lambda i: i.name)
def test_congruence_key_is_invariant(inst):
    rng = random.Random(31)
    for p in _key_pool(inst, 37):
        assert congruence_key(_variant(p, rng)) == congruence_key(p), p


def _counting(monkeypatch, fn, modules=(nominal, reduction)):
    """Count the calls of ``fn`` through every name of ``modules`` bound to
    it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("width", [4, 8])
def test_congruence_key_cost_on_symmetric_inputs(monkeypatch, width):
    # a search over every order of the symmetric parts or set elements would
    # take width! steps.  The key takes one run of its order search
    # (_placed) per component and at most four walks per node; a set walks
    # each element once more per element taken before it, and a ring of
    # facts, which no swap maps onto itself, is tried from each of its width
    # facts.  In "linked" and "hub and set" every d occurs in two parts, so
    # only a swap of two d's that maps the whole component onto itself shows
    # them interchangeable
    searches = _counting(monkeypatch, reduction._placed)
    walks = _counting(monkeypatch, nominal._canon)
    d = [fresh_name((), "d") for _ in range(width)]
    hub = [Output(c, di, NIL) for di in d]
    ring = frozenset((d[i], d[(i + 1) % width]) for i in range(width))
    inputs = {
        "hub": (res([c] + d, par(*hub)), 16 * width),
        "equal": (Res(c, par(*(Output(c, a, NIL) for _ in range(width)))), 16 * width),
        "linked": (res([c] + d, par(*hub, *(Output(di, a, NIL) for di in d))), 32 * width),
        "private": (res(d, Assert(frozenset(d))), 4 * (2 + width) + 2 * width ** 2),
        "hub and set": (res([c] + d, par(*hub, Assert(frozenset(d)))),
                        4 * (5 * width + 2) + 2 * width ** 2),
        "ring": (res(d, Assert(ring)), 4 * (2 + 3 * width) + 3 * width ** 3),
    }
    for name, (p, bound) in inputs.items():
        searches.clear()
        walks.clear()
        congruence_key(p)
        assert len(searches) <= 1, name
        assert len(walks) <= bound, name


def test_congruence_key_walks_engine_targets_once(monkeypatch):
    # a raw tau target and a reduction target: one walk per part.  Both
    # hold nodes of the source, so each is rebuilt, and no part keeps an
    # entry that the other left
    p = par(*(ether_example() for _ in range(3)))
    raw_tau = next(tgt for lab, _, tgt in _derive(ether, _PROVENANCE, ether.unit, p, 2)
                   if isinstance(lab, TauLabel))
    reduced = next(iter(reductions(ether, p))).target
    walks = _counting(monkeypatch, nominal._canon, (reduction,))
    for target in (rename({}, raw_tau), rename({}, reduced)):
        _, asserts, comps = hoist(target, Fresh(target), set(support(target)))
        walks.clear()
        congruence_key(target)
        assert len(walks) == len(asserts) + len(comps) > 1


CLASHES = [
    # a<a>.0 | (nu a)a<a>.0 against (nu a)(a<a>.0 | a<a>.0), in pi
    (Par(out(a), Res(a, out(a))), Res(a, Par(out(a), out(a))),
     Par(out(a), Res(b, out(b)))),
    # (|{a}|) | (nu a)(|{a}|) against (nu a)((|{a}|) | (|{a}|)), in ether
    (Par(Assert(frozenset({a})), Res(a, Assert(frozenset({a})))),
     Res(a, Par(Assert(frozenset({a})), Assert(frozenset({a})))),
     Par(Assert(frozenset({a})), Res(b, Assert(frozenset({b}))))),
]


@pytest.mark.parametrize("clash, shared, variant", CLASHES, ids=["output", "assertion"])
def test_congruence_key_tells_a_clash_from_a_shared_scope(clash, shared, variant):
    # the free a and the bound a of the clash are two names
    key = congruence_key(clash)
    assert key != congruence_key(shared)
    assert key == congruence_key(variant)


def test_hoist_reads_the_free_names_only_on_a_clash(monkeypatch):
    # the key hoists without the free names, and only a clash sends hoist
    # down the route that reads them and renames: once for each clash
    # input, never for its shared-scope or renamed variants, nor in
    # composites harmony, where every part's free names are in its scope
    # The inputs are rebuilt, so that no closed node keeps counts that
    # another test left, which the key would cut before the clash
    renamed = _counting(monkeypatch, process.hoist, (process,))
    sibling, shared = SIBLING_BINDERS
    for clash, *apart in CLASHES + [(sibling, shared)]:
        for p, want in [(clash, 1)] + [(q, 0) for q in apart]:
            p = rename({}, p)
            renamed.clear()
            congruence_key(p)
            assert len(renamed) == want, p
    for n in range(2, 7):
        assert harmony_check(ether, par(*(ether_example() for _ in range(n))), fuel=2).ok
    assert not renamed


# -- one key table per query -------------------------------------------------------

def _fresh_key(p):
    """The one-shot key of ``p`` rebuilt: ``rename({}, p)`` builds every
    node anew, so the key reads no fact that a node of ``p`` keeps."""
    return congruence_key(rename({}, p))


def _checking_memo_keys(monkeypatch):
    """Check every key that ``reduction`` asks for: it comes with the
    query's table of component keys, and it equals the one-shot key of the
    same process, or, for a key taken by delta from a firing, of the
    firing's target, rebuilt.  Returns the list that counts the keys
    checked."""
    one_shot, by_delta, compared = reduction.congruence_key, reduction._reduction_key, []

    def checked(p, keys=None):
        got = one_shot(p, keys)
        assert keys is not None and got == one_shot(rename({}, p)), p
        compared.append(1)
        return got

    def checked_delta(f, keys):
        got = by_delta(f, keys)
        target = reduction._target(f)
        assert got == one_shot(rename({}, target)), target
        compared.append(1)
        return got

    monkeypatch.setattr(reduction, "congruence_key", checked)
    monkeypatch.setattr(reduction, "_reduction_key", checked_delta)
    return compared


def _memo_inputs():
    rng = random.Random(43)
    for inst in (pi, ether, tri, pre):
        for size in range(3, 11):
            for _ in range(30):
                yield inst, random_process(inst, rng, size, (a, b, c))
    for n in range(1, 6):
        yield ether, par(*(ether_example() for _ in range(n)))
    for p in triangle_counterexample_shapes(a, b, c):
        yield tri, p


def test_harmony_memo_keys_equal_one_shot_keys(monkeypatch):
    # one memo serves every key of a query, in harmony's own order
    compared = _checking_memo_keys(monkeypatch)
    for inst, p in _memo_inputs():
        for fuel in (1, 2):
            harmony_check(inst, p, fuel)
    assert len(compared) > 500


def test_warm_harmony_equals_cold(monkeypatch):
    # a second query on the same nodes reads the facts that the first left
    # on them: its report is the same, and so is every key it asks for
    inputs = list(_memo_inputs())
    cold = [harmony_check(inst, p, 2) for inst, p in inputs]
    compared = _checking_memo_keys(monkeypatch)
    assert [harmony_check(inst, p, 2) for inst, p in inputs] == cold
    assert len(compared) > 300


def test_derived_par_memo_keys_equal_one_shot_keys(monkeypatch):
    compared = _checking_memo_keys(monkeypatch)
    rng = random.Random(47)
    for inst in (pi, ether):
        for _ in range(20):
            p = random_process(inst, rng, 6, (a, b, c))
            assert derived_par(inst, p, out(b, z))
    assert compared


def _keys_through_one_memo(ps):
    keys = {}
    return [congruence_key(p, keys) for p in ps]


def test_memo_entry_follows_the_hoisted_binders():
    # one part object, a<a>.0, keyed with a hoisted and then with a free,
    # and the other way round: the entry of the one may not serve the other
    q = out(a)
    for ps in ([Res(a, q), q, Par(q, Res(a, q))], [q, Res(a, q), Res(a, Par(q, q))]):
        assert _keys_through_one_memo(ps) == [_fresh_key(p) for p in ps]
    bound, free = _keys_through_one_memo([Res(a, q), q])
    assert bound != free


@pytest.mark.parametrize("part", [out(a), Assert(frozenset({a}))], ids=["output", "assertion"])
def test_memo_keys_of_a_clash_and_a_shared_scope(part):
    # the inputs of test_congruence_key_tells_a_clash_from_a_shared_scope,
    # built from one part object, keyed through one memo in every order
    other = rename({a: b}, part)
    triple = (Par(part, Res(a, part)), Res(a, Par(part, part)), Par(part, Res(b, other)))
    want = {p: _fresh_key(p) for p in triple}
    assert want[triple[0]] != want[triple[1]] and want[triple[0]] == want[triple[2]]
    for order in itertools.permutations(triple):
        assert _keys_through_one_memo(order) == [want[p] for p in order]


@pytest.mark.parametrize("link", ["binder", "scratch atom"])
def test_memo_keys_of_components_linked_later(link):
    # two part objects, d<l>.0 and e<l>.0, first in components of their
    # own, and then in one process where l links them into one component.
    # Keyed through one memo in every order, no component key of the parts
    # apart may serve them linked
    d, e = fresh_name((), "d"), fresh_name((), "e")
    if link == "binder":
        # c apart while it is free, linking once it is hoisted
        one, other = out(d, c), out(e, c)
        apart, linked = [res((d, e), par(one, other))], res((c, d, e), par(one, other))
    else:
        # a free scratch atom links every part of a process that holds it
        m = Name(MINT_BASE)
        one, other = out(d, m), out(e, m)
        apart, linked = [Res(d, one), Res(e, other)], res((d, e), par(one, other))

    def components(p):
        return sum(count for _, count in _fresh_key(p))

    assert sum(map(components, apart)) == 2 and components(linked) == 1
    for order in itertools.permutations(apart + [linked]):
        assert _keys_through_one_memo(order) == [_fresh_key(p) for p in order]


def test_memo_keys_of_tied_parts(monkeypatch):
    # the input of test_harmony_when_set_elements_tie: a component with a
    # tied part is searched once per query, and keying a target twice
    # changes nothing
    w1, w2 = fresh_name((), "w"), fresh_name((), "w")
    p = Res(b, par(Output(b, b, NIL), Input(b, (w1,), w1, NIL), Assert(frozenset({(c, c)})),
                   Res(a, Res(a, Res(c, Input(b, (w2,), w2, Assert(
                       frozenset({(b, c), (a, a), (b, b)}))))))))
    targets = [s.target for s in reductions(pre, p, 2)]
    assert _keys_through_one_memo(targets + targets) == [_fresh_key(t) for t in targets] * 2
    compared = _checking_memo_keys(monkeypatch)
    assert harmony_check(pre, p, fuel=2).ok and compared


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_harmony_walks_each_part_once(monkeypatch, n):
    # n^2 reductions and n^2 taus of 4n - 2 parts each, all but two of them
    # the source's own: the source's 4n parts are walked once, and so are
    # the sender's and the receiver's opened assertions, n of each.  The
    # parts keep their entries: a second query on the same process walks
    # only the opened assertions, which its tau targets make anew
    p = par(*(ether_example() for _ in range(n)))
    walks = _counting(monkeypatch, nominal._canon, (reduction,))
    for want in (6 * n, 2 * n):
        walks.clear()
        assert harmony_check(ether, p, fuel=2).ok
        assert len(walks) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_harmony_keys_each_component_once(monkeypatch, n):
    # the source's 2n components, and those the targets change: the
    # sender's and the receiver's assertion alone in a reduction target, and
    # each of them opened in a tau target, n of each
    p = par(*(ether_example() for _ in range(n)))
    keyed = _counting(monkeypatch, reduction._component_key, (reduction,))
    assert harmony_check(ether, p, fuel=2).ok
    assert len(keyed) == 6 * n


def test_memo_gives_two_copies_equal_component_keys():
    # the components of two ether copies, keyed through one memo: the two
    # keys of the one copy equal those of the other
    one, other = _keys_through_one_memo([ether_example(), ether_example()])
    assert one == other and len(one) == 2


# -- reduction keys by delta ------------------------------------------------------

# a<b>.0 | a(x).((nu b)x<b>.0 | (nu a)a<a>.0): the substitution renames the
# received (nu b) to a scratch atom of its own supply, and hoisting the
# received continuation then renames the clashing (nu a) to a scratch atom
# too, which must not be the first
RECEIVED_RENAMED = Par(out(a, b), Input(a, (x,), x, Par(Res(b, out(x, b)), Res(a, out(a)))))

# (nu c)c<c>.0 | (nu c)(c<c>.0 | a<c>.(nu a)a<a>.0) | a(x).0: hoisting
# renames the second c to a scratch atom, and hoisting the sent
# continuation renames its a, which may not become that atom, free in the
# rest of the sender's component
ROOT_BINDER_RENAMED = par(Res(c, out(c)), Res(c, Par(out(c), out(a, c, Res(a, out(a))))),
                          Input(a, (x,), x, NIL))


def _delta_inputs():
    rng = random.Random(53)
    for inst in (pi, ether, tri, pre):
        for size in range(3, 13):
            for _ in range(40):
                p = random_process(inst, rng, size, (a, b, c), allow_bang=inst is pi)
                yield inst, p, (1, 2)
    for n in range(1, 7):
        yield ether, par(*(ether_example() for _ in range(n))), (2,)
    for p, _ in REPLICATED_RESTRICTIONS.values():
        yield pi, p, (1, 2, 3)
    for inst, (clash, *apart) in zip((pi, ether), CLASHES):
        for p in (clash, *apart):
            yield inst, p, (1, 2)
    for p in SIBLING_BINDERS + (RECEIVED_RENAMED, ROOT_BINDER_RENAMED):
        yield pi, p, (1, 2)
    w1, w2 = fresh_name((), "w"), fresh_name((), "w")
    yield pre, Res(b, par(Output(b, b, NIL), Input(b, (w1,), w1, NIL),
                          Assert(frozenset({(c, c)})),
                          Res(a, Res(a, Res(c, Input(b, (w2,), w2, Assert(
                              frozenset({(b, c), (a, a), (b, b)})))))))), (2,)
    for p in triangle_counterexample_shapes(a, b, c):
        yield tri, p, (1, 2)


def test_reduction_key_by_delta_equals_the_key_of_the_target():
    # each firing of a query is keyed through the query's one table, from
    # the source's key, and compared with the one-shot key of its target
    checked = 0
    for inst, p, fuels in _delta_inputs():
        for fuel in fuels:
            keys = {}
            for f in reduction._fired(inst, p, fuel):
                target = reduction._target(f)
                assert reduction._reduction_key(f, keys) == _fresh_key(target), (p, fuel)
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("sizes", [(3, 2), (2, 3)], ids=["3 then 2", "2 then 3"])
def test_reduction_keys_of_two_sources_through_one_table(sizes):
    # a table shared by two sources serves neither one's summary to the
    # other's firings: each delta key equals the one-shot key of its target
    keys, checked = {}, 0
    for n in sizes:
        for f in reduction._fired(ether, par(*(ether_example() for _ in range(n))), 2):
            target = reduction._target(f)
            assert reduction._reduction_key(f, keys) == _fresh_key(target), n
            checked += 1
    assert checked == sum(n * n for n in sizes)


@pytest.mark.parametrize("p, parts", [(RECEIVED_RENAMED, 2), (ROOT_BINDER_RENAMED, 3)],
                         ids=["received", "root binder"])
def test_renamed_binders_stay_apart(p, parts):
    # each part of the target is a component of its own
    (step,) = reductions(pi, p)
    assert sum(count for _, count in congruence_key(step.target)) == parts
    assert harmony_check(pi, p).ok


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reduction_keys_regroup_only_what_a_step_touches(monkeypatch, n):
    # the source's 4n parts are grouped once; each of the n^2 steps then
    # regroups what is left of the sender's and the receiver's components,
    # their two assertions, and no other part.  The recording of the closed
    # nodes, at the first firing, groups parts of its own, and is stubbed
    p = par(*(ether_example() for _ in range(n)))
    grouped = []
    components = reduction._components

    def counted(occs):
        grouped.append(len(occs))
        return components(occs)

    monkeypatch.setattr(reduction, "_components", counted)
    monkeypatch.setattr(reduction, "_derive", lambda *args: [])
    monkeypatch.setattr(reduction, "_record_closed", lambda *args: None)
    harmony_check(ether, p, fuel=2)
    assert grouped[0] == 4 * n and len(grouped) == 1 + n * n
    assert max(grouped[1:]) <= 4


def test_reduction_side_keys_nothing_without_a_firing(monkeypatch):
    # neither triangle shape reduces, and its source is never keyed
    walked = _counting(monkeypatch, reduction._part_entry, (reduction,))
    monkeypatch.setattr(reduction, "_derive", lambda *args: [])
    for p in triangle_counterexample_shapes(a, b, c):
        assert harmony_check(tri, p, fuel=2).ok
    assert not walked


def test_well_formedness_is_checked_once_per_query(monkeypatch):
    p = par(*(ether_example() for _ in range(2)))
    checks = _counting(monkeypatch, process.check_well_formed, (process, semantics, reduction))
    for query in (lambda q: harmony_check(ether, q), lambda q: transitions(ether, ether.unit, q),
                  lambda q: legacy_transitions(ether, ether.unit, q),
                  lambda q: reductions(ether, q)):
        checks.clear()
        query(p)
        assert len(checks) == 1
        with pytest.raises(process.IllFormed):
            query(Bang(Assert(frozenset({a}))))


# -- tau keys take the source's closed subtrees whole ------------------------------

# closed processes: a target that holds one is keyed as its key beside
# the rest.  (nu c)(c<c>.0 | (|{c}|)) in ether, (nu c)(c<c>.0 | c<c>.0) in pi
CLOSED = Res(c, Par(out(c), Assert(frozenset({c}))))
CLOSED_PI = Res(c, Par(out(c), out(c)))


def _cut_inputs():
    rng = random.Random(59)
    for size in range(3, 9):
        for _ in range(12):
            # a Com in either copy leaves the other one whole
            yield ether, par(ether_example(), random_process(ether, rng, size, (a, b, c)),
                             ether_example())
            p = random_process(pi, rng, size, (a, b, c))
            yield pi, par(CLOSED_PI, p) if size % 2 else par(p, CLOSED_PI)
    m = Name(MINT_BASE)
    for p in (
        # one closed object twice
        par(CLOSED_PI, CLOSED_PI, out(b), inp(b)),
        # the walk cuts CLOSED_PI and then meets a free c, which it hoists as
        # a binder too: a clash, which restarts hoist
        par(CLOSED_PI, Par(Res(c, out(c)), out(c)), out(b), inp(b)),
        # a scratch atom, free in an untouched node, links it to the
        # received continuation
        par(Par(out(a, m), out(a, m)), out(b, b), Input(b, (x,), x, out(m))),
    ):
        yield pi, p


def test_harmony_cut_keys_equal_one_shot_keys(monkeypatch):
    # every key harmony asks for, those that record the source's closed
    # nodes included, equals its one-shot key; the tau keys cut nodes
    compared = _checking_memo_keys(monkeypatch)
    cut, hoisted = [], reduction.hoist

    def counted(*args, **kwargs):
        got = hoisted(*args, **kwargs)
        cut.extend(q for q in got[2] if isinstance(q, (Par, Res)))
        return got

    monkeypatch.setattr(reduction, "hoist", counted)
    for inst, p in _cut_inputs():
        for fuel in (1, 2):
            assert harmony_check(inst, p, fuel).ok, p
    assert len(compared) > 500 and len(cut) > 500


def _keys_after_recording(source, targets):
    keys = {}
    reduction._record_closed(source, keys)
    return [congruence_key(t, keys) for t in targets]


def test_cut_keys_of_hand_built_targets():
    # targets that hold the source's nodes in other places than a tau
    # target would: only the closed ones are cut, and every key equals the
    # one-shot key
    open_node = Par(out(a), out(a))
    source = par(CLOSED, open_node, out(b))
    targets = [
        # CLOSED's binder is also bound outside it, and so is open_node's
        # free a
        Res(c, Par(CLOSED, out(c))),
        Res(a, Par(open_node, CLOSED)),
        # one closed object twice
        Par(CLOSED, CLOSED),
        Res(c, par(CLOSED, CLOSED, out(c))),
        # CLOSED is cut before a clash restarts hoist: c is hoisted twice,
        # or is free outside its binder's scope
        par(CLOSED, Res(c, out(c)), Res(c, out(c))),
        par(CLOSED, Res(c, out(c)), out(c)),
        par(Res(a, CLOSED), CLOSED, Res(c, Par(CLOSED, out(c)))),
    ]
    assert _keys_after_recording(source, targets) == [_fresh_key(t) for t in targets]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tau_keys_take_the_sources_closed_subtrees_whole(monkeypatch, n):
    # each of the n^2 tau targets holds its sender's and its receiver's
    # opened assertions, and the source's closed nodes for the rest: two
    # part lookups, where keying each of its 4n - 2 parts made 4n - 2
    p = par(*(ether_example() for _ in range(n)))
    targets, derive, key = {}, reduction._derive, reduction.congruence_key
    lookups = _counting(monkeypatch, reduction._part_entry, (reduction,))
    per_target = []

    def kept(*args):
        got = derive(*args)
        targets.update((id(t), t) for lab, _, t in got if isinstance(lab, TauLabel))
        return got

    def keyed(q, keys=None):
        before = len(lookups)
        got = key(q, keys)
        if targets.get(id(q)) is q:
            per_target.append(len(lookups) - before)
        return got

    monkeypatch.setattr(reduction, "_derive", kept)
    monkeypatch.setattr(reduction, "congruence_key", keyed)
    assert harmony_check(ether, p, fuel=2).ok
    assert per_target == [2] * (n * n)


def test_recorded_once_per_query_at_its_first_firing_never_without_one(monkeypatch):
    # neither triangle shape has a firing, and its source is never
    # recorded; a composite is recorded once per query, at its first
    # firing, so also when the query makes no tau target
    recorded = _counting(monkeypatch, reduction._record_closed, (reduction,))
    for p in triangle_counterexample_shapes(a, b, c):
        assert harmony_check(tri, p, fuel=2).ok
    assert not recorded
    assert harmony_check(ether, par(*(ether_example() for _ in range(3))), fuel=2).ok
    assert len(recorded) == 1
    monkeypatch.setattr(reduction, "_derive", lambda *args: [])
    harmony_check(ether, par(*(ether_example() for _ in range(3))), fuel=2)
    assert len(recorded) == 2


def test_cut_keys_meet_no_depth_limit():
    # support recurses, and a 2,000-wide Par of ether copies is too deep
    # for it; the recording and the key walk with stacks.  So is rename:
    # the reference is keyed on copies built apart, which keep no facts
    def target(copies):
        return par(*copies[:999], ether_example(), *copies[1000:])

    copies = [ether_example() for _ in range(2000)]
    (key,) = _keys_after_recording(par(*copies), [target(copies)])
    assert key == congruence_key(target([ether_example() for _ in range(2000)]))
