import hypothesis.strategies as st
import pytest
from hypothesis import given

from psiwb.corpus import all_processes
from psiwb.nominal import (MINT_BASE, Fresh, Name, _CanonState, _canon, alpha_eq,
                           atoms, canonical, fresh_name, mint, mint_many, rename,
                           sort_key, support)
from psiwb.params import PiInstance, PreorderInstance
from psiwb.process import NIL, Assert, Input, Output, Par, Res
from psiwb.semantics import OutLabel

a, b, c, x, y = (fresh_name((), h) for h in "abcxy")


def out(ch, msg, cont=NIL):
    return Output(ch, msg, cont)


def composed(swaps):
    """The permutation that applies the swaps ``(a, b)`` in ``swaps``, last
    first, as a dict over the atoms they name."""
    perm = {}
    for n in {n for pair in swaps for n in pair}:
        m = n
        for s, t in reversed(swaps):
            m = t if m == s else s if m == t else m
        perm[n] = m
    return perm


def test_name_identity():
    assert Name(7, "p") == Name(7, "q")
    assert Name(7) != Name(8)
    assert hash(Name(7, "p")) == hash(Name(7))


def test_fresh_name_avoids():
    avoid = {a, b, c}
    n = fresh_name(avoid)
    assert n not in avoid
    m1, m2 = fresh_name(), fresh_name()
    assert m1 != m2


def test_mint_deterministic():
    avoid = frozenset({a, b})
    assert mint(Fresh(avoid)) == mint(Fresh(avoid))
    m1 = mint(Fresh(avoid))
    m2 = mint(Fresh(avoid | {m1}))
    assert m1 != m2


def test_fresh_atoms_are_distinct_and_clear_of_every_value():
    # the supply counts above every MINT-band atom of its values, free and
    # bound: M5 is bound below the restriction, M2 is free in the assertion
    m2, m5 = Name(MINT_BASE + 2), Name(MINT_BASE + 5)
    values = (Res(m5, out(a, m5)), Assert(frozenset({m2, b})), Res(x, out(x, c)))
    fresh = Fresh(*values)
    drawn = [mint(fresh) for _ in range(3)] + list(mint_many(fresh, 4, "v"))
    assert len(set(drawn)) == len(drawn)
    assert not set(drawn) & atoms(values)
    assert all(n.id > m5.id for n in drawn)


def test_fresh_supplies_over_the_same_values_draw_alike():
    p = Par(Res(x, out(x, Name(MINT_BASE))), out(a, b))
    first, second = Fresh(p, a), Fresh(p, a)
    assert mint_many(first, 5) == mint_many(second, 5)
    assert mint(first) == mint(second)
    assert mint(Fresh()) == Name(MINT_BASE)


def test_single_swap_on_names():
    p = {a: b, b: a}
    assert rename(p, a) == b
    assert rename(p, b) == a
    assert rename(p, c) == c


def test_swap_twice_is_identity():
    p = composed(((a, b), (a, b)))
    assert rename(p, a) == a
    assert rename(p, out(a, c)) == out(a, c)


def test_perm_on_process_matches_structural_recursion():
    # independent oracle: recurse by hand over the AST
    def oracle(p, proc):
        if isinstance(proc, Output):
            return Output(p.get(proc.channel, proc.channel),
                          p.get(proc.message, proc.message), oracle(p, proc.cont))
        return proc

    p = {a: b, b: a}
    proc = out(a, c)
    assert rename(p, proc) == oracle(p, proc) == out(b, c)


def test_support_of_nil_is_empty():
    assert support(NIL) == frozenset()


def test_support_excludes_binders():
    # support((nu x) a<x>.0) == {a}: oracle is the free names of the
    # alpha-canonical form
    proc = Res(x, out(a, x))
    assert support(proc) == frozenset({a})
    canon = canonical(proc)
    frees = {n for n in _all_atoms(canon) if n.id >= 0}
    assert frees == {a}


def test_binder_scopes_only_over_later_fields():
    # Input(channel, variables, pattern, cont): the variables bind in the
    # pattern and the continuation, not in the channel declared before them
    p = Input(x, (x,), x, out(x, x))
    assert support(p) == frozenset({x})
    assert alpha_eq(p, Input(x, (y,), y, out(y, y)))
    assert not alpha_eq(p, Input(y, (y,), y, out(y, y)))
    # OutLabel(subject, extruded, obj): the subject stays free
    lab = OutLabel(x, (x,), x)
    assert support(lab) == frozenset({x})
    canon = canonical(lab)
    assert canon.subject == x
    assert canon.extruded == (canon.obj,) and canon.obj != x


def _all_atoms(v):
    import dataclasses
    if isinstance(v, Name):
        return {v}
    if isinstance(v, (tuple, frozenset)):
        return set().union(*(_all_atoms(e) for e in v)) if v else set()
    if dataclasses.is_dataclass(v):
        fs = dataclasses.fields(v)
        return set().union(*(_all_atoms(getattr(v, f.name)) for f in fs)) if fs else set()
    return set()


def test_support_of_ether_assertion():
    # Example 2.10: the ether assertion {x, y} has support {x, y}
    assert support(frozenset({x, y})) == frozenset({x, y})


def test_alpha_eq_restriction():
    assert alpha_eq(Res(x, out(a, x)), Res(y, out(a, y)))
    assert not alpha_eq(out(a, x), out(a, y))


def test_alpha_ineq_ordered_binder_sequences():
    from psiwb.semantics import Prov
    # (nu x; y)M vs (nu y; x)M differ when both occur in M: order matters
    m = (x, y)
    assert not alpha_eq(Prov((x,), (y,), m), Prov((y,), (x,), m))
    assert alpha_eq(Prov((x,), (y,), m), Prov((a,), (b,), (a, b)))


def test_canonical_numbers_scratch_atoms_of_a_set_by_element_shape():
    # m1 and m2 are met first inside the set; numbering them in the order of
    # their ids would tell the two apart after swapping them
    m1, m2 = Name(MINT_BASE), Name(MINT_BASE + 1)
    p = Assert(frozenset({(m1, a), (m2, m2)}))
    assert alpha_eq(p, rename({m1: m2, m2: m1}, p))


def test_atoms_include_binders_and_walk_deep_terms():
    p = Res(x, Input(a, (y,), y, Output(x, y, NIL)))
    assert atoms(p) == {a, x, y}
    deep = Output(a, b, NIL)
    for _ in range(5000):
        deep = Output(a, c, deep)
    assert atoms(deep) == {a, b, c}


def test_input_binds_pattern_variables():
    p1 = Input(a, (x,), x, out(b, x))
    p2 = Input(a, (y,), y, out(b, y))
    assert alpha_eq(p1, p2)
    assert support(p1) == frozenset({a, b})


# -- property tests ----------------------------------------------------------

names = st.sampled_from([a, b, c, x, y])
perms = st.lists(st.tuples(names, names), max_size=3).map(composed)


@st.composite
def procs(draw, depth=3):
    kind = draw(st.integers(0, 5 if depth > 0 else 2))
    if kind == 0:
        return NIL
    if kind == 1:
        return out(draw(names), draw(names))
    if kind == 2:
        v = draw(names)
        return Input(draw(names), (v,), v, NIL)
    if kind == 3:
        return Par(draw(procs(depth - 1)), draw(procs(depth - 1)))
    if kind == 4:
        return Res(draw(names), draw(procs(depth - 1)))
    return Assert(frozenset(draw(st.lists(names, max_size=2))))


@given(perms, procs())
def test_equivariance_of_support(p, proc):
    assert support(rename(p, proc)) == frozenset(
        p.get(n, n) for n in support(proc))


@given(perms, procs())
def test_equivariance_of_canonical(p, proc):
    # alpha_eq is equivariant: x =a= y implies p.x =a= p.y
    assert alpha_eq(rename(p, proc), rename(p, canonical(proc)))


@given(procs(), procs(), procs())
def test_alpha_eq_is_equivalence(p1, p2, p3):
    assert alpha_eq(p1, p1)
    if alpha_eq(p1, p2):
        assert alpha_eq(p2, p1)
    if alpha_eq(p1, p2) and alpha_eq(p2, p3):
        assert alpha_eq(p1, p3)


@given(st.sets(names, max_size=5))
def test_fresh_name_never_in_avoid(avoid):
    assert fresh_name(avoid) not in avoid


@given(procs(), st.integers(0, 4))
def test_fresh_atoms_never_in_values(proc, n):
    # x and y, free or bound, become MINT-band atoms out of order
    moved = rename({x: Name(MINT_BASE + 3), y: Name(MINT_BASE)}, proc)
    drawn = mint_many(Fresh(moved, proc), n)
    assert len(set(drawn)) == n
    assert not set(drawn) & atoms((moved, proc))


def test_forked_canon_state_does_not_write_through():
    s1, s2 = Name(MINT_BASE + 1), Name(MINT_BASE + 2)
    state = _CanonState()
    first = _canon(s1, {}, state)
    state.new_binder("b")
    child = state.fork()
    assert (child.binder_n, child.free_map) == (state.binder_n, state.free_map)
    assert _canon(s1, {}, child) == first
    child.new_binder("c")
    _canon(s2, {}, child)
    assert state.binder_n == 1 and state.free_map == {s1: first}
    assert child.binder_n == 2 and len(child.free_map) == 2


def test_sort_key_orders_value_kinds_in_bands():
    # Names < bools < ints < strs < tuples < frozensets < dataclasses <
    # anything else, each kind in a band of its own: True == 1, yet they
    # get two keys
    values = [a, False, True, 0, 7, "", "s", (), (a,), frozenset(), frozenset({a}),
              NIL, out(a, b), 1.5, None]
    keys = [sort_key(v) for v in values]
    bands = [k[0] for k in keys]
    assert bands == sorted(bands) and len(set(bands)) == 8
    assert sorted(keys) == keys
    assert True == 1 and sort_key(True) != sort_key(1)


@pytest.mark.parametrize("inst", [PiInstance(), PreorderInstance()], ids=["pi", "preorder"])
def test_sort_key_strings_tell_canonical_forms_apart(inst):
    # a congruence key spells a canonical form as the repr of its sort_key:
    # over every small term, that string groups the terms as the form does
    ps = [p for size in range(4) for p in all_processes(inst, size, (a, b))]

    def grouping(key):
        groups = {}
        for i, p in enumerate(ps):
            groups.setdefault(key(p), set()).add(i)
        return sorted(map(sorted, groups.values()))

    assert grouping(canonical) == grouping(lambda p: repr(sort_key(canonical(p))))
