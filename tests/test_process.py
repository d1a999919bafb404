import pytest

from psiwb.nominal import (MINT_BASE, Fresh, Name, alpha_eq, fresh_name,
                           names_of, rename)
from psiwb.params import EtherInstance, PiEq, PiInstance, Subst, TriangleInstance
from psiwb.process import (NIL, Assert, Bang, Case, IllFormed, Input,
                           Output, Par, Res, SumUnavailable, assertion_guarded,
                           check_well_formed, desugar_sum, hoist,
                           opened_frame, par, res, subst_process,
                           well_formed_violations)
from psiwb.reduction import congruence_key, harmony_check, reductions
from psiwb.semantics import transitions

a, b, x, y, z = (fresh_name((), h) for h in "abxyz")
ether = EtherInstance()
pi = PiInstance()
tri = TriangleInstance()


def psi(*names):
    return frozenset(names)


def test_guardedness_accepts_assertion_under_prefix():
    p = Bang(Output(a, x, Assert(psi(x))))
    check_well_formed(p)


def test_guardedness_rejects_unguarded_bang_body():
    with pytest.raises(IllFormed):
        check_well_formed(Bang(Assert(psi(x))))


def test_case_branches_must_be_guarded():
    bad = Case(((PiEq(a, a), Assert(psi(x))),))
    diags = well_formed_violations(bad)
    assert any("guarded" in msg for _, msg in diags)


def test_input_pattern_variable_must_occur():
    bad = Input(a, (y,), x, NIL)
    diags = well_formed_violations(bad)
    assert len(diags) == 1
    assert "support" in diags[0][1]


def test_input_pattern_variables_distinct():
    bad = Input(a, (y, y), y, NIL)
    assert well_formed_violations(bad)


def test_diagnostic_paths_point_at_subterms():
    bad = Par(NIL, Bang(Assert(psi(x))))
    (path, _), = well_formed_violations(bad)
    assert path == ("right",)


@pytest.mark.parametrize("p, path", [
    (Case(((PiEq(a, a), "x"),)), ("branch0",)),
    (Bang("x"), ("body",)),
    (Bang(Par(NIL, "x")), ("body", "right")),
], ids=["case branch", "bang body", "under a bang body"])
def test_non_process_under_a_guarded_position_is_located(p, path):
    # the guardedness check of a case branch or a bang body passes over the
    # non-process, which the walk reports at its own path, for every query
    assert well_formed_violations(p) == [(path, "not a process: 'x'")]
    for query in (check_well_formed, lambda q: transitions(pi, pi.unit, q),
                  lambda q: harmony_check(pi, q), lambda q: reductions(pi, q)):
        with pytest.raises(IllFormed) as err:
            query(p)
        assert err.value.diagnostics == ((path, "not a process: 'x'"),)


NOT_PAIRS = "case branches must be a tuple of (condition, process) pairs"


@pytest.mark.parametrize("shape, msg", [
    (Input(a, x, x, NIL), "input pattern variables must be a tuple of names"),
    (Case(NIL), NOT_PAIRS),
    (Case(((PiEq(a, a),),)), NOT_PAIRS),
    (Case((NIL,)), NOT_PAIRS),
], ids=["variables a name", "branches not a tuple", "branch not a pair", "branch a process"])
def test_malformed_shape_is_located(shape, msg):
    # reported at its own path, by the check and by every query, and not as
    # the bare error that reading the malformed field would raise
    p = Par(NIL, shape)
    assert well_formed_violations(p) == [(("right",), msg)]
    for query in (check_well_formed, lambda q: transitions(pi, pi.unit, q),
                  lambda q: harmony_check(pi, q), lambda q: reductions(pi, q)):
        with pytest.raises(IllFormed) as err:
            query(p)
        assert err.value.diagnostics == ((("right",), msg),)


def prefix_chain(depth, end=NIL):
    for _ in range(depth):
        end = Output(a, x, end)
    return end


def test_well_formedness_walks_wide_and_deep_terms():
    wide = par(*(Output(a, x, NIL) for _ in range(1000)))
    deep = prefix_chain(5000)
    for p in (wide, deep, Bang(deep), Case(((PiEq(a, a), deep),))):
        check_well_formed(p)
        assert assertion_guarded(p)
    assert not assertion_guarded(Par(wide, Assert(psi(x))))
    assert assertion_guarded(prefix_chain(1, Par(deep, Assert(psi(x)))))


def test_queries_pass_a_440_deep_chain():
    # support walks at two frames per level: each query, on a chain of its
    # own that keeps no fact yet, stays under the recursion limit
    assert transitions(pi, pi.unit, prefix_chain(440))
    assert not reductions(pi, prefix_chain(440))
    assert harmony_check(pi, prefix_chain(440)).ok
    assert sum(n for _, n in congruence_key(prefix_chain(440))) == 1


def test_deep_diagnostic_keeps_its_full_path():
    # y does not occur in the pattern x
    deep = prefix_chain(2000, Input(a, (y,), x, NIL))
    (path, msg), = well_formed_violations(deep)
    assert path == ("cont",) * 2000
    assert "support" in msg


def test_diagnostics_keep_pre_order():
    bad_input = Input(a, (y, y), x, NIL)
    p = Par(Case(((PiEq(a, a), Assert(psi(x))), (PiEq(a, a), bad_input))),
            Bang(Par(Assert(psi(x)), bad_input)))
    assert [(path, msg.split(":")[0]) for path, msg in well_formed_violations(p)] == [
        (("left", "branch0"), "case branch must be assertion-guarded"),
        (("left", "branch1"), "input pattern variables must be pairwise distinct"),
        (("left", "branch1"), "pattern variables not in the pattern's support"),
        (("right",), "replicated process must be assertion-guarded"),
        (("right", "body", "right"), "input pattern variables must be pairwise distinct"),
        (("right", "body", "right"), "pattern variables not in the pattern's support"),
    ]


# -- frames -------------------------------------------------------------------

def frame(inst, p):
    """The frame of ``p``, opened to atoms fresh for it: (binders, assertion)."""
    f = opened_frame(inst, p, Fresh(p))
    return f.binders, f.assertion


def nu(binders, assertion):
    """The frame (nu binders)assertion as a process, to compare up to alpha."""
    return res(binders, Assert(assertion))


def test_frame_of_prefix_is_unit():
    assert frame(ether, Output(a, x, NIL)) == ((), ether.unit)


def test_frame_of_par_with_restriction():
    # hand-evaluation of the defining equations:
    # F((|P1|) | (nu x)(|P2|)) = <x, P1 (x) P2> when x fresh in P1
    p = Par(Assert(psi(a)), Res(x, Assert(psi(x))))
    bs, assertion = frame(ether, p)
    assert len(bs) == 1
    assert alpha_eq(nu(bs, assertion), nu((x,), psi(a, x)))


def test_frame_binder_order_preserved():
    p = Res(x, Res(y, Assert(psi(x, y))))
    bs, assertion = frame(ether, p)
    assert len(set(bs)) == 2
    assert assertion == psi(*bs)
    assert alpha_eq(nu(bs, assertion), nu((x, y), psi(x, y)))
    # an ether assertion is symmetric in its names; a triangle pair is not,
    # so it pins the outer binder first
    bs, assertion = frame(tri, Res(x, Res(y, Assert(frozenset({(x, y)})))))
    assert assertion == frozenset({bs})
    assert alpha_eq(nu(bs, assertion), nu((x, y), frozenset({(x, y)})))
    assert not alpha_eq(nu(bs, assertion), nu((y, x), frozenset({(x, y)})))


def test_frame_par_binder_order_left_then_right():
    p = Par(Res(x, Assert(psi(x))), Res(y, Assert(psi(y))))
    bs, assertion = frame(ether, p)
    assert len(bs) == 2
    assert alpha_eq(nu(bs, assertion), nu((x, y), psi(x, y)))
    bs, assertion = frame(tri, Par(Res(x, Assert(frozenset({(x, a)}))),
                                   Res(y, Assert(frozenset({(y, b)})))))
    bx, by = bs
    assert assertion == frozenset({(bx, a), (by, b)})


def test_frame_freshens_on_clash():
    # both components bind the same atom: composition must not conflate them
    p = Par(Res(x, Assert(psi(x))), Res(x, Assert(psi(x))))
    bs, assertion = frame(ether, p)
    assert len(bs) == 2 and len(set(bs)) == 2
    assert len(assertion) == 2


def test_frame_equivariant_and_alpha_invariant():
    p = Par(Assert(psi(a)), Res(x, Assert(psi(x))))
    q = Par(Assert(psi(a)), Res(y, Assert(psi(y))))  # alpha-variant
    assert alpha_eq(nu(*frame(ether, p)), nu(*frame(ether, q)))
    perm = {a: b, b: a}
    assert alpha_eq(nu(*frame(ether, rename(perm, p))),
                    rename(perm, nu(*frame(ether, p))))


# -- normal forms: the hoisted binders, the assertions and the rest ----------

def hoisted(p):
    binders, asserts, comps = hoist(p, Fresh(p), set(names_of(p)))
    return binders, asserts, par(*comps)


def reassemble(binders, asserts, rest):
    return res(binders, par(*asserts, rest))


def test_normal_form_of_guarded_process():
    p = Output(a, x, NIL)
    binders, asserts, rest = hoisted(p)
    assert binders == () and asserts == () and rest == p


def test_normal_form_hoists_and_splits():
    p = Par(Assert(psi(a)), Res(x, Assert(psi(x))))
    binders, asserts, rest = hoisted(p)
    assert len(binders) == 1
    assert asserts == (Assert(psi(a)), Assert(psi(binders[0])))
    assert rest == NIL


def test_normal_form_keeps_dead_binder():
    binders, asserts, rest = hoisted(Res(a, NIL))
    assert binders == (a,)
    assert asserts == ()
    assert rest == NIL


def test_normal_form_reassembles_to_congruent_process():
    from psiwb.semantics import erase_provenance, transitions
    p = Par(Res(x, Par(Output(x, x, NIL), Assert(psi(x)))), Assert(psi(a)))
    q = reassemble(*hoisted(p))
    env = psi(b)
    assert (erase_provenance(transitions(ether, env, p))
            != frozenset())
    # same observable transitions (targets differ only by hoisting, so we
    # compare labels here; the full harmony check lives in test_reduction)
    labels = lambda ts: frozenset(t.label for t in ts)
    assert labels(transitions(ether, env, p)) == labels(transitions(ether, env, q))


def test_normal_form_renames_binder_clear_of_bound_atoms():
    # (nu a)(nu M0)a<M0>.0 | a<a>.0: the outer a clashes with the free a and
    # is renamed; the first mint atom is bound inside its scope, so it must
    # not be the new name
    m0 = Name(MINT_BASE)
    p = Par(Res(a, Res(m0, Output(a, m0, NIL))), Output(a, a, NIL))
    assert alpha_eq(reassemble(*hoisted(p)),
                    Res(x, Res(y, Par(Output(x, y, NIL), Output(a, a, NIL)))))


# -- substitution -----------------------------------------------------------------

def test_subst_renames_binder_clear_of_bound_atoms():
    # (nu M0)c(x).M0<x>.0 [x := y]: the input binder x clashes with the
    # substitution and is renamed, not to the bound M0
    m0 = Name(MINT_BASE)
    p = Res(m0, Input(b, (x,), x, Output(m0, x, NIL)))
    assert alpha_eq(subst_process(pi, p, Subst.of((x,), (y,))), p)


def test_subst_returns_term_missing_the_domain_unchanged():
    # no free x: not even the clashing binder y is renamed, and the very
    # object comes back; a free x below one Par side leaves the other alone
    p = Res(y, Input(b, (x,), x, Output(y, x, NIL)))
    assert subst_process(pi, p, Subst.of((x,), (y,))) is p
    q = Par(p, Output(x, a, NIL))
    got = subst_process(pi, q, Subst.of((x,), (b,)))
    assert got.left is p and got.right == Output(b, a, NIL)


def test_subst_reaches_assertions():
    # (|{x,a}|)[x := b] = (|{b,a}|)
    got = subst_process(ether, Assert(psi(x, a)), Subst.of((x,), (b,)))
    assert alpha_eq(got, Assert(psi(b, a)))


def test_subst_renames_input_binder_clashing_with_the_substitution():
    # c(y).y<x>.0 [x := y] = c(w).w<y>.0: the received y is not captured
    c, w = fresh_name((), "c"), fresh_name((), "w")
    got = subst_process(pi, Input(c, (y,), y, Output(y, x, NIL)), Subst.of((x,), (y,)))
    assert alpha_eq(got, Input(c, (w,), w, Output(w, y, NIL)))


def test_subst_reaches_case_conditions_and_branches():
    # case x<->a : x<x>.0 [x := b] = case b<->a : b<b>.0
    p = Case(((ether.conn(x, a), Output(x, x, NIL)),))
    got = subst_process(ether, p, Subst.of((x,), (b,)))
    assert alpha_eq(got, Case(((ether.conn(b, a), Output(b, b, NIL)),)))


def test_subst_reaches_under_replication():
    # !x<a>.0 [x := b] = !b<a>.0
    got = subst_process(pi, Bang(Output(x, a, NIL)), Subst.of((x,), (b,)))
    assert alpha_eq(got, Bang(Output(b, a, NIL)))


def test_received_name_instantiates_a_replicated_continuation():
    # a<b>.0 | a(x).!x<x>.0 reduces to !b<b>.0 alone, and harmony holds
    p = Par(Output(a, b, NIL), Input(a, (x,), x, Bang(Output(x, x, NIL))))
    (step,) = reductions(pi, p)
    assert alpha_eq(step.target, Bang(Output(b, b, NIL)))
    assert harmony_check(pi, p).ok


# -- sums ----------------------------------------------------------------------

def test_desugar_sum_builds_case():
    p, q = Output(a, x, NIL), Output(b, y, NIL)
    s = desugar_sum(pi, p, q)
    assert isinstance(s, Case)
    (g1, p1), (g2, q1) = s.branches
    assert g1 == g2 and p1 == p and q1 == q
    assert pi.entails(pi.unit, g1)


def test_desugar_sum_nested_left_associative():
    p, q, r = Output(a, x, NIL), Output(b, y, NIL), Output(a, y, NIL)
    s = desugar_sum(pi, desugar_sum(pi, p, q), r)
    assert isinstance(s, Case) and len(s.branches) == 2
    inner = s.branches[0][1]
    assert isinstance(inner, Case) and len(inner.branches) == 2


def test_desugar_sum_unavailable_for_ether():
    with pytest.raises(SumUnavailable):
        desugar_sum(ether, Output(a, x, NIL), Output(b, y, NIL))


def test_desugar_sum_rejects_unguarded():
    with pytest.raises(IllFormed):
        desugar_sum(pi, Assert(pi.unit), NIL)
