"""The provenance-annotated labelled transition system.  One engine derives
transitions under two rule sets: the provenance rules, and the legacy
In-Old / Out-Old / Com-Old rules used for conservativity experiments.

Rule-by-rule summary of the provenance rules.  The label subject of an
input or output is a *partner* channel: one prefix may have many, since
connectivity need not be symmetric or transitive.  Inside the engine a
premise keeps all of them, as one set, and each rule filters that set; a
subject is picked only where a rule needs one, by Com and at the root.
This is the symbolic treatment of the subject (Hennessy and Lin,
"Symbolic bisimulations", 1995), and it derives one premise per prefix
instead of one per partner:

* In/Out fire at prefixes; the label subjects are the partner channels
  that the instance's channel enumerators give, the provenance is the own
  prefix.
* Scope and Open drop the subjects that mention the restricted name, and
  then apply by the object or pattern: Scope where the name is not in it,
  Open where it is in an output's object.  A premise left with no subject,
  or with the name in an input's pattern, is dropped.
* Par shifts the sibling frame into the environment.  It appends the
  sibling's binders to a left premise's outer provenance binders and
  prepends them to a right premise's; Scope and Open prepend the restricted
  name, and a prefix starts with none.  So, by induction, a premise's outer
  binders are always the binders of the opened frame of the level it has
  reached, and the engine writes them once, at the root (``_derive``).
  Its conclusion keeps the subjects that mention no sibling binder, and
  is dropped where no subject is left or where the object or pattern
  mentions one.  Frames are opened once per query and handed down: the
  opened frame of a process (``process.opened_frame``) holds those of its
  Par children and restriction bodies, so a Par reads its children's
  frames off the tree, and a Res that an enclosing opening covers reuses
  that opening's binder (the first of its binders) and renamed body
  instead of minting again.  Only what no enclosing opening covers is
  opened where it is met: the query's root, a Case branch and each
  replication unfolding.
* Scope, Open and Par narrow the subjects alike (``_narrow``): the Name
  subjects go by one set difference, and only the subjects left that are
  not Names have their support read.  No subject is left that
  mentions a narrowed name, so the rest of the rule reads only the object
  or pattern (``mentions``), never the whole label.
* Com fires once per pair of an output and an input premise, when each
  premise's provenance term is among the other's subjects: that picks the
  subject of each.  The term is read as it is, for its outer binders are
  already the opened frame binders; one that mentions an inner binder
  meets no subject.  It joins premises that Par has already derived, so
  every process is derived once, and the receiving premise has passed
  Scope's and Par's freshness checks like any premise.
* At the root each premise gives one transition per subject that is
  left: a public ``OutLabel`` or ``InLabel`` has exactly one subject.
* Case and Rep open the frame of a branch or unfolding, whose binders are
  then its premises' outer binders, and demote them to the front of the
  provenance's inner sequence (``_demoted``).

The legacy rules (``legacy_transitions``) share every rule but three: In-Old
draws its label subjects from ``out_channels`` in the printed orientation
(``in_channels`` when reoriented); Com-Old ignores provenances and instead
fires once per pair of premises when the environment composed with both
frames entails that some subject of the sender connects to some subject
of the receiver; and their results drop the provenance, which the engine
computes all the same.  The private ``_Rules`` value that carries these
differences is threaded through the derivation.

Every binder is opened to a scratch atom of the query's one supply
(``nominal.Fresh`` over the environment, the source and the message basis),
fresh for everything in scope and for every other atom opened, so opening
needs no freshness check.  Inputs are late (Milner, Parrow & Walker, 1992):
an input premise opens its pattern variables to such atoms, free in its
target, and Com instantiates them by matching the pattern against the
sender's message; an input still open at the root receives every message of
the instance's message basis.

All results are alpha-canonicalised and deduplicated, so scratch atoms
never leak identity and the enumeration is reproducible.  Every transition,
with a provenance or erased, is walked in one order, in which set elements
that tie are compared too: environment, source, then ``_canon_tail``'s
label, target and provenance.  The results of one query share their
environment and source, so ``transitions`` and ``legacy_transitions`` walk
``(psi, proc)`` once and continue a fork of that walk for each raw triple:
every result equals ``canonical`` of its whole transition.  A query that
derives nothing canonicalises nothing.  The provenance comes last, so the
first four fields of a canonical ``Transition`` are a canonical
``ErasedTransition``, and ``erase_provenance`` is a projection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .nominal import (_canon, _CanonState, _Tied, canonical, Fresh, mint_many, Name,
                      names_of, rename, support)
from .params import CalculusInstance, Subst
from .process import (Assert, Bang, Case, Input, Nil, Output, Par, Process,
                      Res, check_well_formed, opened_frame, res, subst_process)

# ---------------------------------------------------------------------------
# Labels and provenances


@dataclass(frozen=True)
class OutLabel:
    subject: object
    extruded: tuple  # tuple[Name, ...], bind into the object (and the target)
    obj: object

    _binders = ("extruded",)


@dataclass(frozen=True)
class InLabel:
    subject: object
    obj: object


@dataclass(frozen=True)
class _Out:
    """The label of an output premise: an ``OutLabel`` on each of
    ``subjects``, the partner channels that no rule has ruled out yet."""

    subjects: frozenset
    extruded: tuple  # tuple[Name, ...], bind into the object (and the target)
    obj: object

    def narrowed(self, subjects):
        return _Out(subjects, self.extruded, self.obj)

    def mentions(self):
        """The free names of the label outside its subjects."""
        return support(self.obj).difference(self.extruded)


@dataclass(frozen=True)
class _LateIn:
    """The label of an input premise on each of ``subjects`` whose pattern
    variables are still open: it receives ``pattern`` under any
    instantiation of ``variables``, which are free in the premise's
    target."""

    subjects: frozenset
    variables: tuple  # tuple[Name, ...], bind into the pattern
    pattern: object

    def narrowed(self, subjects):
        return _LateIn(subjects, self.variables, self.pattern)

    def mentions(self):
        """The free names of the label outside its subjects."""
        return support(self.pattern).difference(self.variables)


@dataclass(frozen=True)
class TauLabel:
    def mentions(self):
        """Tau mentions no name (see ``_Out.mentions``)."""
        return frozenset()


TAU = TauLabel()


def bn(label):
    return label.extruded if isinstance(label, OutLabel) else ()


@dataclass(frozen=True)
class Bot:
    """The absent provenance (tau transitions)."""


BOT = Bot()


@dataclass(frozen=True)
class Prov:
    """(nu outer; inner) term -- outer binders mirror the frame binders,
    inner binders come from case and replication."""

    outer: tuple
    inner: tuple
    term: object

    _binders = ("outer", "inner")


# ---------------------------------------------------------------------------
# Transitions


# the number of replication unfoldings allowed per derivation path
DEFAULT_FUEL = 2


class _Walks:
    """The ``_support`` and ``_canon`` that ``Transition`` and
    ``ErasedTransition`` share: the extruded names of the label bind in a
    sibling field, the target, which ``nominal``'s one binder rule cannot
    express."""

    def _support(self):
        return (names_of(self.env, self.source, self.label, self.prov)
                | (support(self.target) - frozenset(bn(self.label))))

    def _canon(self, env, st):
        return _canon_tail(_canon(self.env, env, st), _canon(self.source, env, st),
                           self.label, self.target, self.prov, env, st)


@dataclass(frozen=True)
class Transition(_Walks):
    env: object
    source: Process
    label: object
    prov: object
    target: Process

    _order = ("env", "source", "label", "target", "prov")  # as ``_canon_tail`` walks them

    def __post_init__(self):
        is_tau = isinstance(self.label, TauLabel)
        if is_tau != isinstance(self.prov, Bot):
            raise ValueError("provenance is Bot exactly on tau transitions")


@dataclass(frozen=True)
class ErasedTransition(_Walks):
    """A transition with the provenance projected away."""

    env: object
    source: Process
    label: object
    target: Process

    prov = None  # not a field: the provenance is projected away


def _transition(env, source, label, target, prov):
    """A ``Transition``, or an ``ErasedTransition`` where ``prov`` is None."""
    if prov is None:
        return ErasedTransition(env, source, label, target)
    return Transition(env, source, label, prov, target)


def _canon_tail(env_c, src_c, label, target, prov, env, st):
    """The transition of the canonical environment and source ``env_c`` and
    ``src_c``, whose walk ``st`` continues: the label, the target under an
    ``OutLabel``'s extruded binders, then the provenance, where there is
    one, under ``env`` alone.  So the first four fields of a canonical
    ``Transition`` are a canonical ``ErasedTransition``."""
    lab_c = _canon(label, env, st)
    inner = env
    if isinstance(label, OutLabel):
        inner = dict(env)
        inner.update(zip(label.extruded, lab_c.extruded))
    tgt_c = _canon(target, inner, st)
    return _transition(env_c, src_c, lab_c, tgt_c,
                       None if prov is None else _canon(prov, env, st))


def erase_provenance(transitions) -> frozenset:
    """Project provenances away, deduplicating up to alpha.  The input must
    be canonical, as ``transitions`` returns it: then each projection is a
    canonical ``ErasedTransition`` already."""
    return frozenset(ErasedTransition(t.env, t.source, t.label, t.target)
                     for t in transitions)


def _canon_results(psi, proc, raw, erased):
    """The canonical ``Transition``s, or ``ErasedTransition``s where
    ``erased``, of a query's raw (label, provenance, target) triples.  The
    environment and source are walked once, and each result continues a
    fork of that walk.  A result whose walk meets a tie is canonicalised
    whole, by the search, for the choice there may depend on the rest of
    the result."""
    st = _CanonState()
    try:
        head = _canon(psi, {}, st), _canon(proc, {}, st)
    except _Tied:
        head = None
    out = set()
    for lab, pi, tgt in raw:
        pi = None if erased else pi
        try:
            if head is None:
                raise _Tied  # every result is searched whole
            out.add(_canon_tail(*head, lab, tgt, pi, {}, st.fork()))
        except _Tied:
            out.add(canonical(_transition(psi, proc, lab, tgt, pi)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# The engine


@dataclass(frozen=True)
class _Rules:
    """A rule set: the name of the channel enumerator that gives an input
    prefix its label subjects, and whether Com is Com-Old (see the module
    docstring)."""

    in_subjects: str
    legacy: bool


_PROVENANCE = _Rules("in_channels", legacy=False)
_LEGACY_PRINTED = _Rules("out_channels", legacy=True)
_LEGACY_REORIENTED = _Rules("in_channels", legacy=True)


def transitions(inst: CalculusInstance, psi, proc: Process, fuel=DEFAULT_FUEL) -> frozenset:
    """Every transition derivable from the rules, with at most
    ``fuel`` replication unfoldings per derivation path."""
    return _query(inst, _PROVENANCE, psi, proc, fuel)


def legacy_transitions(inst: CalculusInstance, psi, proc: Process,
                       fuel=DEFAULT_FUEL, reorient_in=False) -> frozenset:
    """The original provenance-free semantics (In-Old / Out-Old / Com-Old).
    ``reorient_in`` flips the channel judgement in the input rule from the
    printed orientation (prefix on the left) to the consistent one (prefix
    on the right)."""
    return _query(inst, _LEGACY_REORIENTED if reorient_in else _LEGACY_PRINTED,
                  psi, proc, fuel)


def _query(inst, rules, psi, proc, fuel):
    """The canonical results of one query under ``rules``: ``Transition``s,
    or ``ErasedTransition``s under the legacy rules.  A query that derives
    nothing canonicalises nothing."""
    check_well_formed(proc)
    raw = _derive(inst, rules, psi, proc, fuel)
    return _canon_results(psi, proc, raw, erased=rules.legacy) if raw else frozenset()


def _derive(inst, rules, psi, proc, fuel):
    """Raw (label, provenance, target) triples of ``proc`` under ``psi``.
    Here each premise picks its subjects: it gives one ``OutLabel`` or
    ``InLabel`` per subject, and an input still open at the root receives
    every message of the basis.  Its provenance gets its outer binders,
    which are the root frame's (see ``_step``).  The caller checks that
    ``proc`` is well formed."""
    msgs = inst.message_basis(names_of(psi, proc))
    fresh = Fresh(psi, proc, msgs)
    frame = opened_frame(inst, proc, fresh)
    out = []
    for lab, pi, tgt in _step(inst, rules, psi, proc, frame, fuel, fresh):
        if isinstance(lab, TauLabel):
            out.append((lab, pi, tgt))
            continue
        pi = Prov(frame.binders, pi.inner, pi.term)
        if isinstance(lab, _Out):
            out.extend((OutLabel(k, lab.extruded, lab.obj), pi, tgt) for k in lab.subjects)
        else:
            received = []
            for ms in itertools.product(msgs, repeat=len(lab.variables)):
                sigma = Subst.of(lab.variables, ms)
                received.append((inst.subst_term(lab.pattern, sigma),
                                 subst_process(inst, tgt, sigma)))
            out.extend((InLabel(k, obj), pi, t) for k in lab.subjects for obj, t in received)
    return out


def _step(inst, rules, env, p, frame, budget, fresh):
    """The premises of one process: raw (label, provenance, target)
    triples.  A prefix gives at most one premise, whose label (``_Out``,
    or ``_LateIn`` for an input, which is late) holds every subject the
    enumerators give; Scope, Open and Par narrow that set, and only Com
    (``_coms``) and the root (``_derive``) pick a subject from it.
    ``frame`` is the opened frame of ``p`` (``opened_frame``); ``fresh`` is
    the query's supply, which opened it.  A premise's provenance leaves out
    its outer binders, for they are ``frame.binders`` (see the module
    docstring): no rule here writes them."""
    if isinstance(p, (Nil, Assert)):
        return []

    if isinstance(p, Output):
        subjects = inst.out_channels(env, p.channel)
        if not subjects:
            return []
        return [(_Out(subjects, (), p.message), Prov((), (), p.channel), p.cont)]

    if isinstance(p, Input):
        variables, pattern, cont = p.variables, p.pattern, p.cont
        if variables:
            # opened fresh for every atom in scope, so the target may hold
            # them free until Com or the root instantiates them
            opened = mint_many(fresh, len(variables), "x")
            m = dict(zip(variables, opened))
            variables, pattern, cont = opened, rename(m, pattern), rename(m, cont)
        subjects = getattr(inst, rules.in_subjects)(env, p.channel)
        if not subjects:
            return []
        return [(_LateIn(subjects, variables, pattern), Prov((), (), p.channel), cont)]

    if isinstance(p, Case):
        return [t for phi, q in p.branches if inst.entails(env, phi)
                for t in _demoted(inst, rules, env, q, budget, fresh)]

    if isinstance(p, Res):
        name, (body_frame,) = frame.binders[0], frame.parts
        bound = frozenset((name,))
        out = []
        for lab, pi, tgt in _step(inst, rules, env, frame.body, body_frame, budget,
                                  fresh):
            lab = _narrow(lab, bound)
            if lab is None:
                continue  # the name escapes through every subject
            if name not in lab.mentions():
                out.append((lab, pi, Res(name, tgt)))
            elif isinstance(lab, _Out):
                # the name is in the object
                out.append((_Out(lab.subjects, (name,) + lab.extruded, lab.obj), pi, tgt))
            # otherwise the name is in an input's pattern: no rule applies
        return out

    if isinstance(p, Bang):
        if budget <= 0:
            return []
        return _demoted(inst, rules, env, Par(p.body, p), budget - 1, fresh)

    if isinstance(p, Par):
        left, right = p.left, p.right
        f_l, f_r = frame.parts
        env_l = inst.compose(f_r.assertion, env)
        env_r = inst.compose(f_l.assertion, env)
        left_trans = _step(inst, rules, env_l, left, f_l, budget, fresh)
        right_trans = _step(inst, rules, env_r, right, f_r, budget, fresh)

        # the opened sibling binders must be fresh for the conclusion label:
        # it keeps the subjects that mention none of them, and a premise
        # whose object or pattern mentions one feeds Com only
        out = []
        b_l, b_r = frozenset(f_l.binders), frozenset(f_r.binders)
        for lab, pi, tgt in left_trans:
            lab = _narrow(lab, b_r)
            if lab is not None and b_r.isdisjoint(lab.mentions()):
                out.append((lab, pi, Par(tgt, right)))
        for lab, pi, tgt in right_trans:
            lab = _narrow(lab, b_l)
            if lab is not None and b_l.isdisjoint(lab.mentions()):
                out.append((lab, pi, Par(left, tgt)))

        three_way = (inst.compose(env, inst.compose(f_l.assertion, f_r.assertion))
                     if rules.legacy else None)
        out.extend(_coms(inst, rules, three_way, left_trans, right_trans, swapped=False))
        out.extend(_coms(inst, rules, three_way, right_trans, left_trans, swapped=True))
        return out

    raise TypeError(f"not a process: {p!r}")


def _demoted(inst, rules, env, q, budget, fresh):
    """The premises of a Case branch or replication unfolding ``q``, which
    no enclosing opening covers: its frame is opened here, and its frame
    binders, the premises' outer binders (see ``_step``), are demoted in
    front of each provenance's inner sequence."""
    frame = opened_frame(inst, q, fresh)
    premises = _step(inst, rules, env, q, frame, budget, fresh)
    if not frame.binders:
        return premises
    return [(lab, pi if isinstance(pi, Bot) else Prov((), frame.binders + pi.inner, pi.term),
             tgt) for lab, pi, tgt in premises]


def _coms(inst, rules, three_way, sender_trans, receiver_trans, swapped):
    """Com instances joining the sender's output premises ``sender_trans``
    with the receiver's input premises ``receiver_trans``.  Each pair of
    premises fires at most once per match: under the provenance rules it
    picks as the sender's subject the receiver's provenance term, and the
    other way round, and under Com-Old it needs some pair of subjects
    connected.  The receiver's target receives the match of its pattern
    against the sent message.  ``three_way`` is the assertion Com-Old
    checks connectivity under (None for the provenance rules)."""
    outs = [t for t in sender_trans if isinstance(t[0], _Out)]
    ins = [t for t in receiver_trans if isinstance(t[0], _LateIn)]
    if not outs or not ins:
        return []
    # the receivers' provenance terms, read once per join (Com-Old reads none)
    terms = [None if rules.legacy else _open_prov(pi) for _, pi, _ in ins]
    out = []
    for lab, pi, s_tgt in outs:
        term = None if rules.legacy else _open_prov(pi)
        for (lab2, _, r_tgt), term2 in zip(ins, terms):
            if rules.legacy:
                # any pair of the two premises' subjects may connect
                if not any(inst.entails(three_way, inst.conn(k, k2))
                           for k in lab.subjects for k2 in lab2.subjects):
                    continue
            # None, a term that mentions an inner binder, is no subject
            elif term not in lab2.subjects or term2 not in lab.subjects:
                continue
            for ts in inst.match_pattern(lab2.variables, lab2.pattern, lab.obj):
                received = subst_process(inst, r_tgt, Subst.of(lab2.variables, ts))
                pair = Par(received, s_tgt) if swapped else Par(s_tgt, received)
                out.append((TAU, BOT, res(lab.extruded, pair)))
    return out


def _narrow(lab, names):
    """``lab`` with only the subjects that mention none of ``names``, or
    None where no subject is left.  A Name subject goes by one set
    difference; then only the subjects left that are not Names have their
    support read.  A label with no subjects, tau, or narrowed by no name,
    is kept as it is."""
    if isinstance(lab, TauLabel) or not names:
        return lab
    subjects = lab.subjects - names
    gone = [k for k in subjects if not isinstance(k, Name) and not names.isdisjoint(support(k))]
    if gone:
        subjects = subjects.difference(gone)
    if len(subjects) == len(lab.subjects):
        return lab
    return lab.narrowed(subjects) if subjects else None


def _open_prov(pi):
    """The term of ``pi``, the provenance of an output or input premise,
    as Com reads it: its outer binders are already the opened frame binders
    of the premise's level (see ``_step``), so nothing is renamed.  None
    where the term mentions an inner binder, which, opened fresh, could
    equal no label subject."""
    return pi.term if support(pi.term).isdisjoint(pi.inner) else None
