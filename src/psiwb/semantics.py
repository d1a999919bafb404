"""The provenance-annotated labelled transition system.  One engine derives
transitions under two rule sets: the provenance rules, and the legacy
In-Old / Out-Old / Com-Old rules used for conservativity experiments.

Rule-by-rule summary of the provenance rules:

* In/Out fire at prefixes; the label subject is the *partner* prefix drawn
  from the instance's channel enumerators, the provenance is the own prefix.
* Par shifts the sibling frame into the environment and bookkeeps the
  sibling's binders into the provenance (appended on the left premise,
  prepended on the right one, so provenance binders track frame binders in
  order).  Frames are opened once per query and handed down: the opened
  frame of a process (``process.open_frame``) holds those of its Par
  children and restriction bodies, so a Par reads its children's frames off
  the tree, and a Res that an enclosing opening covers reuses that opening's
  binder and renamed body instead of minting again.  Only what no enclosing
  opening covers is opened where it is met: the query's root, a Case branch
  and each replication unfolding.
* Com fires when the label subject of each premise equals the other
  premise's provenance term, with frame binders opened consistently.  The
  receiving premise is derived by the same walk as every other transition,
  handed the receiver's opened frame and restricted to inputs of the
  sender's message from the sender's provenance term; so it obeys Scope's
  and Par's freshness checks like any premise.
* Case and Rep demote frame binders to the provenance's inner sequence;
  Scope and Open wrap the provenance.

The legacy rules (``legacy_transitions``) share every rule but three: In-Old
draws its label subjects from ``out_channels`` in the printed orientation
(``in_channels`` when reoriented); Com-Old ignores provenances and instead
requires the environment composed with both frames to entail that the
sender's label subject connects to the receiver's, whose receiving premise
may then have any label subject In-Old gives; and their results drop
the provenance, which the engine computes all the same.  The private
``_Rules`` value that carries these differences is threaded through the
derivation.

Every binder is opened to a deterministic scratch atom, minted against an
avoid set that includes everything in scope, so opening needs no freshness
check.  Input objects are enumerated over the instance's message basis,
except in the receiving premise of Com, which receives exactly the sender's
message.

All results are alpha-canonicalised and deduplicated, which also makes the
enumeration reproducible: scratch atoms never leak identity.

Every result of one query shares its environment and source, which come
first in the canonical traversal.  So ``transitions`` and
``legacy_transitions`` canonicalise ``(psi, proc)`` once and fork the
canonicalisation state for each raw (label, provenance, target) triple; the
fork replays exactly the numbering of canonicalising the whole transition,
so every result equals ``canonical(Transition(psi, proc, ...))``.
``erase_provenance`` does the same for each group of its input that shares
an environment and source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .nominal import (_canon, _CanonState, atoms, mint_many, names_of, rename,
                      sort_key, support)
from .params import CalculusInstance, Subst
from .process import (Assert, Bang, Case, Input, Nil, Output, Par, Process,
                      Res, check_well_formed, open_frame, res, subst_process)

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
class TauLabel:
    pass


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


def _canon_step(label, prov, target, env, st):
    """Canonicalise (label, provenance, target) in that order under ``st``.
    An OutLabel's extruded binders scope over its object and the target, not
    over the provenance.  ``prov`` is None where there is no provenance."""
    label_c = _canon(label, env, st)
    if prov is not None:
        prov = _canon(prov, env, st)
    if isinstance(label, OutLabel):
        env = dict(env)
        env.update(zip(label.extruded, label_c.extruded))
    return label_c, prov, _canon(target, env, st)


def _canon_head(psi, proc):
    """The canonical environment and source of a query, and the state to
    fork for each of its results."""
    st = _CanonState(frozenset())
    return _canon(psi, {}, st), _canon(proc, {}, st), st


def prov_pushdown(pi):
    """Move all outer binders to the inner sequence."""
    if isinstance(pi, Bot):
        return pi
    return Prov((), pi.outer + pi.inner, pi.term)


def prov_append(pi, zs):
    """Insert names at the end of the outer binder sequence."""
    if isinstance(pi, Bot) or not zs:
        return pi
    return Prov(pi.outer + tuple(zs), pi.inner, pi.term)


def prov_scope(names, pi):
    """Prepend restriction binders to the outer binder sequence."""
    if isinstance(pi, Bot) or not names:
        return pi
    return Prov(tuple(names) + pi.outer, pi.inner, pi.term)


# ---------------------------------------------------------------------------
# Transitions


# the number of replication unfoldings allowed per derivation path
DEFAULT_FUEL = 2


@dataclass(frozen=True)
class Transition:
    env: object
    source: Process
    label: object
    prov: object
    target: Process

    def __post_init__(self):
        is_tau = isinstance(self.label, TauLabel)
        if is_tau != isinstance(self.prov, Bot):
            raise ValueError("provenance is Bot exactly on tau transitions")

    def _support(self):
        return (names_of(self.env, self.source, self.label, self.prov)
                | (support(self.target) - frozenset(bn(self.label))))

    def _canon(self, env, st):
        env_c = _canon(self.env, env, st)
        src_c = _canon(self.source, env, st)
        return Transition(env_c, src_c,
                          *_canon_step(self.label, self.prov, self.target, env, st))


@dataclass(frozen=True)
class ErasedTransition:
    """A transition with the provenance projected away."""

    env: object
    source: Process
    label: object
    target: Process

    def _support(self):
        return (names_of(self.env, self.source, self.label)
                | (support(self.target) - frozenset(bn(self.label))))

    def _canon(self, env, st):
        env_c = _canon(self.env, env, st)
        src_c = _canon(self.source, env, st)
        lab_c, _, tgt_c = _canon_step(self.label, None, self.target, env, st)
        return ErasedTransition(env_c, src_c, lab_c, tgt_c)


@dataclass(frozen=True)
class Action:
    """A label/target pair, canonicalised jointly for simulation matching."""

    label: object
    target: Process

    def _support(self):
        return support(self.label) | (support(self.target) - frozenset(bn(self.label)))

    def _canon(self, env, st):
        lab_c, _, tgt_c = _canon_step(self.label, None, self.target, env, st)
        return Action(lab_c, tgt_c)


def erase_provenance(transitions) -> frozenset:
    """Project provenances away, deduplicating up to alpha."""
    groups = {}
    for t in transitions:
        groups.setdefault((t.env, t.source), []).append((t.label, t.target))
    out = set()
    for (psi, proc), steps in groups.items():
        out |= _erased(psi, proc, steps)
    return frozenset(out)


def _erased(psi, proc, steps):
    """Canonical erased transitions of ``proc`` under ``psi`` from raw
    (label, target) pairs."""
    env_c, src_c, st = _canon_head(psi, proc)
    out = set()
    for lab, tgt in steps:
        lab_c, _, tgt_c = _canon_step(lab, None, tgt, {}, st.fork())
        out.add(ErasedTransition(env_c, src_c, lab_c, tgt_c))
    return out


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


def transitions(inst: CalculusInstance, psi, proc: Process, fuel=DEFAULT_FUEL,
                avoid=()) -> frozenset:
    """Every transition derivable from the rules, with at most
    ``fuel`` replication unfoldings per derivation path.
    ``avoid`` adds extra names the freshening must steer clear of (e.g. a
    comparison partner)."""
    raw = _derive(inst, _PROVENANCE, psi, proc, fuel, avoid)
    env_c, src_c, st = _canon_head(psi, proc)
    return frozenset(Transition(env_c, src_c, *_canon_step(lab, pi, tgt, {}, st.fork()))
                     for lab, pi, tgt in raw)


def legacy_transitions(inst: CalculusInstance, psi, proc: Process,
                       fuel=DEFAULT_FUEL, avoid=(), reorient_in=False) -> frozenset:
    """The original provenance-free semantics (In-Old / Out-Old / Com-Old).
    ``reorient_in`` flips the channel judgement in the input rule from the
    printed orientation (prefix on the left) to the consistent one (prefix
    on the right)."""
    rules = _LEGACY_REORIENTED if reorient_in else _LEGACY_PRINTED
    raw = _derive(inst, rules, psi, proc, fuel, avoid)
    return frozenset(_erased(psi, proc, [(lab, tgt) for lab, _, tgt in raw]))


def _derive(inst, rules, psi, proc, fuel, avoid):
    """Raw (label, provenance, target) triples of ``proc`` under ``psi``."""
    check_well_formed(proc)
    ctx0 = names_of(psi, proc) | frozenset(avoid)
    msgs = inst.message_basis(ctx0)
    # the source's bound atoms too, or opening a restriction could capture one
    frame, avoid0 = open_frame(inst, proc, ctx0 | atoms(proc) | names_of(msgs))
    return _step(inst, rules, psi, proc, frame, fuel, avoid0, msgs)


def _step(inst, rules, env, p, frame, budget, avoid, msgs, recv=None):
    """Raw (label, provenance, target) triples for one process.  ``frame``
    is the opened frame of ``p`` (``open_frame``); ``avoid`` already holds
    every atom it opened.  ``recv`` is None, or (subject, message) for the
    receiving premise of Com: then only inputs of exactly ``message`` are
    derived, from the sending prefix ``subject`` (with every label subject
    the rule set gives where ``subject`` is None), and Par makes no Com."""
    if isinstance(p, (Nil, Assert)):
        return []

    if isinstance(p, Output):
        if recv is not None:
            return []
        out = []
        for k in sorted(inst.out_channels(env, p.channel), key=sort_key):
            out.append((OutLabel(k, (), p.message), Prov((), (), p.channel), p.cont))
        return out

    if isinstance(p, Input):
        subject, message = recv or (None, None)
        if subject is None:
            subjects = sorted(getattr(inst, rules.in_subjects)(env, p.channel),
                              key=sort_key)
        elif inst.entails(env, inst.conn(subject, p.channel)):
            subjects = (subject,)
        else:
            return []
        if recv is None:
            sigmas = [Subst.of(p.variables, ls)
                      for ls in itertools.product(msgs, repeat=len(p.variables))]
            received = [(sigma, inst.subst_term(p.pattern, sigma)) for sigma in sigmas]
        else:
            received = [(Subst.of(p.variables, ts), message)
                        for ts in inst.match_pattern(p.variables, p.pattern, message)]
        out = []
        for sigma, msg in received:
            tgt = subst_process(inst, p.cont, sigma)
            out.extend((InLabel(k, msg), Prov((), (), p.channel), tgt) for k in subjects)
        return out

    if isinstance(p, Case):
        out = []
        for phi, q in p.branches:
            if inst.entails(env, phi):
                q_frame, q_avoid = open_frame(inst, q, avoid)
                for lab, pi, tgt in _step(inst, rules, env, q, q_frame, budget,
                                          q_avoid, msgs, recv):
                    out.append((lab, prov_pushdown(pi), tgt))
        return out

    if isinstance(p, Res):
        fresh, (body_frame,) = frame.name, frame.parts
        out = []
        for lab, pi, tgt in _step(inst, rules, env, frame.body, body_frame, budget,
                                  avoid, msgs, recv):
            if fresh not in support(lab):
                out.append((lab, prov_scope((fresh,), pi), Res(fresh, tgt)))
            elif (isinstance(lab, OutLabel)
                  and fresh not in support(lab.subject)
                  and fresh in support(lab.obj) - frozenset(lab.extruded)):
                opened = OutLabel(lab.subject, (fresh,) + lab.extruded, lab.obj)
                out.append((opened, prov_scope((fresh,), pi), tgt))
            # otherwise the name escapes through the subject: no rule applies
        return out

    if isinstance(p, Bang):
        if budget <= 0:
            return []
        unfolded = Par(p.body, p)
        u_frame, u_avoid = open_frame(inst, unfolded, avoid)
        out = []
        for lab, pi, tgt in _step(inst, rules, env, unfolded, u_frame, budget - 1,
                                  u_avoid, msgs, recv):
            out.append((lab, prov_pushdown(pi), tgt))
        return out

    if isinstance(p, Par):
        left, right = p.left, p.right
        f_l, f_r = frame.parts
        env_l = inst.compose(f_r.assertion, env)
        env_r = inst.compose(f_l.assertion, env)
        left_trans = _step(inst, rules, env_l, left, f_l, budget, avoid, msgs, recv)
        right_trans = _step(inst, rules, env_r, right, f_r, budget, avoid, msgs, recv)

        # the opened sibling binders must be fresh for the conclusion label:
        # premise transitions mentioning them feed Com only
        out = []
        b_l, b_r = f_l.binders, f_r.binders
        b_r_set, b_l_set = frozenset(b_r), frozenset(b_l)
        for lab, pi, tgt in left_trans:
            if support(lab) & b_r_set:
                continue
            out.append((lab, prov_append(pi, b_r), Par(tgt, right)))
        for lab, pi, tgt in right_trans:
            if support(lab) & b_l_set:
                continue
            out.append((lab, prov_scope(b_l, pi), Par(left, tgt)))
        if recv is not None:
            return out

        three_way = (inst.compose(env, inst.compose(f_l.assertion, f_r.assertion))
                     if rules.legacy else None)
        out.extend(_coms(inst, rules, three_way, right, left_trans, f_l, f_r, env_r,
                         budget, avoid, msgs, swapped=False))
        out.extend(_coms(inst, rules, three_way, left, right_trans, f_r, f_l, env_l,
                         budget, avoid, msgs, swapped=True))
        return out

    raise TypeError(f"not a process: {p!r}")


def _coms(inst, rules, three_way, receiver, sender_trans, f_send, f_recv, env_recv,
          budget, avoid, msgs, swapped):
    """Com instances with the sender's premises ``sender_trans`` outputting
    and ``receiver`` inputting; ``f_send`` and ``f_recv`` are their opened
    frames.  ``three_way`` is the assertion Com-Old checks connectivity
    under (None for the provenance rules)."""
    out = []
    for lab, pi, s_tgt in sender_trans:
        if not isinstance(lab, OutLabel):
            continue
        avoid2 = avoid | names_of(lab, s_tgt)
        if rules.legacy:
            k_open = None  # the receiver may use any of its label subjects
        else:
            k_open, avoid2 = _open_prov(pi, f_send.binders, avoid2)
            if k_open is None:
                continue
        for lab2, pi2, r_tgt in _step(inst, rules, env_recv, receiver, f_recv, budget,
                                      avoid2, msgs, (k_open, lab.obj)):
            if rules.legacy:
                if not inst.entails(three_way, inst.conn(lab.subject, lab2.subject)):
                    continue
            else:
                m_open, _ = _open_prov(pi2, f_recv.binders, avoid2 | names_of(lab2, r_tgt))
                if m_open is None or m_open != lab.subject:
                    continue
            pair = Par(r_tgt, s_tgt) if swapped else Par(s_tgt, r_tgt)
            out.append((TAU, BOT, res(lab.extruded, pair)))
    return out


def _open_prov(pi, frame_binders, avoid):
    """The provenance term with outer binders aligned to the opened frame
    binders (positionally) and inner binders opened fresh."""
    if isinstance(pi, Bot) or len(pi.outer) != len(frame_binders):
        return None, avoid
    m = dict(zip(pi.outer, frame_binders))
    fresh, avoid = mint_many(avoid, len(pi.inner), "y")
    m.update(zip(pi.inner, fresh))
    return rename(m, pi.term), avoid

