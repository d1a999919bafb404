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
  binder and renamed body instead of minting again.  The Com partner search
  is handed the receiver's tree.  Only what no enclosing opening covers is
  opened where it is met: the query's root, a Case branch and each
  replication unfolding.
* Com fires when the label subject of each premise equals the other
  premise's provenance term, with frame binders opened consistently.
* Case and Rep demote frame binders to the provenance's inner sequence;
  Scope and Open wrap the provenance.

The legacy rules (``legacy_transitions``) share every rule but three: In-Old
draws its label subjects from ``out_channels`` in the printed orientation
(``in_channels`` when reoriented); Com-Old ignores provenances and instead
requires the environment composed with both frames to entail that the
sender's label subject connects to the receiver's; and their results drop
the provenance, which the engine computes all the same.  The private
``_Rules`` value that carries these differences is threaded through the
derivation.

Freshness side conditions are discharged constructively: every binder is
opened to a deterministic scratch atom (minted against an avoid set that
includes everything in scope), never checked after the fact.  Standalone
input objects are enumerated over the instance's message basis; inside Com
the receiving premise is instantiated with the sender's actual message.

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

from .nominal import (_canon, _CanonState, canon_binders, map_atoms as _map,
                      mint_many, names_of, rename, sort_key, support)
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

    def _support(self):
        return (support(self.subject)
                | (support(self.obj) - frozenset(self.extruded)))

    def _map_atoms(self, f):
        return OutLabel(_map(f, self.subject), tuple(f(x) for x in self.extruded),
                        _map(f, self.obj))

    def _canon(self, env, st):
        return self._canon_scope(env, st)[0]

    def _canon_scope(self, env, st):
        """The canonical label and the environment, extended with the
        extruded binders, under which its object and target are read."""
        subj = _canon(self.subject, env, st)
        ext, env2 = canon_binders(self.extruded, env, st)
        return OutLabel(subj, ext, _canon(self.obj, env2, st)), env2


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

    def _support(self):
        return support(self.term) - frozenset(self.outer) - frozenset(self.inner)

    def _map_atoms(self, f):
        return Prov(tuple(f(x) for x in self.outer),
                    tuple(f(y) for y in self.inner), _map(f, self.term))

    def _canon(self, env, st):
        outer, env2 = canon_binders(self.outer, env, st)
        inner, env3 = canon_binders(self.inner, env2, st)
        return Prov(outer, inner, _canon(self.term, env3, st))


def _canon_step(label, prov, target, env, st):
    """Canonicalise (label, provenance, target) in that order under ``st``.
    An OutLabel's extruded binders scope over its object and the target, not
    over the provenance.  ``prov`` is None where there is no provenance."""
    if isinstance(label, OutLabel):
        label, env2 = label._canon_scope(env, st)
    else:
        label, env2 = _canon(label, env, st), env
    if prov is not None:
        prov = _canon(prov, env, st)
    return label, prov, _canon(target, env2, st)


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


def prov_scope(b, pi):
    """Prepend one restriction binder."""
    if isinstance(pi, Bot):
        return pi
    return Prov((b,) + pi.outer, pi.inner, pi.term)


def prov_scope_names(bs, pi):
    if isinstance(pi, Bot) or not bs:
        return pi
    return Prov(tuple(bs) + pi.outer, pi.inner, pi.term)


# ---------------------------------------------------------------------------
# Transitions


@dataclass(frozen=True)
class Fuel:
    """Bounds the number of replication unfoldings per derivation path."""

    rep_depth: int = 2


DEFAULT_FUEL = Fuel(2)


def as_fuel(fuel) -> Fuel:
    if isinstance(fuel, Fuel):
        return fuel
    return Fuel(int(fuel))


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

    def _map_atoms(self, f):
        return Transition(_map(f, self.env), _map(f, self.source),
                          _map(f, self.label), _map(f, self.prov),
                          _map(f, self.target))

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

    def _map_atoms(self, f):
        return ErasedTransition(_map(f, self.env), _map(f, self.source),
                                _map(f, self.label), _map(f, self.target))

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

    def _map_atoms(self, f):
        return Action(_map(f, self.label), _map(f, self.target))

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
    ``fuel.rep_depth`` replication unfoldings per derivation path.
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
    fuel = as_fuel(fuel)
    ctx0 = names_of(psi, proc) | frozenset(avoid)
    msgs = inst.message_basis(ctx0)
    frame, avoid0 = open_frame(inst, proc, ctx0 | names_of(msgs))
    return _step(inst, rules, psi, proc, frame, fuel.rep_depth, avoid0, msgs)


def _in_subjects(inst, rules, env, channel, avoid):
    return sorted(getattr(inst, rules.in_subjects)(env, channel, avoid), key=sort_key)


def _step(inst, rules, env, p, frame, budget, avoid, msgs):
    """Raw (label, provenance, target) triples for one process.  ``frame``
    is the opened frame of ``p`` (``open_frame``); ``avoid`` already holds
    every atom it opened."""
    if isinstance(p, (Nil, Assert)):
        return []

    if isinstance(p, Output):
        out = []
        for k in sorted(inst.out_channels(env, p.channel, avoid), key=sort_key):
            out.append((OutLabel(k, (), p.message), Prov((), (), p.channel), p.cont))
        return out

    if isinstance(p, Input):
        out = []
        for k in _in_subjects(inst, rules, env, p.channel, avoid):
            for ls in itertools.product(msgs, repeat=len(p.variables)):
                sigma = Subst.of(p.variables, ls)
                msg = inst.subst_term(p.pattern, sigma)
                tgt = subst_process(inst, p.cont, sigma)
                out.append((InLabel(k, msg), Prov((), (), p.channel), tgt))
        return out

    if isinstance(p, Case):
        out = []
        for phi, q in p.branches:
            if inst.entails(env, phi):
                q_frame, q_avoid = open_frame(inst, q, avoid)
                for lab, pi, tgt in _step(inst, rules, env, q, q_frame, budget,
                                          q_avoid, msgs):
                    out.append((lab, prov_pushdown(pi), tgt))
        return out

    if isinstance(p, Res):
        fresh, (body_frame,) = frame.name, frame.parts
        out = []
        for lab, pi, tgt in _step(inst, rules, env, frame.body, body_frame, budget,
                                  avoid, msgs):
            if fresh not in support(lab):
                out.append((lab, prov_scope(fresh, pi), Res(fresh, tgt)))
            elif (isinstance(lab, OutLabel)
                  and fresh not in support(lab.subject)
                  and fresh in support(lab.obj) - frozenset(lab.extruded)):
                opened = OutLabel(lab.subject, (fresh,) + lab.extruded, lab.obj)
                out.append((opened, prov_scope(fresh, pi), tgt))
            # otherwise the name escapes through the subject: no rule applies
        return out

    if isinstance(p, Bang):
        if budget <= 0:
            return []
        unfolded = Par(p.body, p)
        u_frame, u_avoid = open_frame(inst, unfolded, avoid)
        out = []
        for lab, pi, tgt in _step(inst, rules, env, unfolded, u_frame, budget - 1,
                                  u_avoid, msgs):
            out.append((lab, prov_pushdown(pi), tgt))
        return out

    if isinstance(p, Par):
        left, right = p.left, p.right
        f_l, f_r = frame.parts
        env_l = inst.compose(f_r.assertion, env)
        env_r = inst.compose(f_l.assertion, env)
        left_trans = _step(inst, rules, env_l, left, f_l, budget, avoid, msgs)
        right_trans = _step(inst, rules, env_r, right, f_r, budget, avoid, msgs)

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
            out.append((lab, prov_scope_names(b_l, pi), Par(left, tgt)))

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
        for lab2, pi2, r_tgt in _inputs_for(inst, rules, env_recv, receiver, f_recv,
                                            k_open, lab.obj, budget, avoid2, msgs):
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


def _inputs_for(inst, rules, env, p, frame, subject, message, budget, avoid, msgs):
    """Input transitions of ``p`` receiving exactly ``message`` from the
    sending prefix ``subject``, or, where ``subject`` is None, with every
    label subject the rule set gives.  ``frame`` is the opened frame of
    ``p``, as in ``_step``."""
    if isinstance(p, (Nil, Assert, Output)):
        return []

    if isinstance(p, Input):
        if subject is None:
            subjects = _in_subjects(inst, rules, env, p.channel, avoid)
        elif inst.entails(env, inst.conn(subject, p.channel)):
            subjects = (subject,)
        else:
            return []
        out = []
        for ts in inst.match_pattern(p.variables, p.pattern, message):
            tgt = subst_process(inst, p.cont, Subst.of(p.variables, ts))
            out.extend((InLabel(k, message), Prov((), (), p.channel), tgt)
                       for k in subjects)
        return out

    if isinstance(p, Case):
        out = []
        for phi, q in p.branches:
            if inst.entails(env, phi):
                q_frame, q_avoid = open_frame(inst, q, avoid)
                for lab, pi, tgt in _inputs_for(inst, rules, env, q, q_frame, subject,
                                                message, budget, q_avoid, msgs):
                    out.append((lab, prov_pushdown(pi), tgt))
        return out

    if isinstance(p, Res):
        fresh, (body_frame,) = frame.name, frame.parts
        return [(lab, prov_scope(fresh, pi), Res(fresh, tgt))
                for lab, pi, tgt in _inputs_for(inst, rules, env, frame.body, body_frame,
                                                subject, message, budget, avoid, msgs)]

    if isinstance(p, Bang):
        if budget <= 0:
            return []
        unfolded = Par(p.body, p)
        u_frame, u_avoid = open_frame(inst, unfolded, avoid)
        return [(lab, prov_pushdown(pi), tgt)
                for lab, pi, tgt in _inputs_for(inst, rules, env, unfolded, u_frame,
                                                subject, message, budget - 1,
                                                u_avoid, msgs)]

    if isinstance(p, Par):
        left, right = p.left, p.right
        f_l, f_r = frame.parts
        out = []
        for lab, pi, tgt in _inputs_for(inst, rules, inst.compose(f_r.assertion, env),
                                        left, f_l, subject, message, budget, avoid, msgs):
            out.append((lab, prov_append(pi, f_r.binders), Par(tgt, right)))
        for lab, pi, tgt in _inputs_for(inst, rules, inst.compose(f_l.assertion, env),
                                        right, f_r, subject, message, budget, avoid, msgs):
            out.append((lab, prov_scope_names(f_l.binders, pi), Par(left, tgt)))
        return out

    raise TypeError(f"not a process: {p!r}")
