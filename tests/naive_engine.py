"""A naive, independent derivation oracle for the labelled semantics.

Differences from the production engine, on purpose:

* no targeted input instantiation: Com joins two *standalone* enumerations,
  with the receiver's message basis extended by the sender's payloads;
* direct rule application with no sharing of premise enumerations;
* no ordering discipline; duplicates removed only by final canonicalisation.

Only used to cross-check the engine on small terms.
"""

import itertools

from psiwb.nominal import (Fresh, atoms, canonical, mint, mint_many, names_of, rename,
                           support)
from psiwb.params import Subst
from psiwb.process import (Assert, Bang, Case, Input, Nil, Output, Par, Res,
                           opened_frame, res, subst_process)
from psiwb.semantics import BOT, ErasedTransition, InLabel, OutLabel, Prov, TAU, Transition


def _frame(inst, p, avoid):
    """The frame of ``p`` with every binder opened to an atom fresh for
    ``avoid`` and ``p``: (binders, assertion, ``avoid`` extended with the
    binders)."""
    f = opened_frame(inst, p, Fresh(tuple(avoid), p))
    return f.binders, f.assertion, frozenset(avoid).union(f.binders)


def naive_transitions(inst, psi, proc, fuel):
    return frozenset(canonical(ErasedTransition(psi, proc, lab, tgt))
                     for lab, _prov, tgt in _raw(inst, psi, proc, fuel))


def naive_provenance_transitions(inst, psi, proc, fuel):
    """The transitions with their provenances, as the per-level rules of
    ``_derive`` build them: (outer, inner, term), or BOT on tau."""
    return frozenset(canonical(Transition(psi, proc, lab, BOT if m is BOT else Prov(o, i, m),
                                          tgt))
                     for lab, (o, i, m), tgt in _raw(inst, psi, proc, fuel))


def _raw(inst, psi, proc, fuel):
    ctx = names_of(psi, proc)
    base_msgs = inst.message_basis(ctx)
    # opening must also steer clear of the source's bound atoms
    return _derive(inst, psi, proc, fuel, ctx | atoms(proc) | names_of(base_msgs),
                   base_msgs)


def _derive(inst, env, p, budget, avoid, msgs):
    if isinstance(p, (Nil, Assert)):
        return []
    if isinstance(p, Output):
        return [(OutLabel(k, (), p.message), ((), (), p.channel), p.cont)
                for k in inst.out_channels(env, p.channel)]
    if isinstance(p, Input):
        out = []
        for k in inst.in_channels(env, p.channel):
            for ls in itertools.product(msgs, repeat=len(p.variables)):
                sig = Subst.of(p.variables, ls)
                out.append((InLabel(k, inst.subst_term(p.pattern, sig)),
                            ((), (), p.channel),
                            subst_process(inst, p.cont, sig)))
        return out
    if isinstance(p, Case):
        out = []
        for phi, q in p.branches:
            if inst.entails(env, phi):
                for lab, (o, i, m), tgt in _derive(inst, env, q, budget, avoid, msgs):
                    out.append((lab, ((), o + i, m), tgt))
        return out
    if isinstance(p, Res):
        fresh = mint(Fresh(tuple(avoid)), "nb")
        body = rename({p.name: fresh}, p.body)
        out = []
        for lab, (o, i, m), tgt in _derive(inst, env, body, budget,
                                           avoid | {fresh}, msgs):
            if fresh not in support(lab):
                out.append((lab, ((fresh,) + o, i, m), Res(fresh, tgt)))
            elif (isinstance(lab, OutLabel) and fresh not in support(lab.subject)
                  and fresh in support(lab.obj)):
                out.append((OutLabel(lab.subject, (fresh,) + lab.extruded, lab.obj),
                            ((fresh,) + o, i, m), tgt))
        return out
    if isinstance(p, Bang):
        if budget <= 0:
            return []
        return [(lab, ((), o + i, m), tgt)
                for lab, (o, i, m), tgt in _derive(inst, env, Par(p.body, p),
                                                   budget - 1, avoid, msgs)]
    if isinstance(p, Par):
        l, r = p.left, p.right
        b_r, psi_r, avoid = _frame(inst, r, avoid)
        b_l, psi_l, avoid = _frame(inst, l, avoid)
        # freshness side condition: the sibling's frame binders must not
        # occur in the conclusion's label
        lts = _derive(inst, inst.compose(psi_r, env), l, budget, avoid, msgs)
        out = [(lab, (o + b_r, i, m), Par(tgt, r)) for lab, (o, i, m), tgt in lts
               if not support(lab) & frozenset(b_r)]
        rts = _derive(inst, inst.compose(psi_l, env), r, budget, avoid, msgs)
        out += [(lab, (b_l + o, i, m), Par(l, tgt)) for lab, (o, i, m), tgt in rts
                if not support(lab) & frozenset(b_l)]
        out += _naive_com(inst, env, l, r, b_l, b_r, psi_l, psi_r, budget,
                          avoid, msgs, False)
        out += _naive_com(inst, env, r, l, b_r, b_l, psi_r, psi_l, budget,
                          avoid, msgs, True)
        return out
    raise TypeError(p)


def _naive_com(inst, env, sender, receiver, b_s, b_r, psi_s, psi_r, budget,
               avoid, msgs, swapped):
    outs = [t for t in _derive(inst, inst.compose(psi_r, env), sender, budget,
                               avoid, msgs)
            if isinstance(t[0], OutLabel)]
    results = []
    for lab, (o, i, m), s_tgt in outs:
        if len(o) != len(b_s):
            continue
        avoid2 = avoid | names_of(lab, s_tgt)
        temps = mint_many(Fresh(tuple(avoid2)), len(i), "t")
        avoid2 = avoid2 | frozenset(temps)
        k_open = rename(dict(list(zip(o, b_s)) + list(zip(i, temps))), m)
        # receiver gets the payload added to its message basis
        msgs2 = tuple(msgs) + (lab.obj,)
        ins = [t for t in _derive(inst, inst.compose(psi_s, env), receiver,
                                  budget, avoid2, msgs2)
               if isinstance(t[0], InLabel)]
        for lab2, (o2, i2, m2), r_tgt in ins:
            if lab2.obj != lab.obj or lab2.subject != k_open or len(o2) != len(b_r):
                continue
            temps2 = mint_many(Fresh(tuple(avoid2 | names_of(lab2, r_tgt))), len(i2), "t")
            m_open = rename(dict(list(zip(o2, b_r)) + list(zip(i2, temps2))), m2)
            if m_open != lab.subject:
                continue
            pair = Par(r_tgt, s_tgt) if swapped else Par(s_tgt, r_tgt)
            results.append((TAU, ((), (), BOT), res(lab.extruded, pair)))
    return results
