"""Agent syntax, well-formedness, frames, substitution and hoisting.

Process constructors:

    Nil | Assert(psi) | Output(M, N, P) | Input(M, xs, N, P)
    Case(((phi, P), ...)) | Par(P, Q) | Res(x, P) | Bang(P)

Input binds its pattern variables into the pattern and the continuation;
Res binds its name into the body.  Each declares its binder fields in
``_binders`` (see ``nominal``).  Everything is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nominal import _keep, Fresh, Name, mint, mint_many, names_of, rename, support
from .params import CalculusInstance, Subst


class Process:
    """Marker base for agent syntax nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Nil(Process):
    pass


NIL = Nil()


@dataclass(frozen=True)
class Assert(Process):
    assertion: object


@dataclass(frozen=True)
class Output(Process):
    channel: object
    message: object
    cont: Process


@dataclass(frozen=True)
class Input(Process):
    channel: object
    variables: tuple  # tuple[Name, ...], bind into pattern and cont
    pattern: object
    cont: Process

    _binders = ("variables",)


@dataclass(frozen=True)
class Case(Process):
    branches: tuple  # tuple[(condition, Process), ...]


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process


@dataclass(frozen=True)
class Res(Process):
    name: Name
    body: Process

    _binders = ("name",)


@dataclass(frozen=True)
class Bang(Process):
    body: Process


def par(*procs) -> Process:
    """Left-associated parallel composition, dropping Nil units."""
    parts = [p for p in procs if not isinstance(p, Nil)]
    if not parts:
        return NIL
    out = parts[0]
    for p in parts[1:]:
        out = Par(out, p)
    return out


def res(names, body: Process) -> Process:
    for n in reversed(tuple(names)):
        body = Res(n, body)
    return body


# ---------------------------------------------------------------------------
# Well-formedness


def assertion_guarded(p: Process) -> bool:
    """True when every assertion occurs under an input or output prefix.
    A value that is not a process, or a case whose branches are not pairs,
    holds no assertion here: ``well_formed_violations`` reports it at its
    own path.  Walks left to right with an explicit stack, so neither depth
    nor width meets the recursion limit."""
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Assert):
            return False
        if isinstance(q, Case):
            if _pairs(q.branches):
                todo.extend(r for _, r in reversed(q.branches))
        elif isinstance(q, Par):
            todo += (q.right, q.left)
        elif isinstance(q, (Res, Bang)):
            todo.append(q.body)
    return True


class IllFormed(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(f"{'/'.join(path) or '.'}: {msg}"
                                   for path, msg in self.diagnostics))


def well_formed_violations(p: Process):
    """All violations of the syntactic invariants, with subterm paths, in
    pre-order (a node's own diagnostics before those of its subterms, left
    before right).  Walks with an explicit stack, so neither depth nor width
    meets the recursion limit."""
    out = []
    # (subterm, its path, whether it is a case branch)
    todo = [(p, (), False)]
    while todo:
        q, path, branch = todo.pop()
        if branch and not assertion_guarded(q):
            out.append((path, "case branch must be assertion-guarded"))
        if isinstance(q, (Nil, Assert)):
            pass
        elif isinstance(q, Output):
            todo.append((q.cont, path + ("cont",), False))
        elif isinstance(q, Input):
            xs = q.variables
            named = isinstance(xs, tuple) and all(isinstance(v, Name) for v in xs)
            if not named:
                out.append((path, "input pattern variables must be a tuple of names"))
            elif len(set(xs)) != len(xs):
                out.append((path, "input pattern variables must be pairwise distinct"))
            extra = frozenset(xs) - support(q.pattern) if named else ()
            if extra:
                out.append((path, "pattern variables not in the pattern's support: "
                            + ", ".join(sorted(n.hint or str(n.id) for n in extra))))
            todo.append((q.cont, path + ("cont",), False))
        elif isinstance(q, Case):
            if not _pairs(q.branches):
                out.append((path, "case branches must be a tuple of (condition, process) pairs"))
            else:
                todo.extend((r, path + (f"branch{i}",), True)
                            for i, (_, r) in reversed(tuple(enumerate(q.branches))))
        elif isinstance(q, Par):
            todo += ((q.right, path + ("right",), False),
                     (q.left, path + ("left",), False))
        elif isinstance(q, Res):
            todo.append((q.body, path + ("body",), False))
        elif isinstance(q, Bang):
            if not assertion_guarded(q.body):
                out.append((path, "replicated process must be assertion-guarded"))
            todo.append((q.body, path + ("body",), False))
        else:
            out.append((path, f"not a process: {q!r}"))
    return out


def _pairs(branches):
    """Whether a case's ``branches`` are a tuple of pairs."""
    return isinstance(branches, tuple) and all(isinstance(b, tuple) and len(b) == 2
                                               for b in branches)


def check_well_formed(p: Process) -> None:
    """Raise ``IllFormed`` on the violations of ``p``, which ``p`` keeps
    (``nominal._keep``): a repeated query checks it by one read."""
    bad = getattr(p, "_violations_cache", None)
    if bad is None:
        bad = _keep(p, "_violations_cache", tuple(well_formed_violations(p)))
    if bad:
        raise IllFormed(bad)


# ---------------------------------------------------------------------------
# Frames


class OpenedFrame:
    """The frame of a process, every binder opened to a scratch atom, with
    the opened frames of the process's parts.

    ``binders`` (in syntactic order) and ``assertion`` are the frame
    (ν binders)assertion.  For ``Par(P, Q)``, ``parts`` holds the opened
    frames of P and Q, whose binders, in that order, make up ``binders``.
    For ``Res(x, P)``, ``binders[0]`` is the atom x was opened to, ``body``
    is P with x renamed to it, and ``parts`` holds the opened frame of
    ``body``.  Any other process has the unit frame and no parts.  So one
    opening covers the whole Par/Res spine of a process: a walk down that
    spine reads the sibling frames and the renamed restriction bodies off
    the tree instead of opening them again.
    """

    __slots__ = ("binders", "assertion", "parts", "body")

    def __init__(self, binders, assertion, parts=(), body=None):
        self.binders = binders
        self.assertion = assertion
        self.parts = parts
        self.body = body


def opened_frame(inst: CalculusInstance, p: Process, fresh: Fresh) -> OpenedFrame:
    """The opened frame of ``p``, each binder opened, in syntactic order, to
    the next atom of the supply ``fresh``: the order of the outer binders of
    a provenance at ``p`` (see ``semantics``)."""
    if isinstance(p, Assert):
        return OpenedFrame((), p.assertion)
    if isinstance(p, Par):
        left = opened_frame(inst, p.left, fresh)
        right = opened_frame(inst, p.right, fresh)
        return OpenedFrame(left.binders + right.binders,
                           inst.compose(left.assertion, right.assertion),
                           (left, right))
    if isinstance(p, Res):
        name = mint(fresh, p.name.hint or "b")
        body = rename({p.name: name}, p.body)
        inner = opened_frame(inst, body, fresh)
        return OpenedFrame((name,) + inner.binders, inner.assertion, (inner,), body)
    return OpenedFrame((), inst.unit)


# ---------------------------------------------------------------------------
# Substitution on processes


def subst_process(inst: CalculusInstance, p: Process, sigma: Subst, fresh=None) -> Process:
    """Capture-avoiding simultaneous substitution; binders clashing with the
    substitution's names are freshened before descending, to atoms of one
    supply over ``p`` and ``sigma``, built at the outermost call.  A subterm
    with no free name in the substitution's domain is returned as it is."""
    if support(p).isdisjoint(sigma.domain):
        return p
    if fresh is None:
        fresh = Fresh(p, sigma)
    if isinstance(p, Assert):
        return Assert(inst.subst_assertion(p.assertion, sigma))
    if isinstance(p, Output):
        return Output(inst.subst_term(p.channel, sigma),
                      inst.subst_term(p.message, sigma),
                      subst_process(inst, p.cont, sigma, fresh))
    if isinstance(p, Input):
        ch = inst.subst_term(p.channel, sigma)
        pat, cont, variables = p.pattern, p.cont, p.variables
        clash = [v for v in variables if v in names_of(sigma.pairs)]
        if clash:
            m = dict(zip(clash, mint_many(fresh, len(clash), "v")))
            variables = tuple(m.get(v, v) for v in variables)
            pat, cont = rename(m, pat), rename(m, cont)
        return Input(ch, variables, inst.subst_term(pat, sigma),
                     subst_process(inst, cont, sigma, fresh))
    if isinstance(p, Case):
        return Case(tuple((inst.subst_condition(phi, sigma),
                           subst_process(inst, q, sigma, fresh))
                          for phi, q in p.branches))
    if isinstance(p, Par):
        return Par(subst_process(inst, p.left, sigma, fresh),
                   subst_process(inst, p.right, sigma, fresh))
    if isinstance(p, Res):
        name, body = p.name, p.body
        if name in names_of(sigma.pairs):
            name = mint(fresh, name.hint or "b")
            body = rename({p.name: name}, body)
        return Res(name, subst_process(inst, body, sigma, fresh))
    if isinstance(p, Bang):
        return Bang(subst_process(inst, p.body, sigma, fresh))
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Hoisting


def hoist(p: Process, fresh: Fresh, taken=None, cut=None):
    """Hoist the restrictions on the Par/Res spine of ``p`` outward.

    Returns the hoisted binders (outermost first), the unguarded ``Assert``
    nodes and the other components, all in pre-order, left before right.
    The nodes are returned as they are, not rebuilt, so that a caller that
    hoists many processes sharing subterms (the targets of one query) meets
    each shared part as one object.  A binder keeps its name unless
    ``taken`` (the free names in scope and the binders hoisted before)
    already holds it; then it is renamed in its body to the next atom of
    ``fresh``, a supply over a process that contains ``p``.  Each hoisted
    binder is added to ``taken``.  Walks with an explicit stack, so neither
    depth nor width meets the recursion limit.

    Without ``taken``, the walk carries the binders in scope down the spine
    instead of reading the free names of ``p`` first: it needs them only on
    a clash, where a binder is hoisted twice or a part holds a hoisted
    binder free outside that binder's scope.  Then ``p`` is hoisted again
    with ``taken`` its free names.  Without a clash, that ``taken`` would
    rename no binder either.

    A node that the predicate ``cut`` accepts is returned as a component as
    it is, and not descended into.  The caller cuts only closed nodes: such
    a node has no free name, so neither its binders nor its parts can clash
    with the rest of ``p`` or share an atom with it."""
    scoped = taken is None
    if scoped:
        taken, free = set(), set()  # free: the free names of p met so far
    binders, asserts, comps = [], [], []
    todo = [(p, frozenset())]
    while todo:
        q, scope = todo.pop()
        if isinstance(q, Nil):
            continue
        if cut is not None and cut(q):
            comps.append(q)
        elif isinstance(q, Par):
            todo += ((q.right, scope), (q.left, scope))
        elif isinstance(q, Res):
            name, body = q.name, q.body
            if name in taken:
                if scoped:
                    return hoist(p, fresh, set(support(p)), cut)
                name = mint(fresh, name.hint or "b")
                body = rename({q.name: name}, body)
            taken.add(name)
            binders.append(name)
            todo.append((body, scope | {name} if scoped else scope))
        else:
            (asserts if isinstance(q, Assert) else comps).append(q)
            if scoped and not support(q) <= scope:
                free.update(support(q) - scope)
    if scoped and not free.isdisjoint(taken):
        return hoist(p, fresh, set(support(p)), cut)
    return tuple(binders), tuple(asserts), comps


class SumUnavailable(ValueError):
    pass


def desugar_sum(inst: CalculusInstance, p: Process, q: Process) -> Process:
    """P + Q as a two-branch case over an always-entailed condition."""
    for arg in (p, q):
        if not assertion_guarded(arg):
            raise IllFormed([((), "sum arguments must be assertion-guarded")])
    top = inst.top_condition(names_of(p, q))
    if top is None:
        raise SumUnavailable(
            f"instance {inst.name!r} has no always-entailed condition; "
            "sums cannot be expressed")
    return Case(((top, p), (top, q)))
