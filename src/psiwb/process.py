"""Agent syntax, well-formedness, frames and normal forms.

Process constructors:

    Nil | Assert(psi) | Output(M, N, P) | Input(M, xs, N, P)
    Case(((phi, P), ...)) | Par(P, Q) | Res(x, P) | Bang(P)

Input binds its pattern variables into the pattern and the continuation;
Res binds its name into the body.  Everything is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nominal import (Name, _canon, canon_binders, map_atoms as _map, mint,
                      mint_many, names_of, rename, support)
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

    def _support(self):
        inner = support(self.pattern) | support(self.cont)
        return support(self.channel) | (inner - frozenset(self.variables))

    def _map_atoms(self, f):
        return Input(_map(f, self.channel), tuple(f(v) for v in self.variables),
                     _map(f, self.pattern), _map(f, self.cont))

    def _canon(self, env, st):
        ch = _canon(self.channel, env, st)
        vs, env2 = canon_binders(self.variables, env, st)
        return Input(ch, vs, _canon(self.pattern, env2, st),
                     _canon(self.cont, env2, st))


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

    def _support(self):
        return support(self.body) - frozenset((self.name,))

    def _map_atoms(self, f):
        return Res(f(self.name), _map(f, self.body))

    def _canon(self, env, st):
        (b,), env2 = canon_binders((self.name,), env, st)
        return Res(b, _canon(self.body, env2, st))


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


def par_components(p: Process):
    """Flatten nested Par into a component list (Nil dropped)."""
    if isinstance(p, Par):
        return par_components(p.left) + par_components(p.right)
    if isinstance(p, Nil):
        return []
    return [p]


# ---------------------------------------------------------------------------
# Well-formedness


def assertion_guarded(p: Process) -> bool:
    """True when every assertion occurs under an input or output prefix.
    Walks left to right with an explicit stack, so neither depth nor width
    meets the recursion limit."""
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Assert):
            return False
        if isinstance(q, (Nil, Output, Input)):
            continue
        if isinstance(q, Case):
            todo.extend(r for _, r in reversed(q.branches))
        elif isinstance(q, Par):
            todo += (q.right, q.left)
        elif isinstance(q, (Res, Bang)):
            todo.append(q.body)
        else:
            raise TypeError(f"not a process: {q!r}")
    return True


class IllFormed(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(f"{'/'.join(path) or '.'}: {msg}"
                                   for path, msg in self.diagnostics))


def well_formed_violations(p: Process, path=()):
    """All violations of the syntactic invariants, with subterm paths, in
    pre-order (a node's own diagnostics before those of its subterms, left
    before right).  Walks with an explicit stack, so neither depth nor width
    meets the recursion limit."""
    out = []
    # (subterm, its path, whether it is a case branch)
    todo = [(p, path, False)]
    while todo:
        q, path, branch = todo.pop()
        if branch and not assertion_guarded(q):
            out.append((path, "case branch must be assertion-guarded"))
        if isinstance(q, (Nil, Assert)):
            pass
        elif isinstance(q, Output):
            todo.append((q.cont, path + ("cont",), False))
        elif isinstance(q, Input):
            if len(set(q.variables)) != len(q.variables):
                out.append((path, "input pattern variables must be pairwise distinct"))
            extra = frozenset(q.variables) - support(q.pattern)
            if extra:
                out.append((path, "pattern variables not in the pattern's support: "
                            + ", ".join(sorted(n.hint or str(n.id) for n in extra))))
            todo.append((q.cont, path + ("cont",), False))
        elif isinstance(q, Case):
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


def check_well_formed(p: Process) -> None:
    bad = well_formed_violations(p)
    if bad:
        raise IllFormed(bad)


# ---------------------------------------------------------------------------
# Frames


@dataclass(frozen=True)
class Frame:
    """The assertion environment of a process: binders over an assertion."""

    binders: tuple  # tuple[Name, ...]
    assertion: object

    def _support(self):
        return support(self.assertion) - frozenset(self.binders)

    def _map_atoms(self, f):
        return Frame(tuple(f(b) for b in self.binders), _map(f, self.assertion))

    def _canon(self, env, st):
        bs, env2 = canon_binders(self.binders, env, st)
        return Frame(bs, _canon(self.assertion, env2, st))


class OpenedFrame:
    """The frame of a process with every binder opened to a scratch atom,
    together with the opened frames of the process's parts.

    ``binders`` (in syntactic order) and ``assertion`` are the frame.  For
    ``Par(P, Q)``, ``parts`` holds the opened frames of P and Q, whose
    binders, in that order, make up ``binders``.  For ``Res(x, P)``, ``name``
    is the atom x was opened to, ``body`` is P with x renamed to it, and
    ``parts`` holds the opened frame of ``body``.  Any other process has the
    unit frame and no parts.  So one opening covers the whole Par/Res spine
    of a process: a walk down that spine reads the sibling frames and the
    renamed restriction bodies off the tree instead of opening them again.
    """

    __slots__ = ("binders", "assertion", "parts", "name", "body")

    def __init__(self, binders, assertion, parts=(), name=None, body=None):
        self.binders = binders
        self.assertion = assertion
        self.parts = parts
        self.name = name
        self.body = body


def open_frame(inst: CalculusInstance, p: Process, avoid: frozenset):
    """The opened frame of ``p`` and ``avoid`` extended with the atoms it
    opened.  Each binder is minted deterministically, fresh for ``avoid``
    and for every binder opened before it, in syntactic order."""
    if isinstance(p, Assert):
        return OpenedFrame((), p.assertion), avoid
    if isinstance(p, Par):
        left, avoid = open_frame(inst, p.left, avoid)
        right, avoid = open_frame(inst, p.right, avoid)
        return OpenedFrame(left.binders + right.binders,
                           inst.compose(left.assertion, right.assertion),
                           (left, right)), avoid
    if isinstance(p, Res):
        fresh = mint(avoid, p.name.hint or "b")
        body = rename({p.name: fresh}, p.body)
        inner, avoid = open_frame(inst, body, avoid | {fresh})
        return OpenedFrame((fresh,) + inner.binders, inner.assertion, (inner,),
                           fresh, body), avoid
    return OpenedFrame((), inst.unit), avoid


def opened_frame(inst: CalculusInstance, p: Process, avoid):
    """The frame of ``p`` with every binder opened to a deterministic mint
    atom.  Returns (binders, assertion, extended avoid).  The binder order
    is the syntactic order, matching the provenance invariant."""
    f, avoid = open_frame(inst, p, frozenset(avoid))
    return f.binders, f.assertion, avoid


# ---------------------------------------------------------------------------
# Substitution on processes


def subst_process(inst: CalculusInstance, p: Process, sigma: Subst, avoid=None) -> Process:
    """Capture-avoiding simultaneous substitution; binders clashing with the
    substitution's names are freshened before descending."""
    if avoid is None:
        avoid = support(p) | names_of(*(t for _, t in sigma.pairs)) | sigma.domain
    if isinstance(p, Nil):
        return p
    if isinstance(p, Assert):
        return Assert(inst.subst_assertion(p.assertion, sigma))
    if isinstance(p, Output):
        return Output(inst.subst_term(p.channel, sigma),
                      inst.subst_term(p.message, sigma),
                      subst_process(inst, p.cont, sigma, avoid))
    if isinstance(p, Input):
        ch = inst.subst_term(p.channel, sigma)
        pat, cont, variables = p.pattern, p.cont, p.variables
        clash = [v for v in variables if v in names_of(sigma.pairs)]
        if clash:
            fresh, avoid = mint_many(avoid, len(clash), "v")
            m = dict(zip(clash, fresh))
            variables = tuple(m.get(v, v) for v in variables)
            pat, cont = rename(m, pat), rename(m, cont)
        return Input(ch, variables, inst.subst_term(pat, sigma),
                     subst_process(inst, cont, sigma, avoid))
    if isinstance(p, Case):
        return Case(tuple((inst.subst_condition(phi, sigma),
                           subst_process(inst, q, sigma, avoid))
                          for phi, q in p.branches))
    if isinstance(p, Par):
        return Par(subst_process(inst, p.left, sigma, avoid),
                   subst_process(inst, p.right, sigma, avoid))
    if isinstance(p, Res):
        name, body = p.name, p.body
        if name in names_of(sigma.pairs):
            fresh = mint(avoid, name.hint or "b")
            body = rename({name: fresh}, body)
            name, avoid = fresh, avoid | {fresh}
        return Res(name, subst_process(inst, body, sigma, avoid))
    if isinstance(p, Bang):
        return Bang(subst_process(inst, p.body, sigma, avoid))
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Normal forms


@dataclass(frozen=True)
class NormalForm:
    """Top-level binders, unguarded assertions and the guarded rest."""

    binders: tuple     # tuple[Name, ...]
    assertions: tuple  # tuple[assertion, ...]
    rest: Process

    def _support(self):
        inner = names_of(self.assertions, self.rest)
        return inner - frozenset(self.binders)

    def _map_atoms(self, f):
        return NormalForm(tuple(f(b) for b in self.binders),
                          _map(f, self.assertions), _map(f, self.rest))

    def _canon(self, env, st):
        bs, env2 = canon_binders(self.binders, env, st)
        return NormalForm(bs, _canon(self.assertions, env2, st),
                          _canon(self.rest, env2, st))


def hoist(p: Process, avoid):
    """Hoist the restrictions on the Par/Res spine of ``p`` outward.

    Returns the hoisted binders (outermost first), the unguarded assertions,
    the other components, all in pre-order, left before right, and ``avoid``
    extended with the binders.  A binder already in ``avoid`` is renamed in
    its body to a deterministic mint atom fresh for ``avoid``; the others
    keep their names.  Walks with an explicit stack, so neither depth nor
    width meets the recursion limit."""
    avoid = set(avoid)
    binders, asserts, comps = [], [], []
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Nil):
            continue
        if isinstance(q, Assert):
            asserts.append(q.assertion)
        elif isinstance(q, Par):
            todo += (q.right, q.left)
        elif isinstance(q, Res):
            name, body = q.name, q.body
            if name in avoid:
                name = mint(avoid, name.hint or "b")
                body = rename({q.name: name}, body)
            avoid.add(name)
            binders.append(name)
            todo.append(body)
        else:
            comps.append(q)
    return tuple(binders), tuple(asserts), comps, frozenset(avoid)


def normal_form(inst: CalculusInstance, p: Process) -> NormalForm:
    """Hoist top-level restrictions outward and split unguarded assertions
    from the guarded rest.  Binders keep their names unless hoisting would
    capture, in which case they are freshened."""
    check_well_formed(p)
    binders, asserts, rest, _ = hoist(p, support(p))
    return NormalForm(binders, asserts, par(*rest))


def reassemble(nf: NormalForm) -> Process:
    return res(nf.binders, par(*(Assert(a) for a in nf.assertions), nf.rest))


class SumUnavailable(ValueError):
    pass


def desugar_sum(inst: CalculusInstance, p: Process, q: Process, top=None) -> Process:
    """P + Q as a two-branch case over an always-entailed condition."""
    for arg in (p, q):
        if not assertion_guarded(arg):
            raise IllFormed([((), "sum arguments must be assertion-guarded")])
    if top is None:
        top = inst.top_condition(names_of(p, q))
    if top is None:
        raise SumUnavailable(
            f"instance {inst.name!r} has no always-entailed condition; "
            "sums cannot be expressed")
    return Case(((top, p), (top, q)))


def collect_assertions(p: Process):
    """Every assertion value occurring anywhere in ``p`` (under binders too)."""
    if isinstance(p, Assert):
        return [p.assertion]
    if isinstance(p, (Output, Input)):
        return collect_assertions(p.cont)
    if isinstance(p, Case):
        return [a for _, q in p.branches for a in collect_assertions(q)]
    if isinstance(p, Par):
        return collect_assertions(p.left) + collect_assertions(p.right)
    if isinstance(p, (Res, Bang)):
        return collect_assertions(p.body)
    return []
