"""Layered planar tangles: a textual DSL, validation, and the state sum.

Standard shape and reading conventions
--------------------------------------
Every tangle is normalized to a rectangle with all marked boundary points on
the top edge and the distinguished interval containing the bottom edge.
Boundary points are read right-to-left (counterclockwise from the
distinguished interval); the sign - gives a downward-oriented strand, + an
upward one.  Sweeping top to bottom, the state of a horizontal slice is the
list of regions ``r_0 .. r_m`` between strands, each filled with a Young
diagram.  Across a downward strand the east region covers the west; across
an upward strand the west covers the east.  For a loop of length n the
initial slice reads the loop backwards: ``r_j`` holds diagram ``n - j``.

Rows and atoms
--------------
A program is a sequence of rows.  Within a row, ``|`` (pass), ``*`` (inline
dot), ``cap`` and ``box NAME`` tile the current strands left to right and
must consume all of them; ``cup_du``/``cup_ud`` occupy gaps, either an
explicit pre-row gap ``@g`` (0-based) or the gap at the point of the row
where they are written (the right end in a row of cups alone).  A cup is a
maximum of a string: ``cup_du`` inserts a (down, up) pair around a summed
region covering the gap's region, ``cup_ud`` an (up, down) pair around a
summed region covered by it; both weigh ``sqrt(f(inner)/f(outer))``.  A cap
is a minimum: it joins two adjacent opposite strands whose outer regions
must agree and weighs ``sqrt(f(inner)/f(outer))``.  The dot multiplies by
the content of the box between its strand's two regions, sign included.  A
box consumes ``2q`` strands whose orientations must match the bound
element's signature read right-to-left (up = internal +, down = internal -),
requires the two flanking regions to agree, and multiplies by the element's
value on the loop read right-to-left across its legs.

Steps
-----
:func:`parse_programs` reads and compiles in one pass: it checks each atom
against the current strand orientations the moment it reads it, so a source
with several errors reports the first one in reading order, and it turns
each row into primitive steps at the row's ``;``.  :func:`evaluate` is one
loop over the steps.  A state is one tuple ``(regions, d, n, m)``: a region
tuple, a squarefree radicand ``d`` and the amplitude ``n/m sqrt(d)`` as an
integer pair; each step multiplies it by the integer terms ``(radicand, n,
m)`` of its weight.  The frontier between steps is a list of states.  States
with equal regions and radicands merge, and their pairs are reduced, after
caps and boxes only, in one dict per step: cups and dots are injective on
states, so they never make two equal, append to the next list and hash no
region tuple.  Cups and caps read their weights from one table per (f, cup
kind, outer region), ``{cover: sqrt(f(cover)/f(region))}``: a cup sums over
it, a pinned cup is one lookup in it, and so is a cap, of its inner region
in the table of the kind the parser compiled into it, ``"du"`` when its
first strand points down, ``"ud"`` when it points up.  A dot carries its
strand's orientation, which says which of its regions covers the other.  A
row's cups lie above its other atoms, so they come first.  The cups, and
then the dots, caps and boxes, each run right to left: inserting or deleting
regions moves only the regions east of it, so every step still to come
keeps its compiled position.  As the parser reads each cap or box it pins a
cup where it can: a region keeps its diagram from the step that creates it
to the step that closes it, so when a later cap or box equates a cup's
summed region with an earlier region, the cup takes that region's diagram
alone instead of every cover, and builds no state the flank check would
kill.  A box's value depends only on its window, the regions around it, so
its terms are computed once per (element, f, window) per process, on a loop
built unchecked, and reused: an element's ``fn`` must be a pure function of
(loop, f).

Every weight -- cups, caps, builtin boxes and boxed tangles -- reads the one
harmonic function ``f`` passed to :func:`evaluate`.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction
from functools import cache
from math import gcd

from .plancherel import HarmonicFunction
from .surd import Surd, sqrt_fraction, squarefree_split
from .young import (
    Diagram, LoopPath, Record, Signature, _built_loop, box_content, check_signature,
    down_covers, up_covers,
)

UP, DOWN = 1, -1


def signature_orientations(sig: Signature) -> tuple[int, ...]:
    """Strand orientations left to right for boundary signs read right to left."""
    return tuple(UP if e > 0 else DOWN for e in reversed(sig))


class TangleError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class Element(Record):
    """A function of loops of a fixed signature; the value of a filled box.

    ``fn`` must be a pure function of (loop, f): the state sum computes a
    box's value once per (element, f, window) per process and reuses it.
    The signature is a tuple of signs, each the int 1 or -1, summing to 0.
    """

    __slots__ = ("name", "signature", "fn")
    name: str
    signature: Signature
    fn: Callable[[LoopPath, HarmonicFunction], Surd]

    def __init__(self, name: str, signature: Signature, fn):
        check_signature(signature, f"element {name}")
        Record.__init__(self, name, signature, fn)

    def __hash__(self) -> int:  # direct: the state sum hashes it per box state
        return hash((self.name, self.signature, self.fn))

    def legs(self) -> tuple[int, ...]:
        """Strand orientations left-to-right that the box window must show."""
        return signature_orientations(self.signature)


# -- DSL parser ----------------------------------------------------------------

Step = tuple[str, int, object]  # (kind, position, operand): see TangleProgram


class TangleProgram(Record):
    """A validated tangle as the steps of its state sum, in order.

    Per row: its cups ``("cup", gap, (kind, src))`` at pre-row gaps, right
    to left, and on equal gaps the later-listed cup first, so the listed
    order reads west to east; then its dots ``("dot", position, UP or
    DOWN)``, caps ``("cap", position, "du" or "ud")`` and boxes ``("box",
    position, element)`` at 1-based positions after the cups are inserted,
    right to left: a dot carries its strand's orientation, a cap the cup
    kind whose table holds its weight.  A cap or box deletes the regions it
    closes.

    ``src`` is the cup's pin: the index, in the state before the cup, of the
    region whose diagram a later cap or box flank check forces on the cup's
    summed region, or ``None``.  The parser finds it by treating each region
    as a variable, named by birth order: the boundary regions first, then
    each cup's summed region; the copy of the region a cup splits keeps that
    region's variable.  A cap or box equates its two flank variables; when
    they differ, the later-born one is a cup variable, and if that cup has
    no pin yet it is pinned to the earlier one, which is alive at the cup,
    so its index there is fixed.  Any copy of it will do: copies hold one
    diagram.  A pinned cup yields at most one state, that
    diagram if it covers the gap's region as ``kind`` requires; an unpinned
    one yields every cover.  The flank checks stay, so a pin the parser
    misses costs time and never a value, and a pin removes only states the
    check would kill: values are unchanged, except that a box's ``fn`` is no
    longer called on such a doomed state, which matters only to an ``fn``
    that raises there (no builtin element raises on a valid window).
    """

    __slots__ = ("name", "signature", "steps")
    name: str
    signature: Signature
    steps: tuple[Step, ...]


_TOKEN_RE = re.compile(
    r"(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[{}():;,@|*+-])"
    r"|(?P<newline>\n)"
    r"|(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<other>.)"
)


def _tokenize(text: str):
    """Yield (type, value, line, col) for each token, lexing only as far as it
    is read; integers and names are ASCII."""
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other":
            raise TangleError(f"unexpected character {value!r}", line, col)
        elif kind != "skip":
            yield kind, value, line, col


class _Parser:
    """Reads tangles token by token and compiles them as it goes.

    ``orient`` holds the strand orientations of the current slice, ``regs``
    the variable in each of its regions and ``steps`` the steps of the
    tangle being read; each atom is checked against ``orient`` the moment
    it is read, so the first error in reading order is the one reported.
    ``born[v]`` is the step and the pre-cup ``regs`` of the cup that made
    variable ``v``, or ``None`` for a boundary region.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.ahead = self.last = None  # the token peeked at, the last one read
        self.orient: list[int] = []
        self.regs: list[int] = []
        self.born: list[tuple[int, tuple[int, ...]] | None] = []
        self.steps: list[Step] = []

    def peek(self):
        if self.ahead is None:
            self.ahead = next(self.tokens, None)
        return self.ahead

    def next(self):
        tok = self.peek()
        if tok is None:
            raise self.at_end("unexpected end of input")
        self.ahead, self.last = None, tok
        return tok

    def at_end(self, message: str) -> TangleError:
        """An error at the last token read, for input that stops too early."""
        return TangleError(message, *self.last[2:])

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise TangleError(f"expected {value!r}, got {tok[1]!r}", *tok[2:])
        return tok

    def parse_signature(self) -> Signature:
        self.expect("(")
        signs: list[int] = []
        tok = self.peek()
        if tok and tok[1] == ")":
            self.next()
            return ()
        while True:
            tok = self.next()
            if tok[1] == "+":
                signs.append(1)
            elif tok[1] == "-":
                signs.append(-1)
            else:
                raise TangleError(f"expected '+' or '-', got {tok[1]!r}", *tok[2:])
            tok = self.next()
            if tok[1] == ")":
                break
            if tok[1] != ",":
                raise TangleError(f"expected ',' or ')', got {tok[1]!r}", *tok[2:])
        if sum(signs) != 0:
            raise TangleError("signature signs must sum to zero", *tok[2:])
        return tuple(signs)

    def parse_atom(self, tok) -> tuple[str, object]:
        """The atom that starts at ``tok``: ``("pass" | "dot" | "cap", None)``,
        ``("du" | "ud", gap or None without '@')`` or ``("box", name)``."""
        if tok[1] == "|":
            return "pass", None
        if tok[1] == "*":
            return "dot", None
        if tok[0] == "ident" and tok[1] == "cap":
            return "cap", None
        if tok[0] == "ident" and tok[1] in ("cup_du", "cup_ud"):
            nxt = self.peek()
            if not (nxt and nxt[1] == "@"):
                return tok[1][-2:], None
            self.next()
            gtok = self.next()
            if gtok[0] != "int":
                raise TangleError("expected gap index after '@'", *gtok[2:])
            return tok[1][-2:], int(gtok[1])
        if tok[0] == "ident" and tok[1] == "box":
            nm = self.next()
            if nm[0] != "ident":
                raise TangleError("expected box name", *nm[2:])
            return "box", nm[1]
        raise TangleError(f"unknown atom {tok[1]!r}", *tok[2:])

    def parse_row(self, env: dict[str, Element]):
        """Read one row, check each atom as it is read, append the row's steps,
        pin each cup that one of its caps or boxes fixes, and return its last
        atom's token."""
        row = self.expect("row")
        orient, n = self.orient, len(self.orient)
        cups: list[tuple[int | None, str, tuple]] = []  # pre-row gap, kind, token
        spans: list[tuple[str, int, int, object]] = []  # kind, start, end, element
        cursor, tiled, last = 0, False, None
        while True:
            if self.peek() is None:
                raise self.at_end("unterminated row")
            tok = self.next()
            if tok[1] == ";":
                break
            last = tok
            kind, operand = self.parse_atom(tok)
            if kind in ("du", "ud"):
                gap = cursor if operand is None and tiled else operand
                if gap is not None and not 0 <= gap <= n:
                    raise TangleError(f"cup gap {gap} out of range 0..{n}", *tok[2:])
                cups.append((gap, kind, tok))
                continue
            elem = env.get(operand) if kind == "box" else None
            if kind == "box" and elem is None:
                raise TangleError(f"unbound box name {operand!r}", *tok[2:])
            start = cursor + 1
            end = cursor + (len(elem.signature) if elem else 2 if kind == "cap" else 1)
            if end > n:
                raise TangleError(
                    f"row consumes more strands than the {n} available", *tok[2:]
                )
            if kind == "cap" and orient[start - 1] == orient[end - 1]:
                raise TangleError("cap on same-direction strands", *tok[2:])
            if elem and tuple(orient[start - 1 : end]) != elem.legs():
                raise TangleError(
                    f"box {operand!r} legs {elem.legs()} do not match "
                    f"strand orientations {tuple(orient[start - 1 : end])}",
                    *tok[2:],
                )
            if kind != "pass":
                spans.append((kind, start, end, elem))
            cursor, tiled = end, True
        if last is None:
            raise TangleError("empty row", *row[2:])
        if tiled and cursor != n:
            raise TangleError(f"{n - cursor} strands remain untiled in a row", *last[2:])
        # A cup without '@' ahead of every strand atom sits at gap 0, or at the
        # right end in a row of cups alone.
        cups = [((0 if tiled else n) if g is None else g, k, t) for g, k, t in cups]
        # Insertion inside a consuming span would break the span's contiguity.
        for _, start, end, _ in spans:
            for gap, _, tok in cups:
                if start <= gap <= end - 1:
                    raise TangleError("cup inserted inside a cap/box span", *tok[2:])
        regs, born, steps = self.regs, self.born, self.steps
        for gap, kind, _ in reversed(sorted(cups, key=lambda c: c[0])):
            born.append((len(steps), tuple(regs)))
            regs[gap + 1 : gap + 1] = [len(born) - 1, regs[gap]]
            steps.append(("cup", gap, (kind, None)))
            orient[gap:gap] = [DOWN, UP] if kind == "du" else [UP, DOWN]
        for kind, start, end, elem in reversed(spans):
            p = start + 2 * sum(1 for g, _, _ in cups if g < start)
            if kind != "box":  # a dot's orientation, a cap's cup kind
                o = orient[p - 1]
                elem = o if kind == "dot" else "du" if o == DOWN else "ud"
            steps.append((kind, p, elem))
            if kind == "dot":
                continue
            # Strands p..q close, with their regions; the flanks p - 1 and q
            # are equated, which may pin the later-born one's cup.
            q = p + end - start
            early, late = sorted((regs[p - 1], regs[q]))
            if early != late and born[late]:
                i, before = born[late]
                _, gap, (cup, src) = steps[i]
                if src is None:
                    steps[i] = ("cup", gap, (cup, before.index(early)))
            del orient[p - 1 : q], regs[p : q + 1]
        return last

    def parse_tangle(self, env: dict[str, Element]) -> TangleProgram:
        self.expect("tangle")
        nm = self.next()
        if nm[0] != "ident":
            raise TangleError("expected tangle name", *nm[2:])
        if nm[1] in env:
            raise TangleError(f"name {nm[1]!r} is already bound", *nm[2:])
        self.expect(":")
        sig = self.parse_signature()
        self.expect("{")
        self.orient, self.steps = list(signature_orientations(sig)), []
        self.regs, self.born = list(range(len(sig) + 1)), [None] * (len(sig) + 1)
        last = nm  # open strands point at the last atom, or at the name
        while True:
            tok = self.peek()
            if tok is None:
                raise self.at_end("unterminated tangle body")
            if tok[1] == "}":
                self.next()
                break
            last = self.parse_row(env)
        if self.orient:
            raise TangleError(
                f"{len(self.orient)} strands remain after the last row", *last[2:]
            )
        return TangleProgram(nm[1], sig, tuple(self.steps))


def parse_programs(
    text: str, bindings: dict[str, Element] | None = None
) -> dict[str, TangleProgram]:
    """Parse a DSL source with any number of tangle definitions.

    Earlier definitions become available as box bindings for later ones
    (wrapped by :func:`as_element`).  A name that is already bound, by
    ``bindings`` or by an earlier definition, is an error.
    """
    parser = _Parser(text)
    env: dict[str, Element] = dict(bindings or {})
    out: dict[str, TangleProgram] = {}
    while parser.peek() is not None:
        prog = parser.parse_tangle(env)
        out[prog.name] = prog
        env[prog.name] = as_element(prog)
    return out


def parse(text: str, bindings: dict[str, Element] | None = None) -> TangleProgram:
    """Parse a source containing exactly one tangle definition."""
    progs = parse_programs(text, bindings)
    if len(progs) != 1:
        raise TangleError(f"expected exactly one tangle, found {len(progs)}")
    return next(iter(progs.values()))


# -- evaluation ----------------------------------------------------------------

Term = tuple[int, int, int]  # (radicand, numerator, denominator): n/m sqrt(d)
State = tuple[tuple[Diagram, ...], int, int, int]  # (regions, d, n, m)


@cache
def _cup_table(
    fval: Callable[[Diagram], Fraction], cup: str, region: Diagram
) -> dict[Diagram, Term]:
    """``{cover: sqrt(f(cover)/f(region))}`` over the diagrams a cup of kind
    ``cup`` may sum over above ``region``: the weights of cups and caps.

    ``"du"`` reads the up covers, ``"ud"`` the down covers, in their order.
    Keyed on ``f.value``, not ``f``: the weights read nothing else, and a
    function hashes faster than the record around it.  The dict is shared:
    read it, never change it.
    """
    covers = up_covers(region) if cup == "du" else down_covers(region)
    table = {}
    for s, _ in covers:
        ((d, c),) = sqrt_fraction(fval(s) / fval(region)).terms.items()
        table[s] = d, c.numerator, c.denominator
    return table


@cache
def _box_terms(
    x: Element, f: HarmonicFunction, window: tuple[Diagram, ...]
) -> tuple[Term, ...]:
    """The terms of ``x`` on the loop read right to left across ``window``,
    the regions around a box from its west flank to its east flank.

    A box's value is a function of the labels around it, so it is computed
    once per (element, f, window), on a loop built unchecked by
    :func:`young._built_loop`.  Keyed on ``f`` itself, not ``f.value`` as
    :func:`_cup_table` is: the element's ``fn`` receives the whole ``f``.
    A call that raises caches nothing.
    """
    value = x.fn(_built_loop(tuple(reversed(window)), x.signature), f)
    return tuple((d, c.numerator, c.denominator) for d, c in value.terms.items())


def evaluate(program: TangleProgram, loop: LoopPath, f: HarmonicFunction) -> Surd:
    """Exact state-sum value of the program on the loop.

    A state is one tuple ``(regions, d, n, m)`` (see the module docstring).
    Each step multiplies every state by each term of its weight: a radicand
    1 leaves the other one, and two others multiply, with the square part
    of their product folded into the numerator.  Openings (cups and dots)
    are injective on states: a cup's output holds its input's regions and
    its cover, the squarefree part of ``d1 * d2`` determines ``d1`` for a
    fixed ``d2``, and a dot keeps its state's regions and radicand.  So they
    append their outputs to the next list as they come, unreduced, and hash
    no region tuple.  Cups and caps read :func:`_cup_table`, a pinned cup
    or a cap in one lookup, of the kind compiled into the cap's step; a dot
    reads its regions in the order its compiled orientation gives.  Only
    caps and boxes merge, in one dict keyed by ``(regions, d)`` whose
    values are ``[n, m]`` accumulators: equal keys add, zero amplitudes
    drop and each pair is reduced as it is emitted to the next list.  The
    paths into one region tuple share a radicand on every relation and
    character tangle; a box whose value has several terms fans out into
    several states.  The ``Surd`` is built once, at the end, from one
    ``Fraction`` per radicand.
    """
    if loop.signature != program.signature:
        raise TangleError(
            f"loop signature {loop.signature} does not match program "
            f"signature {program.signature}"
        )
    fval = f.value
    states: list[State] = [(tuple(reversed(loop.diagrams)), 1, 1, 1)]
    for kind, p, x in program.steps:
        nxt: list[State] = []
        if kind == "dot":
            big, small = (p, p - 1) if x == DOWN else (p - 1, p)
            for regs, d, n, m in states:
                c = box_content(regs[big], regs[small])
                if c:  # content 0 annihilates the state
                    nxt.append((regs, d, n * c, m))
        elif kind == "cup":
            cup, src = x
            for regs, d1, n1, m1 in states:
                region = regs[p]
                table = _cup_table(fval, cup, region)
                if src is not None:
                    s = regs[src]
                    term = table.get(s)
                    if term is None:
                        continue  # the pin's diagram is not a cover of this kind
                    d2, n2, m2 = term
                    out = regs[: p + 1] + (s, region) + regs[p + 1 :]
                    if d1 == 1 or d2 == 1:
                        nxt.append((out, d1 * d2, n1 * n2, m1 * m2))
                    else:
                        sq, d = squarefree_split(d1 * d2)
                        nxt.append((out, d, n1 * n2 * sq, m1 * m2))
                    continue
                head, tail = regs[: p + 1], (region,) + regs[p + 1 :]
                for s, (d2, n2, m2) in table.items():
                    if d1 == 1 or d2 == 1:
                        nxt.append((head + (s,) + tail, d1 * d2, n1 * n2, m1 * m2))
                    else:
                        sq, d = squarefree_split(d1 * d2)
                        nxt.append((head + (s,) + tail, d, n1 * n2 * sq, m1 * m2))
        else:
            w = 2 if kind == "cap" else len(x.signature)  # strands closed
            merged: dict[tuple[tuple[Diagram, ...], int], list[int]] = {}
            for regs, d1, n1, m1 in states:
                if regs[p - 1] != regs[p + w - 1]:
                    continue  # the flanking regions must agree
                out = regs[:p] + regs[p + w :]
                if kind == "cap":
                    weights = (_cup_table(fval, x, regs[p - 1])[regs[p]],)
                else:
                    weights = _box_terms(x, f, regs[p - 1 : p + w])
                for d2, n2, m2 in weights:
                    n, m = n1 * n2, m1 * m2
                    if d1 == 1 or d2 == 1:
                        d = d1 * d2
                    else:
                        s, d = squarefree_split(d1 * d2)
                        n *= s
                    pair = [n, m]
                    acc = merged.setdefault((out, d), pair)  # one hash per output
                    if acc is pair:
                        continue
                    if acc[1] == m:
                        acc[0] += n
                    else:
                        acc[0] = acc[0] * m + n * acc[1]
                        acc[1] *= m
            for (out, d), (n, m) in merged.items():
                if n:
                    g = gcd(n, m)
                    nxt.append((out, d, n // g, m // g))
        states = nxt
    terms: dict[int, Fraction] = {}
    for regions, d, n, m in states:
        if len(regions) != 1 or regions[0] != loop.base:
            raise TangleError(
                f"program {program.name!r} ends in state {regions}, "
                f"not the loop base {loop.base}"
            )
        terms[d] = Fraction(n, m)  # one state per radicand: the base is fixed
    return Surd(terms)


def as_element(program: TangleProgram) -> Element:
    """Wrap the program as an element usable inside boxes of other tangles."""
    return Element(
        program.name, program.signature, lambda loop, f: evaluate(program, loop, f)
    )
