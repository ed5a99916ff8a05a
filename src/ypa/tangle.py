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
:func:`compile_program` turns each row into primitive steps, and
:func:`evaluate` is one loop over them; after every step, states (region
tuples with their amplitudes) with equal regions merge.  A row's cups lie
above its other atoms, so they come first.  The cups, and then the dots,
caps and boxes, each run right to left: inserting or deleting regions moves
only the regions east of it, so every step still to come keeps its compiled
position.

Every weight -- cups, caps, builtin boxes and boxed tangles -- reads the one
harmonic function ``f`` passed to :func:`evaluate`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .plancherel import HarmonicFunction
from .surd import ONE, Surd, sqrt_fraction
from .young import Diagram, LoopPath, Signature, box_content, down_covers, up_covers

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


@dataclass(frozen=True)
class Element:
    """A function of loops of a fixed signature; the value of a filled box."""

    name: str
    signature: Signature
    fn: Callable[[LoopPath, HarmonicFunction], Surd]

    def evaluate(self, loop: LoopPath, f: HarmonicFunction) -> Surd:
        if loop.signature != self.signature:
            raise TangleError(
                f"element {self.name} expects signature {self.signature}, "
                f"got {loop.signature}"
            )
        return self.fn(loop, f)

    def legs(self) -> tuple[int, ...]:
        """Strand orientations left-to-right that the box window must show."""
        return signature_orientations(self.signature)


# -- atoms and compiled steps --------------------------------------------------

@dataclass(frozen=True)
class Atom:
    kind: str  # "pass" | "dot" | "cap" | "cup" | "box"
    cup_kind: str | None = None  # "du" | "ud"
    gap: int | None = None
    box_name: str | None = None
    line: int | None = None
    col: int | None = None


Step = tuple[str, int, object]  # (kind, position, cup kind or element)


@dataclass(frozen=True)
class TangleProgram:
    """A validated tangle as the steps of its state sum, in order.

    Per row: its cups ``("cup", gap, kind)`` at pre-row gaps, right to left,
    and on equal gaps the later-listed cup first, so the listed order reads
    west to east; then its dots, caps and boxes ``(kind, position,
    element)`` at 1-based positions after the cups are inserted, right to
    left.  A cap or box deletes the regions it closes.
    """

    name: str
    signature: Signature
    steps: tuple[Step, ...]


def compile_program(
    name: str,
    signature: Signature,
    rows: tuple[tuple[Atom, ...], ...],
    bindings: dict[str, Element],
    name_at: tuple[int | None, int | None] = (None, None),
) -> TangleProgram:
    """Validate orientations/arities row by row and fix all positions.

    ``name_at`` is the (line, col) of the tangle's name, where an error of a
    program without rows is reported.
    """
    orient = list(signature_orientations(signature))
    steps: list[Step] = []
    for row in rows:
        n = len(orient)
        strand_atoms = [a for a in row if a.kind != "cup"]
        cups: list[tuple[int, Atom]] = []  # (pre-row gap, cup atom)
        cursor = 0
        spans: list[tuple[str, int, int, object]] = []  # kind, start, end, extra
        for atom in row:
            if atom.kind == "cup":
                if atom.gap is not None:
                    gap = atom.gap
                elif strand_atoms:
                    gap = cursor
                else:
                    gap = n
                if not 0 <= gap <= n:
                    raise TangleError(f"cup gap {gap} out of range 0..{n}", atom.line, atom.col)
                cups.append((gap, atom))
                continue
            if atom.kind in ("pass", "dot"):
                arity = 1
                extra: object = None
            elif atom.kind == "cap":
                arity = 2
                extra = None
            else:  # box
                elem = bindings.get(atom.box_name)
                if elem is None:
                    raise TangleError(f"unbound box name {atom.box_name!r}", atom.line, atom.col)
                arity = len(elem.signature)
                extra = elem
            start = cursor + 1
            end = cursor + arity
            if end > n:
                raise TangleError(
                    f"row consumes more strands than the {n} available", atom.line, atom.col
                )
            if atom.kind == "cap":
                if orient[start - 1] == orient[end - 1]:
                    raise TangleError("cap on same-direction strands", atom.line, atom.col)
            if atom.kind == "box":
                window = tuple(orient[start - 1 : end])
                if window != extra.legs():
                    raise TangleError(
                        f"box {atom.box_name!r} legs {extra.legs()} do not match "
                        f"strand orientations {window}",
                        atom.line,
                        atom.col,
                    )
            if atom.kind != "pass":
                spans.append((atom.kind, start, end, extra))
            cursor = end
        if strand_atoms and cursor != n:
            last = row[-1]
            raise TangleError(
                f"{n - cursor} strands remain untiled in a row", last.line, last.col
            )
        # Insertion inside a consuming span would break the span's contiguity.
        for _, start, end, _ in spans:
            for gap, cup in cups:
                if start <= gap <= end - 1:
                    raise TangleError(
                        "cup inserted inside a cap/box span", cup.line, cup.col
                    )
        for gap, cup in reversed(sorted(cups, key=lambda t: t[0])):
            steps.append(("cup", gap, cup.cup_kind))
            orient[gap:gap] = [DOWN, UP] if cup.cup_kind == "du" else [UP, DOWN]
        for kind, start, end, extra in reversed(spans):
            p = start + 2 * sum(1 for g, _ in cups if g < start)
            steps.append((kind, p, extra))
            if kind != "dot":  # strands p..p+end-start close, with their regions
                del orient[p - 1 : p + end - start]
    if orient:
        line, col = (rows[-1][-1].line, rows[-1][-1].col) if rows else name_at
        raise TangleError(f"{len(orient)} strands remain after the last row", line, col)
    return TangleProgram(name, signature, tuple(steps))


# -- DSL parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<int>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[{}():;,@|*+-])"
    r"|(?P<newline>\n)"
    r"|(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<other>.)"
)


def _tokenize(text: str):
    """(type, value, line, col) for each token; integers and names are ASCII."""
    tokens: list[tuple[str, str, int, int]] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other":
            raise TangleError(f"unexpected character {value!r}", line, col)
        elif kind != "skip":
            tokens.append((kind, value, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise self.at_end("unexpected end of input")
        self.pos += 1
        return tok

    def at_end(self, message: str) -> TangleError:
        """An error at the last token read, for input that stops too early."""
        last = self.tokens[self.pos - 1]
        return TangleError(message, last[2], last[3])

    def expect(self, value: str):
        tok = self.next()
        if tok[1] != value:
            raise TangleError(f"expected {value!r}, got {tok[1]!r}", tok[2], tok[3])
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
                raise TangleError(f"expected '+' or '-', got {tok[1]!r}", tok[2], tok[3])
            tok = self.next()
            if tok[1] == ")":
                break
            if tok[1] != ",":
                raise TangleError(f"expected ',' or ')', got {tok[1]!r}", tok[2], tok[3])
        if sum(signs) != 0:
            raise TangleError("signature signs must sum to zero", tok[2], tok[3])
        return tuple(signs)

    def parse_atom(self) -> Atom:
        tok = self.next()
        line, col = tok[2], tok[3]
        if tok[1] == "|":
            return Atom("pass", line=line, col=col)
        if tok[1] == "*":
            return Atom("dot", line=line, col=col)
        if tok[0] == "ident" and tok[1] == "cap":
            return Atom("cap", line=line, col=col)
        if tok[0] == "ident" and tok[1] in ("cup_du", "cup_ud"):
            gap = None
            nxt = self.peek()
            if nxt and nxt[1] == "@":
                self.next()
                gtok = self.next()
                if gtok[0] != "int":
                    raise TangleError("expected gap index after '@'", gtok[2], gtok[3])
                gap = int(gtok[1])
            return Atom("cup", cup_kind=tok[1][-2:], gap=gap, line=line, col=col)
        if tok[0] == "ident" and tok[1] == "box":
            nm = self.next()
            if nm[0] != "ident":
                raise TangleError("expected box name", nm[2], nm[3])
            return Atom("box", box_name=nm[1], line=line, col=col)
        raise TangleError(f"unknown atom {tok[1]!r}", line, col)

    def parse_program_source(self, env: dict[str, Element]):
        self.expect("tangle")
        nm = self.next()
        if nm[0] != "ident":
            raise TangleError("expected tangle name", nm[2], nm[3])
        if nm[1] in env:
            raise TangleError(f"name {nm[1]!r} is already bound", nm[2], nm[3])
        self.expect(":")
        sig = self.parse_signature()
        self.expect("{")
        rows: list[tuple[Atom, ...]] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self.at_end("unterminated tangle body")
            if tok[1] == "}":
                self.next()
                break
            row = self.expect("row")
            atoms: list[Atom] = []
            while True:
                tok = self.peek()
                if tok is None:
                    raise self.at_end("unterminated row")
                if tok[1] == ";":
                    self.next()
                    break
                atoms.append(self.parse_atom())
            if not atoms:
                raise TangleError("empty row", row[2], row[3])
            rows.append(tuple(atoms))
        return nm, sig, tuple(rows)


def parse_programs(
    text: str, bindings: dict[str, Element] | None = None
) -> dict[str, TangleProgram]:
    """Parse a DSL source with any number of tangle definitions.

    Earlier definitions become available as box bindings for later ones
    (wrapped by :func:`as_element`).  A name that is already bound, by
    ``bindings`` or by an earlier definition, is an error.
    """
    parser = _Parser(_tokenize(text))
    env: dict[str, Element] = dict(bindings or {})
    out: dict[str, TangleProgram] = {}
    while parser.peek() is not None:
        (_, name, line, col), sig, rows = parser.parse_program_source(env)
        out[name] = compile_program(name, sig, rows, env, (line, col))
        env[name] = as_element(out[name])
    return out


def parse(text: str, bindings: dict[str, Element] | None = None) -> TangleProgram:
    """Parse a source containing exactly one tangle definition."""
    progs = parse_programs(text, bindings)
    if len(progs) != 1:
        raise TangleError(f"expected exactly one tangle, found {len(progs)}")
    return next(iter(progs.values()))


# -- evaluation ----------------------------------------------------------------

def _moves(step: Step, regs: tuple[Diagram, ...], f: HarmonicFunction):
    """The states one step takes ``regs`` to, each with its non-zero weight."""
    kind, p, x = step
    fval = f.value
    if kind == "cup":
        region = regs[p]
        for s, _c in up_covers(region) if x == "du" else down_covers(region):
            w = sqrt_fraction(fval(s) / fval(region))
            yield regs[: p + 1] + (s, region) + regs[p + 1 :], w
    elif kind == "dot":
        w, e = regs[p - 1], regs[p]
        big, small = (e, w) if sum(w) < sum(e) else (w, e)
        c = box_content(big, small)
        if c:  # content 0 annihilates the state
            yield regs, c
    elif kind == "cap":
        if regs[p - 1] == regs[p + 1]:
            yield regs[:p] + regs[p + 2 :], sqrt_fraction(fval(regs[p]) / fval(regs[p - 1]))
    else:  # box
        q2 = len(x.signature)
        if regs[p - 1] == regs[p + q2 - 1]:
            value = x.fn(LoopPath(tuple(reversed(regs[p - 1 : p + q2])), x.signature), f)
            if not value.is_zero():
                yield regs[:p] + regs[p + q2 :], value


def evaluate(program: TangleProgram, loop: LoopPath, f: HarmonicFunction) -> Surd:
    """Exact state-sum value of the program on the loop.

    A state is a tuple of regions with its amplitude; each step takes every
    state to its moves, and moves that reach equal regions merge.
    """
    if loop.signature != program.signature:
        raise TangleError(
            f"loop signature {loop.signature} does not match program "
            f"signature {program.signature}"
        )
    states: dict[tuple[Diagram, ...], Surd] = {tuple(reversed(loop.diagrams)): ONE}
    for step in program.steps:
        new_states: dict[tuple[Diagram, ...], Surd] = {}
        for regs, amp in states.items():
            for out, w in _moves(step, regs, f):
                acc = new_states.get(out)
                new_states[out] = amp * w if acc is None else acc + amp * w
        states = {k: v for k, v in new_states.items() if not v.is_zero()}
    total = Surd()
    for regions, amp in states.items():
        if len(regions) != 1 or regions[0] != loop.base:
            raise TangleError(
                f"program {program.name!r} ends in state {regions}, "
                f"not the loop base {loop.base}"
            )
        total = total + amp
    return total


def as_element(program: TangleProgram) -> Element:
    """Wrap the program as an element usable inside boxes of other tangles."""
    return Element(
        program.name, program.signature, lambda loop, f: evaluate(program, loop, f)
    )
