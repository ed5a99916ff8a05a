"""Crossing element, local relations, and diagram realizations of characters.

The crossing ``t = t_id + t_ex`` is a function of loops of signature
``(-,-,+,+)``: on a loop ``l0 > l1 > l2 < l3 < l0`` (two boxes removed, two
added back), with ``r = c(l0/l1) - c(l1/l2)``,

    t_id = delta(l1, l3) / r * sqrt(f(l2)/f(l0))
    t_ex = (1 - delta(l1, l3)) * sqrt(1 - 1/r^2) * sqrt(f(l2)/f(l0))

where ``f`` is the harmonic function the tangle is evaluated under.
Stripped of the sqrt(f/f) part these are exactly the Gelfand-Tsetlin matrix
entries of an adjacent transposition, which is why chaining crossing boxes
lifts permutations.  The five local relations are verified by evaluating
both sides as layered tangle programs over every loop up to a weight bound;
the layered presentations below were derived from the state-sum shape of
each side and re-derivable by scripts/derive_relation_programs.py.  ind_ind,
ybe and left_circle hold for every harmonic ``f``; left_turn, ind_res and
res_ind need the Plancherel function, which the sweep uses.
"""

from __future__ import annotations

import marshal
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm

from .plancherel import PLANCHEREL, HarmonicFunction, boolean_cumulant
from .surd import Surd, sqrt_fraction
from .sym_oracle import _path_sum_character
from .tangle import Element, TangleProgram, evaluate, parse
from .young import (
    Diagram,
    LoopPath,
    Record,
    Signature,
    _built_loop,
    as_partition,
    box_content,
    check_int,
    diagrams_up_to,
    dim,
    enumerate_loops,
    format_loop,
    weight,
)

CROSS_SIGNATURE: Signature = (-1, -1, 1, 1)


def _crossing(loop: LoopPath, f: HarmonicFunction, identical: bool | None) -> Surd:
    """t on the loop; only its t_id part if identical, only t_ex if not."""
    if loop.signature != CROSS_SIGNATURE:
        raise ValueError(f"crossing needs signature (-,-,+,+), got {loop.signature}")
    l0, l1, l2, l3, _ = loop.diagrams
    if identical is not None and identical != (l1 == l3):
        return Surd()
    r = box_content(l0, l1) - box_content(l1, l2)
    ratio = f.value(l2) / f.value(l0)
    if l1 == l3:
        return sqrt_fraction(ratio) * Fraction(1, r)
    return sqrt_fraction(ratio * Fraction(r * r - 1, r * r))


def cross_id(loop: LoopPath, f: HarmonicFunction) -> Surd:
    """t_id: nonzero only when the two reading paths are identical."""
    return _crossing(loop, f, True)


def cross_ex(loop: LoopPath, f: HarmonicFunction) -> Surd:
    """t_ex: nonzero only when the two added boxes are exchanged."""
    return _crossing(loop, f, False)


def cross(loop: LoopPath, f: HarmonicFunction) -> Surd:
    """t = t_id + t_ex, of which at most one is nonzero on any loop."""
    return _crossing(loop, f, None)


CROSS = Element("cross", CROSS_SIGNATURE, cross)
CROSS_ID = Element("cross_id", CROSS_SIGNATURE, cross_id)
CROSS_EX = Element("cross_ex", CROSS_SIGNATURE, cross_ex)


def dot_value(loop: LoopPath, f: HarmonicFunction) -> Surd:
    """Right-turn element on a loop (lam > mu < lam): c(lam/mu) sqrt(f(mu)/f(lam))."""
    if loop.signature != (-1, 1):
        raise ValueError(f"dot needs signature (-,+), got {loop.signature}")
    lam, mu, _ = loop.diagrams
    c = box_content(lam, mu)
    if not c:
        return Surd()
    return sqrt_fraction(f.value(mu) / f.value(lam)) * Fraction(c)


DOT = Element("dot", (-1, 1), dot_value)

BUILTIN_ELEMENTS = {
    "cross": CROSS,
    "cross_id": CROSS_ID,
    "cross_ex": CROSS_EX,
    "dot": DOT,
}


def _prog(text: str) -> TangleProgram:
    return parse(text, BUILTIN_ELEMENTS)


# Right turn as a composed tangle: the crossing closed by a turn-back.
RIGHT_TURN = _prog(
    """
    tangle right_turn : (-,+) {
      row cup_ud@1;
      row box cross;
    }
    """
)

LEFT_CIRCLE = _prog("tangle left_circle : () { row cup_du; row cap; }")
# The zero-row tangle: the constant function 1.
EMPTY_TANGLE = _prog("tangle empty : () { }")


def _x_gadget(p: int, n: int) -> str:
    """Rows crossing the up-up strand pair (p, p+1) of an n-strand slice."""
    passes_before = "| " * (p - 1)
    passes_after = "| " * (n + 1 - p)
    return (
        f"row cup_du@{p + 1};\n"
        f"row cup_du@{p + 2};\n"
        f"row {passes_before}box cross {passes_after};\n"
    )


def _nested_caps(n_pairs: int, pad: int = 0) -> str:
    """Rows closing n_pairs nested strand pairs inside pad outer pairs."""
    sides = ("| " * (t + pad) for t in range(n_pairs - 1, -1, -1))
    return "\n".join(f"row {side}cap {side};" for side in sides)


def _cycle_rows(k: int, pad: int) -> str:
    """Rows of the k-cycle, k >= 2, on the 2k strands inside pad outer pairs:
    k - 2 crossing gadgets, the middle crossing, then caps on what is left."""
    n = 2 * (k + pad)
    body = [_x_gadget(pad + j, n) for j in range(1, k - 1)]
    side = "| " * (k - 2 + pad)
    body.append(f"row {side}box cross {side};")
    body.append(_nested_caps(k - 2, pad))
    return "\n".join(body)


LEFT_TURN_LHS = _prog(
    """
    tangle left_turn_lhs : (-,+) {
      row cup_du@0;
      row cup_du@4;
      row | box cross |;
      row cap;
    }
    """
)

IND_IND_LHS = _prog(
    """
    tangle ind_ind_lhs : (-,-,+,+) {
      row cup_du@2;
      row cup_du@3;
      row box cross | | | |;
      row box cross;
    }
    """
)

IND_IND_RHS = _prog(
    "tangle ind_ind_rhs : (-,-,+,+) { row | cap |; row cap; }"
)

IND_RES_LHS = _prog(
    """
    tangle ind_res_lhs : (-,+,-,+) {
      row cup_du@2;
      row cup_du@6;
      row | | | box cross |;
      row cup_du@0;
      row | box cross |;
      row cap;
    }
    """
)

IND_RES_RHS = _prog(
    "tangle ind_res_rhs : (-,+,-,+) { row | cap |; row cap; }"
)

# The res-ind double crossing; presentation found by the program search in
# scripts/derive_relation_programs.py and pinned by the weight-6 sweep.
RES_IND_LHS = _prog(
    """
    tangle res_ind_lhs : (+,-,+,-) {
      row cup_du@0;
      row cup_ud@4;
      row cup_du@5;
      row cup_du@6;
      row | | | box cross | | | | |;
      row | | cap | | | |;
      row | box cross |;
      row cap;
    }
    """
)

RES_IND_STRAIGHT = _prog(
    "tangle res_ind_straight : (+,-,+,-) { row | cap |; row cap; }"
)

RES_IND_CUPS = _prog(
    "tangle res_ind_cups : (+,-,+,-) { row cap cap; }"
)

YBE_LHS = _prog(
    "tangle ybe_lhs : (-,-,-,+,+,+) {\n"
    + _x_gadget(2, 6)
    + _x_gadget(1, 6)
    + _x_gadget(2, 6)
    + _nested_caps(3)
    + "\n}"
)

YBE_RHS = _prog(
    "tangle ybe_rhs : (-,-,-,+,+,+) {\n"
    + _x_gadget(1, 6)
    + _x_gadget(2, 6)
    + _x_gadget(1, 6)
    + _nested_caps(3)
    + "\n}"
)


class RelationSides(Record):
    """lhs and rhs of a relation as signed combinations of programs.

    Each coefficient is a sign, 1 or -1.
    """

    __slots__ = ("name", "lhs", "rhs")
    name: str
    lhs: tuple[tuple[int, TangleProgram], ...]
    rhs: tuple[tuple[int, TangleProgram], ...]

    @property
    def signature(self) -> Signature:
        """The loop signature, read off the first program."""
        return self.lhs[0][1].signature

    def lhs_value(self, loop: LoopPath) -> Surd:
        return _side_value(self.lhs, loop)

    def rhs_value(self, loop: LoopPath) -> Surd:
        return _side_value(self.rhs, loop)


def _side_value(side: tuple[tuple[int, TangleProgram], ...], loop: LoopPath) -> Surd:
    total = None  # a one-program side is its program's value, with no sum
    for coef, prog in side:
        value = evaluate(prog, loop, PLANCHEREL)
        if coef < 0:
            value = -value
        total = value if total is None else total + value
    return Surd() if total is None else total  # an empty side is zero


RELATIONS: dict[str, RelationSides] = {
    "left_turn": RelationSides("left_turn", ((1, LEFT_TURN_LHS),), ()),
    "ind_ind": RelationSides("ind_ind", ((1, IND_IND_LHS),), ((1, IND_IND_RHS),)),
    "ind_res": RelationSides("ind_res", ((1, IND_RES_LHS),), ((1, IND_RES_RHS),)),
    "res_ind": RelationSides(
        "res_ind", ((1, RES_IND_LHS),), ((1, RES_IND_STRAIGHT), (-1, RES_IND_CUPS))
    ),
    "ybe": RelationSides("ybe", ((1, YBE_LHS),), ((1, YBE_RHS),)),
    "left_circle": RelationSides(
        "left_circle", ((1, LEFT_CIRCLE),), ((1, EMPTY_TANGLE),)
    ),
}

RELATION_IDS = tuple(RELATIONS)


def relation_sides(name: str) -> RelationSides:
    if name not in RELATIONS:
        raise ValueError(f"unknown relation {name!r}; known: {RELATION_IDS}")
    return RELATIONS[name]


class RelationReport(Record):
    """What one relation's sweep checked and which loops failed; assignable."""

    __slots__ = ("relation", "max_weight", "loops_checked", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    relation: str
    max_weight: int
    loops_checked: int
    failures: list[tuple[str, str, str]]

    @property
    def verified(self) -> bool:
        """True only if loops were checked and none failed."""
        return self.loops_checked > 0 and not self.failures

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "max_weight": self.max_weight,
            "loops_checked": self.loops_checked,
            "failures": [list(f) for f in self.failures],
        }


def _verify_base(name: str, base: Diagram) -> tuple[int, list[tuple[str, str, str]]]:
    sides = RELATIONS[name]
    checked = 0
    failures: list[tuple[str, str, str]] = []
    for loop in enumerate_loops(base, sides.signature):
        checked += 1
        lhs = sides.lhs_value(loop)
        rhs = sides.rhs_value(loop)
        if lhs != rhs:
            failures.append((format_loop(loop), lhs.render(), rhs.render()))
    return checked, failures


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class VerifyWorkerError(RuntimeError):
    """A forked verify worker ended without reporting the bases it claimed."""


_RECORD = 4  # bytes of one claim on the claims pipe: a base index, little-endian
# POSIX's least PIPE_BUF: a non-blocking write this short goes in whole or not at all.
_CHUNK = 512


def _send(feed: int, unsent: memoryview) -> memoryview:
    """Write claims to the non-blocking feed in whole chunks while the pipe
    takes them; the claims left unsent."""
    try:
        while unsent:
            os.write(feed, unsent[:_CHUNK])
            unsent = unsent[_CHUNK:]
    except BlockingIOError:
        pass
    return unsent


def _drain(name: str, bases: list[Diagram], claims: int) -> dict:
    """{index: _verify_base(name, bases[index])} for each index this process
    reads from the claims pipe, one record a read, up to its end of file."""
    done = {}
    while record := os.read(claims, _RECORD):
        index = int.from_bytes(record, "little")
        done[index] = _verify_base(name, bases[index])
    return done


def _discard(claims: int) -> None:
    """Read the claims pipe to its end of file, so that no process claims more."""
    while os.read(claims, 1 << 16):
        pass


def _worker(name: str, bases: list[Diagram], claims: int, report: int, inherited) -> None:
    """A forked child's whole life; it never returns.

    It closes the inherited fds, verifies the bases it claims and writes
    ``marshal.dumps((done, None))`` to its report pipe, or after a raise
    ``(None, pickled exception)``.  It exits 0 only once the report is written.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            result = (_drain(name, bases, claims), None)
        except BaseException as exc:
            _discard(claims)
            import pickle  # on the error path only

            result = (None, pickle.dumps(exc))
        data = memoryview(marshal.dumps(result))
        while data:
            data = data[os.write(report, data):]
        code = 0
    finally:
        os._exit(code)


def _fork_worker(name: str, bases: list[Diagram], claims: int, inherited) -> tuple[int, int]:
    """Fork one worker; its pid and the read end of its report pipe."""
    out, into = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _worker(name, bases, claims, into, (out, *inherited))
    except BaseException:
        os.close(out)
        raise
    finally:
        os.close(into)
    return pid, out


def _verify_forked(name: str, bases: list[Diagram], workers: int) -> dict:
    """{index: _verify_base(name, bases[index])} for every base, verified by
    this process and workers - 1 forks of it.

    The claims pipe holds the base indices, heaviest first, one fixed-size
    record each, and its end of file ends every process's claims.  The parent
    writes what the pipe takes before forking; while the pipe stays full it
    verifies the next unsent base itself and sends more as room frees up, and
    it closes the write end once every claim is sent or it raises.  A raise
    on either side reads the pipe empty, so the other side stops claiming.
    Every child is reaped before this returns or raises, so its CPU time
    shows in ``RUSAGE_CHILDREN``; one that ends without a report raises
    VerifyWorkerError, and one that raised passes its exception on.
    """
    claims, feed = os.pipe()
    reports = {}  # pid: the read end of that worker's report pipe
    try:
        try:
            os.set_blocking(feed, False)
            order = b"".join(i.to_bytes(_RECORD, "little") for i in reversed(range(len(bases))))
            unsent = _send(feed, memoryview(order))
            for _ in range(workers - 1):
                pid, out = _fork_worker(name, bases, claims, (feed, *reports.values()))
                reports[pid] = out
            done = {}
            while unsent := _send(feed, unsent):
                index = int.from_bytes(unsent[:_RECORD], "little")
                unsent = unsent[_RECORD:]
                done[index] = _verify_base(name, bases[index])
        finally:
            os.close(feed)
        done |= _drain(name, bases, claims)
        data = {}
        for pid, out in reports.items():
            with open(out, "rb", closefd=False) as stream:
                data[pid] = stream.read()
    except BaseException:
        _discard(claims)
        raise
    finally:
        os.close(claims)
        for out in reports.values():
            os.close(out)  # a worker still writing its report gets EPIPE and exits
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in reports}
    for pid, report in data.items():
        if codes[pid]:
            raise VerifyWorkerError(
                f"verify worker {pid} ended without a report (exit code {codes[pid]})"
            )
        part, error = marshal.loads(report)
        if error is not None:
            import pickle

            raise pickle.loads(error)
        done |= part
    return done


def verify_relation(name: str, max_weight: int, jobs: int = 1) -> RelationReport:
    """Check one relation over every loop of base weight <= max_weight.

    Results merge in base order, so the report is the same for every jobs.
    With jobs > 1 the parent and its forks, at most one per base and usable
    CPU, claim bases, heaviest first, from one pipe (:func:`_verify_forked`);
    a fork inherits the parent's memo tables as they stand.  The first
    exception on either side reaches the caller, and a worker that dies
    without a report raises VerifyWorkerError, never a partial report.
    """
    relation_sides(name)  # raises on an unknown name
    check_int("max_weight", max_weight, 1)
    check_int("jobs", jobs, 1)
    bases = diagrams_up_to(max_weight)
    workers = min(jobs, len(bases), _usable_cpus())
    if workers > 1:
        done = _verify_forked(name, bases, workers)
        results = [done[index] for index in range(len(bases))]
    else:
        results = [_verify_base(name, base) for base in bases]
    checked = sum(c for c, _ in results)
    failures = [f for _, fs in results for f in fs]
    return RelationReport(name, max_weight, checked, failures)


# -- cycle programs and closed diagrams -----------------------------------------

def cycle_program(k: int) -> TangleProgram:
    """Layered program for the k-cycle element, k >= 2: k-1 crossing boxes."""
    if check_int("k", k) < 2:
        raise ValueError("cycle_program needs k >= 2")
    sig = "(" + ",".join(["-"] * k + ["+"] * k) + ")"
    return _prog(f"tangle cycle_{k} : {sig} {{\n{_cycle_rows(k, 0)}\n}}")


def character_diagram(lam: Diagram, pi: tuple[int, ...]) -> Fraction:
    """Normalized character as the closed form of the cycle-diagram state sum.

    The state sum runs over descending paths lam = d0 > ... > dk (k = |pi|)
    with weight f(dk)/f(lam) = (n)_k dim(dk) / dim(lam), so it is the
    descending-path sum of :mod:`sym_oracle` rescaled; zero when |pi| > |lam|.
    """
    lam, pi = as_partition(lam), as_partition(pi)
    n, k = weight(lam), sum(pi)
    if k > n:
        return Fraction(0)
    return Fraction(perm(n, k) * _path_sum_character(lam, pi), dim(lam))


def _closed_value(program: TangleProgram, lam: Diagram) -> Fraction:
    return evaluate(program, _built_loop((as_partition(lam),), ()), PLANCHEREL).as_fraction()


@lru_cache(maxsize=None)
def _character_program(pi: tuple[int, ...]) -> TangleProgram:
    n = sum(pi)
    rows = [f"row cup_ud@{j};" for j in range(n)]
    pad = n
    for k in reversed(pi):  # innermost, smallest part first
        pad -= k
        rows.append(_cycle_rows(k, pad) if k > 1 else _nested_caps(1, pad))
    return _prog("tangle character : () {\n" + "\n".join(rows) + "\n}")


def character_tangle(lam: Diagram, pi: tuple[int, ...]) -> Fraction:
    """Normalized character as a closed tangle under Plancherel.

    |pi| nested cup_ud maxima, then per part, innermost first, the rows of
    its cycle (a plain cap for a part 1); zero when |pi| > |lam|.
    """
    return _closed_value(_character_program(as_partition(pi)), lam)


@lru_cache(maxsize=None)
def _circle_with_dots(kind: str, k: int) -> TangleProgram:
    rows = ["row cup_du;" if kind == "ccw" else "row cup_ud;"]
    rows += ["row * |;"] * k
    rows.append("row cap;")
    return _prog(f"tangle circle : () {{ {' '.join(rows)} }}")


def moment_diagram(lam: Diagram, k: int) -> Fraction:
    """k-th moment as the counterclockwise circle with k dots."""
    check_int("k", k, 1)
    return _closed_value(_circle_with_dots("ccw", k), lam)


def cumulant_diagram(lam: Diagram, k: int) -> Fraction:
    """Boolean cumulant B_(k+2) as the clockwise circle with k dots."""
    check_int("k", k, 0)
    return _closed_value(_circle_with_dots("cw", k), lam)


# -- Boolean-cumulant expansion of normalized characters ------------------------

class KerovUnderdeterminedError(ValueError):
    """Not enough sample diagrams to pin the expansion; raise sample_weight."""


class KerovInconsistentError(ValueError):
    """The sampled values admit no expansion (implementation bug)."""


Monomial = tuple[tuple[int, int], ...]  # ((k, exponent), ...) sorted by k


def _monomials(ks: list[int], max_weight: int, parity: int) -> list[Monomial]:
    out: list[Monomial] = []

    def build(idx: int, remaining: int, acc: list[tuple[int, int]]):
        if idx == len(ks):
            w = max_weight - remaining
            if w % 2 == parity:
                out.append(tuple(acc))
            return
        k = ks[idx]
        e = 0
        while e * k <= remaining:
            build(idx + 1, remaining - e * k, acc + ([(k, e)] if e else []))
            e += 1

    build(0, max_weight, [])
    out.sort()
    return out


def kerov_boolean_expansion(
    pi: tuple[int, ...], sample_weight: int
) -> dict[Monomial, Fraction]:
    """Exact expansion of Sigma_pi as a polynomial in B_2, B_3, ...

    Monomials range over B_k, 2 <= k <= |pi| - len(pi) + 2, of weighted
    degree sum(k * e_k) <= |pi| + len(pi), filtered by the transpose parity
    rule sum(k * e_k) == |pi| - len(pi) mod 2.  Solved exactly by sampling
    all diagrams of weight <= sample_weight, in the fraction-free
    elimination of :func:`_solve_exact`.
    """
    check_int("sample_weight", sample_weight, 0)
    pi = as_partition(pi)
    n, ell = sum(pi), len(pi)
    ks = list(range(2, n - ell + 3))
    mons = _monomials(ks, n + ell, (n - ell) % 2)
    samples = diagrams_up_to(sample_weight)
    rows = []
    for lam in samples:
        b = {k: boolean_cumulant(lam, k) for k in ks}
        row = [
            _eval_monomial(m, b) for m in mons
        ]
        rows.append((row, character_diagram(lam, pi)))
    solution = _solve_exact(rows, len(mons))
    return {m: c for m, c in zip(mons, solution) if c}


def _eval_monomial(m: Monomial, b: dict[int, Fraction]) -> Fraction:
    acc = Fraction(1)
    for k, e in m:
        acc *= b[k] ** e
    return acc


def _primitive(row: list[int]) -> list[int]:
    """The int row divided by the gcd of its entries (a zero row stays)."""
    g = gcd(*row) or 1
    return [x // g for x in row]


def _solve_exact(rows, m: int) -> list[Fraction]:
    """The unique solution of the (row, value) system in m unknowns; raises
    KerovInconsistentError when there is none, else KerovUnderdeterminedError
    when it is not unique.

    Fraction-free Gauss-Jordan: each row, int or Fraction entries, is scaled
    to ints by the lcm of its denominators; eliminating with pivot a turns
    row_i into a row_i - b row_r, made primitive again, so every entry stays
    an int.  Each unknown is then one Fraction(value, pivot).
    """
    mat = []
    for r, v in rows:
        row = [*r, v]
        d = lcm(*(x.denominator for x in row))
        mat.append(_primitive([x.numerator * (d // x.denominator) for x in row]))
    pivots: list[int] = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pivot_row = mat[r]
        a = pivot_row[c]
        for i in range(len(mat)):
            b = mat[i][c]
            if i != r and b:
                mat[i] = _primitive([a * x - b * y for x, y in zip(mat[i], pivot_row)])
        pivots.append(c)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][m]:
            raise KerovInconsistentError("no polynomial fits the sampled values")
    if len(pivots) < m:
        raise KerovUnderdeterminedError(
            f"rank {len(pivots)} < {m} monomials; increase sample_weight"
        )
    sol = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        sol[c] = Fraction(mat[i][m], mat[i][c])
    return sol


def kerov_p_polynomial(
    pi: tuple[int, ...], expansion: dict[Monomial, Fraction]
) -> dict[Monomial, Fraction]:
    """Coefficients of P_pi, where (-1)^len(pi) Sigma_pi = P_pi(-B_2, ...)."""
    ell = len(as_partition(pi))
    out = {}
    for mon, coef in expansion.items():
        if not coef:
            continue
        deg = sum(e for _, e in mon)
        out[mon] = coef * (-1) ** (ell + deg)
    return out


def render_monomial(m: Monomial, var: str = "B") -> str:
    if not m:
        return "1"
    return "*".join(
        f"{var}{k}" + (f"^{e}" if e > 1 else "") for k, e in m
    )


def render_expansion(expansion: dict[Monomial, Fraction], var: str = "B") -> str:
    parts = []
    for mon in sorted(expansion):
        c = expansion[mon]
        if not c:
            continue
        body = render_monomial(mon, var)
        if body == "1":
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
