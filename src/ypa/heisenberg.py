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
both sides as layered tangle programs over every loop up to a weight bound.
All thirteen programs, the relation sides and the right turn, are one ``.tng``
source, parsed on first use by :func:`programs`; a table names each
relation's signed sides.  The presentations were derived from the state-sum
shape of each side and are re-derivable by
scripts/derive_relation_programs.py.  ind_ind, ybe and left_circle hold for
every harmonic ``f``; left_turn, ind_res and res_ind need the Plancherel
function, which the sweep uses.
"""

from __future__ import annotations

import marshal
import os
import select
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm, perm, prod

from .plancherel import PLANCHEREL, HarmonicFunction, boolean_cumulant
from .surd import Surd, signed_sum, sqrt_fraction
from .sym_oracle import _path_sum_character
from .tangle import Element, TangleProgram, evaluate, parse, parse_programs
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


# Every relation side and the right turn, one tangle per name; read by
# programs().  The ybe sides are composed from crossing gadgets.
_RELATION_SOURCE = """
# Right turn as a composed tangle: the crossing closed by a turn-back.
tangle right_turn : (-,+) {
  row cup_ud@1;
  row box cross;
}

tangle left_circle : () { row cup_du; row cap; }
# The zero-row tangle: the constant function 1.
tangle empty : () { }

tangle left_turn_lhs : (-,+) {
  row cup_du@0;
  row cup_du@4;
  row | box cross |;
  row cap;
}

tangle ind_ind_lhs : (-,-,+,+) {
  row cup_du@2;
  row cup_du@3;
  row box cross | | | |;
  row box cross;
}

tangle ind_ind_rhs : (-,-,+,+) { row | cap |; row cap; }

tangle ind_res_lhs : (-,+,-,+) {
  row cup_du@2;
  row cup_du@6;
  row | | | box cross |;
  row cup_du@0;
  row | box cross |;
  row cap;
}

tangle ind_res_rhs : (-,+,-,+) { row | cap |; row cap; }

# The res-ind double crossing; presentation found by the program search in
# scripts/derive_relation_programs.py and pinned by the weight-6 sweep.
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

tangle res_ind_straight : (+,-,+,-) { row | cap |; row cap; }

tangle res_ind_cups : (+,-,+,-) { row cap cap; }
""" + "".join(
    f"tangle {name} : (-,-,-,+,+,+) {{\n"
    + "".join(_x_gadget(p, 6) for p in order)
    + _nested_caps(3)
    + "\n}\n"
    for name, order in (("ybe_lhs", (2, 1, 2)), ("ybe_rhs", (1, 2, 1)))
)

# Each relation's lhs and rhs as signed tangle names of _RELATION_SOURCE.
_RELATION_TABLE = {
    "left_turn": (((1, "left_turn_lhs"),), ()),
    "ind_ind": (((1, "ind_ind_lhs"),), ((1, "ind_ind_rhs"),)),
    "ind_res": (((1, "ind_res_lhs"),), ((1, "ind_res_rhs"),)),
    "res_ind": (((1, "res_ind_lhs"),), ((1, "res_ind_straight"), (-1, "res_ind_cups"))),
    "ybe": (((1, "ybe_lhs"),), ((1, "ybe_rhs"),)),
    "left_circle": (((1, "left_circle"),), ((1, "empty"),)),
}

RELATION_IDS = tuple(_RELATION_TABLE)


@cache
def programs() -> dict[str, TangleProgram]:
    """The programs of _RELATION_SOURCE by tangle name, parsed on first use.

    The dict is shared: read it, never change it.
    """
    return parse_programs(_RELATION_SOURCE, BUILTIN_ELEMENTS)


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

    def lhs_values(self, loops: list[LoopPath]) -> list[Surd]:
        return _side_values(self.lhs, loops)

    def rhs_values(self, loops: list[LoopPath]) -> list[Surd]:
        return _side_values(self.rhs, loops)


def _side_values(
    side: tuple[tuple[int, TangleProgram], ...], loops: list[LoopPath]
) -> list[Surd]:
    """The side's value on each loop; each program runs once, on every loop."""
    totals = None  # a one-program side is its program's values, with no sum
    for coef, prog in side:
        values = evaluate(prog, loops, PLANCHEREL)
        if coef < 0:
            values = [-value for value in values]
        totals = values if totals is None else [a + b for a, b in zip(totals, values)]
    return [Surd() for _ in loops] if totals is None else totals  # an empty side is zero


def relation_sides(name: str) -> RelationSides:
    """The named relation's sides, built on first use; raises ValueError on
    anything but one of RELATION_IDS."""
    if not isinstance(name, str) or name not in _RELATION_TABLE:
        raise ValueError(f"unknown relation {name!r}; known: {RELATION_IDS}")
    return _built_sides(name)


@cache
def _built_sides(name: str) -> RelationSides:
    progs = programs()
    lhs, rhs = _RELATION_TABLE[name]
    return RelationSides(
        name,
        tuple((coef, progs[prog]) for coef, prog in lhs),
        tuple((coef, progs[prog]) for coef, prog in rhs),
    )


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
    sides = relation_sides(name)
    loops = enumerate_loops(base, sides.signature)
    failures = [
        (format_loop(loop), lhs.render(), rhs.render())
        for loop, lhs, rhs in zip(loops, sides.lhs_values(loops), sides.rhs_values(loops))
        if lhs != rhs
    ]
    return len(loops), failures


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class VerifyWorkerError(RuntimeError):
    """A forked verify worker ended without reporting the bases it claimed."""


_RECORD = 4  # bytes of one claim on the claims pipe: a base index, little-endian
_CLAIMS = getattr(select, "PIPE_BUF", 512) // _RECORD  # the most one atomic write holds


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

    It closes the inherited report fds (no claims write end is open), claims
    bases up to the pipe's end of file and writes ``marshal.dumps((done,
    None))`` to its report pipe, or after a raise ``(None, pickled
    exception)``.  It exits 0 only once the report is written.
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


def _verify_claimed(name: str, bases: list[Diagram], workers: int) -> dict:
    """{index: _verify_base(name, bases[index])} for every base, verified by
    this process and workers - 1 forks of it.

    Before any fork the parent writes the _CLAIMS heaviest base indices,
    heaviest first, to the claims pipe in one write, which goes in whole, and
    closes its write end.  It then forks, verifies the lighter bases itself
    (none up to 1,024 bases on Linux) and drains the pipe with the children.
    A raise on either side reads the pipe empty, so the other side stops
    claiming; a child's raise reaches the caller once the parent's lighter
    bases are done.  Every child is reaped before this returns or raises
    (its CPU time shows in ``RUSAGE_CHILDREN``); one that ends without a
    report raises VerifyWorkerError, and one that raised passes it on.
    """
    light = max(len(bases) - _CLAIMS, 0)  # the bases the parent keeps
    heaviest_first = reversed(range(light, len(bases)))
    claims, feed = os.pipe()
    reports = {}  # pid: the read end of that worker's report pipe
    try:
        with open(feed, "wb", buffering=0) as writer:  # one os.write, then closed
            writer.write(b"".join(i.to_bytes(_RECORD, "little") for i in heaviest_first))
        for _ in range(workers - 1):
            pid, out = _fork_worker(name, bases, claims, tuple(reports.values()))
            reports[pid] = out
        done = {index: _verify_base(name, bases[index]) for index in range(light)}
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
    Every jobs runs :func:`_verify_claimed` with at most one process per base
    and usable CPU, the parent included; jobs=1 forks nothing.  A fork
    inherits the parent's memo tables as they stand.  The first exception on
    either side reaches the caller, and a worker that dies without a report
    raises VerifyWorkerError, never a partial report.
    """
    relation_sides(name)  # raises on an unknown name
    check_int("max_weight", max_weight, 1)
    check_int("jobs", jobs, 1)
    bases = diagrams_up_to(max_weight)
    done = _verify_claimed(name, bases, min(jobs, len(bases), _usable_cpus()))
    results = [done[index] for index in range(len(bases))]
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
    loop = _built_loop((as_partition(lam),), ())
    return evaluate(program, [loop], PLANCHEREL)[0].as_fraction()


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
    """Sorted monomials in B_k, k in the range ks, of weighted degree <= max_weight
    and the given parity: the (part, multiplicity) pairs of partitions."""
    return sorted(
        tuple(sorted(Counter(mu).items()))
        for mu in diagrams_up_to(max_weight)
        if weight(mu) % 2 == parity and all(ks[0] <= part <= ks[-1] for part in mu)
    )


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
        b = {k: boolean_cumulant(lam, k).numerator for k in ks}  # each an int
        row = [prod(b[k] ** e for k, e in m) for m in mons]
        rows.append((row, character_diagram(lam, pi)))
    solution = _solve_exact(rows, len(mons))
    return {m: c for m, c in zip(mons, solution) if c}


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
    terms = []
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
        terms.append((term, c > 0))
    return signed_sum(terms)
