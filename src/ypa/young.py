"""Young diagrams, the Young graph, profiles, loops, and their literals.

Diagrams are tuples of weakly decreasing positive integers (no trailing
zeros); the empty tuple is the empty diagram.  An edge ``mu -> lam`` of
the Young graph adds one box; a loop's sign per step is 1 (adds) or -1.

The cover maps are the one edge table: :func:`profile` and
:func:`box_content` read the contents of the boxes off them, and
:func:`skew_dims` counts paths along them (:func:`dim` is the hook-length
formula).  They reject a tuple that is not a partition, so everything that
reads the Young graph checks each diagram once, on its first visit.

The input rules live here, one each: :func:`as_partition` for a diagram,
:func:`check_int` for an int parameter (``True`` and ``2.0`` are not ints),
:func:`check_rational` for an exact rational (an int or a ``Fraction``) and
:func:`check_signature` for a tuple of signs.  Every public function of
``young``, ``plancherel``, ``heisenberg`` and ``frobenius`` that takes an
int checks it with :func:`check_int`, once per call, before any cache
lookup, process pool or sampling; loops and tangle elements check their
signs with :func:`check_signature`.  Nothing is coerced.

Caching: :func:`skew_dims`, :func:`dim`, :func:`profile` and the cover maps
use per-process ``functools.cache`` tables; :func:`profile` and
:func:`skew_dims` check their input before their tables.  ``plancherel._SERIES`` is a
per-process dict as well: the integer Laurent expansions of G and H per
diagram, whose lists grow in place when a larger order is asked for; its
callers pass the diagram through :func:`as_partition` first.  Under the
process-pool verifier the parent verifies its own share of the bases, so its
tables persist across calls as in a serial run; each worker is forked per
call with a copy of them, and what it adds stays its own.  Within one process
CPython's GIL makes the idempotent cache inserts safe, and no ``ypa`` code
extends ``_SERIES`` from two threads, so no further locking is needed.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import factorial, prod
from operator import ge
from types import MappingProxyType

Diagram = tuple[int, ...]
Signature = tuple[int, ...]  # entries +1 / -1

EMPTY: Diagram = ()


_INT = frozenset((int,))


def is_diagram(parts: tuple) -> bool:
    """Every part of type int (True is not a part), weakly decreasing, and
    the last one positive; the type test comes first, so no other kind of
    part is compared."""
    return (
        _INT.issuperset(map(type, parts))
        and all(map(ge, parts, parts[1:]))
        and (not parts or parts[-1] > 0)
    )


def as_partition(parts) -> Diagram:
    """parts as a tuple, or ValueError if they are not a partition."""
    parts = tuple(parts)
    if not is_diagram(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def check_int(name: str, value, lo: int | None = None) -> int:
    """value, or ValueError unless it is an int (True and 2.0 are not) >= lo."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    return value


def check_rational(name: str, value):
    """value, or ValueError unless it is an int (True is not) or a Fraction."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    return value


def check_signature(sig, owner: str) -> Signature:
    """sig, or ValueError unless it is a tuple of the ints 1 and -1 summing to 0."""
    if type(sig) is not tuple:
        raise ValueError(f"{owner} signature must be a tuple")
    for s in sig:
        if type(s) is not int or s not in (1, -1):
            raise ValueError(f"{owner} sign {s!r} is not 1 or -1")
    if sum(sig):
        raise ValueError(f"{owner} signature {sig} does not sum to 0")
    return sig


class LiteralError(ValueError):
    """A malformed diagram or loop literal."""


def weight(lam: Diagram) -> int:
    return sum(lam)


def transpose(lam: Diagram) -> Diagram:
    if not lam:
        return EMPTY
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


@cache
def up_covers(lam: Diagram) -> tuple[tuple[Diagram, int], ...]:
    """All (mu, content) with lam -> mu by adding one box."""
    lam = as_partition(lam)
    out = []
    l = len(lam)
    for i in range(1, l + 2):
        here = lam[i - 1] if i <= l else 0
        above = lam[i - 2] if i >= 2 else None
        if above is None or above > here:
            mu = list(lam) + ([0] if i == l + 1 else [])
            mu[i - 1] += 1
            out.append((tuple(mu), here + 1 - i))
    return tuple(out)


@cache
def down_covers(lam: Diagram) -> tuple[tuple[Diagram, int], ...]:
    """All (mu, content) with mu -> lam, i.e. removing one box from lam."""
    lam = as_partition(lam)
    out = []
    l = len(lam)
    for i in range(1, l + 1):
        here = lam[i - 1]
        below = lam[i] if i < l else 0
        if here > below:
            mu = list(lam)
            mu[i - 1] -= 1
            if not mu[-1]:
                mu.pop()
            out.append((tuple(mu), here - i))
    return tuple(out)


def profile(lam: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Local minima and maxima of the Russian-convention profile.

    Minima are the contents of addable boxes, maxima of removable boxes;
    they interlace strictly and share the same sum.  lam goes through
    :func:`as_partition` before the cache, so ``(True, 1)`` never reads the
    entry of ``(1, 1)``.
    """
    return _profile(as_partition(lam))


@cache
def _profile(lam: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (
        tuple(sorted(c for _, c in up_covers(lam))),
        tuple(sorted(c for _, c in down_covers(lam))),
    )


def box_content(big: Diagram, small: Diagram) -> int:
    """Content of the single box of big/small; requires small -> big."""
    for mu, c in down_covers(big):
        if mu == small:
            return c
    raise ValueError(f"{big} does not cover {small}")


def skew_dims(lam: Diagram, k: int) -> Mapping[Diagram, int]:
    """Each mu of weight k below lam, with f^(lam/mu), its number of
    saturated paths up to lam.

    This is the one path counter: it counts level by level down the cover
    maps, from lam to level k, so a long diagram costs no recursion depth.
    lam and k are checked before the cache, as in :func:`profile`.
    """
    lam = as_partition(lam)
    n = weight(lam)
    if not 0 <= check_int("level", k) <= n:
        raise ValueError(f"level {k} is not in 0..{n}")
    return _skew_dims(lam, k)


@cache
def _skew_dims(lam: Diagram, k: int) -> Mapping[Diagram, int]:
    level = {lam: 1}  # each diagram below lam, with its paths up to lam
    for _ in range(weight(lam) - k):
        below: dict[Diagram, int] = {}
        for nu, paths in level.items():
            for mu, _ in down_covers(nu):
                below[mu] = below.get(mu, 0) + paths
        level = below
    return MappingProxyType(level)


@cache
def dim(lam: Diagram) -> int:
    """The number of paths from the empty diagram to lam, or of standard
    tableaux: |lam|! / prod(hook lengths).  :func:`skew_dims` counts paths."""
    lam = as_partition(lam)
    return factorial(weight(lam)) // prod(hook_lengths(lam))


def hook_lengths(lam: Diagram) -> list[int]:
    lamt = transpose(lam)
    return [
        lam[i] + lamt[j] - (i + 1) - (j + 1) + 1
        for i in range(len(lam))
        for j in range(lam[i])
    ]


class Record:
    """A record of the fields named in its class's ``__slots__``.

    Records of one class compare, hash and show field-wise, and are frozen:
    assigning or deleting a field raises ``AttributeError``.  The base
    ``__init__`` takes the fields positionally; a class writes its own where
    it checks them.  A mutable record sets ``__setattr__``, ``__delattr__``
    and ``__hash__`` back to ``object``'s; a ``"__dict__"`` slot is not a
    field.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LoopPath(Record):
    """A loop in the Young graph together with its signature.

    ``diagrams`` must be a tuple; every diagram goes through
    :func:`as_partition`, so a list of parts is stored as its tuple, and
    every step must be a cover.  Loops the engine builds from the cover
    maps skip these checks: see :func:`_built_loop`.
    """

    __slots__ = ("diagrams", "signature")
    diagrams: tuple[Diagram, ...]
    signature: Signature

    def __init__(self, diagrams: tuple[Diagram, ...], signature: Signature):
        n = len(check_signature(signature, "loop"))
        if type(diagrams) is not tuple:
            raise ValueError("loop diagrams must be a tuple")
        if len(diagrams) != n + 1:
            raise ValueError("loop needs one more diagram than signs")
        diagrams = tuple(map(as_partition, diagrams))
        if diagrams[0] != diagrams[-1]:
            raise ValueError("loop must end where it starts")
        for i, s in enumerate(signature):
            a, b = diagrams[i], diagrams[i + 1]
            big, small = (b, a) if s > 0 else (a, b)
            box_content(big, small)  # raises if not a cover
        object.__setattr__(self, "diagrams", diagrams)
        object.__setattr__(self, "signature", signature)

    @property
    def base(self) -> Diagram:
        return self.diagrams[0]

    def __len__(self) -> int:
        return len(self.signature)


def _built_loop(diagrams: tuple[Diagram, ...], sig: Signature) -> LoopPath:
    """A LoopPath without the checks of its ``__init__``, for the loops the
    engine builds from the cover maps or one checked partition: the walk of
    :func:`enumerate_loops`, a state sum's box windows and a closed
    diagram's one-diagram loop."""
    loop = object.__new__(LoopPath)
    object.__setattr__(loop, "diagrams", diagrams)
    object.__setattr__(loop, "signature", sig)
    return loop


def enumerate_loops(base: Diagram, sig: Signature) -> list[LoopPath]:
    """All loops with the given base and signature, in lexicographic order.

    The base goes through :func:`as_partition` first, so a list is read as
    its tuple and ``(True, 1)`` raises whatever the cover caches hold.  The
    walk follows the cover maps, which hold partitions only, so its loops
    skip the re-check of every step.  It stops one step short: a prefix
    closes into a loop when its last diagram is one of the base's covers in
    the last sign's direction.
    """
    check_signature(sig, "loop")
    base = as_partition(base)
    if not sig:
        return [_built_loop((base,), sig)]
    # The last step adds a box when its sign is +1, so it comes from below.
    closers = {mu for mu, _ in (down_covers(base) if sig[-1] > 0 else up_covers(base))}
    last = len(sig) - 1
    out: list[LoopPath] = []

    def walk(prefix: list[Diagram]):
        k = len(prefix) - 1
        if k == last:
            if prefix[-1] in closers:
                out.append(_built_loop((*prefix, base), sig))
            return
        nxt = up_covers(prefix[-1]) if sig[k] > 0 else down_covers(prefix[-1])
        for mu, _ in nxt:
            prefix.append(mu)
            walk(prefix)
            prefix.pop()

    walk([base])
    out.sort(key=lambda lp: lp.diagrams)
    return out


# -- literals -----------------------------------------------------------------

_DIAGRAM_RE = re.compile(r"\[\s*(?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?\]")


def parse_diagram(text: str) -> Diagram:
    """Parse ``[5,4,2,1,1]`` (``[]`` is the empty diagram)."""
    text = text.strip()
    if not _DIAGRAM_RE.fullmatch(text):
        raise LiteralError(f"bad diagram literal: {text!r}")
    inner = text[1:-1].strip()
    lam = tuple(int(p) for p in inner.split(",")) if inner else EMPTY
    if not is_diagram(lam):
        raise LiteralError(f"not weakly decreasing positive parts: {list(lam)}")
    return lam


def format_diagram(lam: Diagram) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


_LOOP_TOKEN_RE = re.compile(
    rf"(?P<diagram>{_DIAGRAM_RE.pattern})|(?P<step>[\^v])|(?P<skip>\s+)|(?P<other>.)"
)


def parse_loop(text: str) -> LoopPath:
    """Parse ``[2,1] v [2] v [1] ^ [1,1] ^ [2,1]``; a bare diagram is a loop
    of empty signature.  Any whitespace may stand between tokens and inside
    brackets."""
    tokens: list[str] = []
    for m in _LOOP_TOKEN_RE.finditer(text):
        if m.lastgroup == "other":
            raise LiteralError(f"bad loop literal {text!r} at {text[m.start():]!r}")
        if m.lastgroup != "skip":
            tokens.append(m.group())
    if not tokens:
        raise LiteralError("empty loop literal")
    markers = {"^": 1, "v": -1}
    for i, tok in enumerate(tokens):
        if (tok in markers) != (i % 2 == 1):
            expected = "'^' or 'v'" if i % 2 else "a diagram"
            raise LiteralError(f"expected {expected}, got {tok!r}")
    if len(tokens) % 2 == 0:
        raise LiteralError("loop literal ends after a step marker")
    diagrams = tuple(parse_diagram(t) for t in tokens[::2])
    try:
        return LoopPath(diagrams, tuple(markers[t] for t in tokens[1::2]))
    except ValueError as exc:
        raise LiteralError(f"bad loop literal {text!r}: {exc}") from exc


def format_loop(loop: LoopPath) -> str:
    parts = [format_diagram(loop.diagrams[0])]
    for s, lam in zip(loop.signature, loop.diagrams[1:]):
        parts.append("^" if s > 0 else "v")
        parts.append(format_diagram(lam))
    return " ".join(parts)


def diagrams_of_weight(n: int) -> list[Diagram]:
    """All diagrams of weight exactly n, lexicographically decreasing parts."""
    check_int("n", n, 0)
    out: list[Diagram] = []

    def build(remaining: int, maxpart: int, prefix: list[int]):
        if not remaining:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            prefix.append(p)
            build(remaining - p, p, prefix)
            prefix.pop()

    build(n, n if n else 1, [])
    return out


def diagrams_up_to(n: int) -> list[Diagram]:
    """All diagrams of weight <= n; none for a negative n."""
    check_int("n", n)
    out: list[Diagram] = []
    for k in range(n + 1):
        out.extend(diagrams_of_weight(k))
    return out
