"""Finite root systems with exact integer coordinates.

Roots are stored as integer vectors in the classical orthogonal realizations
(types with half-integer coordinates are scaled by 2, which changes no pairing
or Cartan datum).  The non-reduced family BC is admitted because restricted
root systems of real forms may be non-reduced; everything else follows the
standard Bourbaki conventions, including the simple-root ordering.

Simple-root coefficients are integer data as well: ``build_root_system``
inverts the simple-root matrix once, as integers over one common denominator,
and stores every root's coefficients as integers on the ``RootSystem``.  The
positivity test, heights and the highest root read those stored integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import exactla

REDUCED_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
FAMILIES = REDUCED_FAMILIES + ("BC",)

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
    "BC": (1, None),
}


class RootSystemError(ValueError):
    pass


@dataclass(frozen=True)
class RootSystemLabel:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            hi_txt = hi if hi is not None else "inf"
            raise RootSystemError(
                f"{self.family}{self.rank}: rank must be in [{lo}, {hi_txt}]"
            )

    @staticmethod
    def parse(text: str) -> "RootSystemLabel":
        fam = "BC" if text.startswith("BC") else text[0]
        try:
            rank = int(text[len(fam):])
        except ValueError as exc:
            raise RootSystemError(f"cannot parse label {text!r}") from exc
        return RootSystemLabel(fam, rank)

    @property
    def reduced(self) -> bool:
        return self.family != "BC"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


Vec = tuple[int, ...]


def _dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _e(n: int, i: int, c: int = 1) -> Vec:
    v = [0] * n
    v[i] = c
    return tuple(v)


def _classical_roots(label: RootSystemLabel) -> tuple[list[Vec], list[Vec]]:
    """(simple roots, all roots) in the fixed integer realization."""
    fam, r = label.family, label.rank
    if fam == "A":
        n = r + 1
        simple = [tuple(_e(n, i)[k] - _e(n, i + 1)[k] for k in range(n)) for i in range(r)]
        roots = [
            tuple(_e(n, i)[k] - _e(n, j)[k] for k in range(n))
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        return simple, roots
    if fam in ("B", "C", "D", "BC"):
        n = r
        pm = [
            tuple(si * _e(n, i)[k] + sj * _e(n, j)[k] for k in range(n))
            for i in range(n)
            for j in range(i + 1, n)
            for si in (1, -1)
            for sj in (1, -1)
        ]
        short = [_e(n, i, s) for i in range(n) for s in (1, -1)]
        long2 = [_e(n, i, 2 * s) for i in range(n) for s in (1, -1)]
        chain = [tuple(_e(n, i)[k] - _e(n, i + 1)[k] for k in range(n)) for i in range(r - 1)]
        if fam == "B":
            return chain + [_e(n, r - 1)], pm + short
        if fam == "C":
            return chain + [_e(n, r - 1, 2)], pm + long2
        if fam == "D":
            last = tuple(_e(n, r - 2)[k] + _e(n, r - 1)[k] for k in range(n))
            return chain + [last], pm
        return chain + [_e(n, r - 1)], pm + short + long2  # BC
    if fam == "G":
        simple = [(1, -1, 0), (-2, 1, 1)]
        roots = []
        for i, j in itertools.permutations(range(3), 2):
            roots.append(tuple(_e(3, i)[k] - _e(3, j)[k] for k in range(3)))
        for i, j, k in itertools.permutations(range(3), 3):
            if j < k:
                w = [0, 0, 0]
                w[i] = 2
                w[j] = -1
                w[k] = -1
                roots.append(tuple(w))
                roots.append(_neg(tuple(w)))
        return simple, roots
    if fam == "F":
        # Scaled by 2 so every coordinate is an integer.
        roots = [_e(4, i, 2 * s) for i in range(4) for s in (1, -1)]
        roots += [
            tuple(2 * si * _e(4, i)[k] + 2 * sj * _e(4, j)[k] for k in range(4))
            for i in range(4)
            for j in range(i + 1, 4)
            for si in (1, -1)
            for sj in (1, -1)
        ]
        roots += [tuple(s) for s in itertools.product((1, -1), repeat=4)]
        simple = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
        return simple, roots
    # E6, E7, E8 realized inside the scaled E8 lattice.
    e8 = [
        tuple(2 * si * _e(8, i)[k] + 2 * sj * _e(8, j)[k] for k in range(8))
        for i in range(8)
        for j in range(i + 1, 8)
        for si in (1, -1)
        for sj in (1, -1)
    ]
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            e8.append(signs)
    simple8 = [
        (1, -1, -1, -1, -1, -1, -1, 1),
        (2, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, 0, 0, 0, 0, 0, 0),
        (0, -2, 2, 0, 0, 0, 0, 0),
        (0, 0, -2, 2, 0, 0, 0, 0),
        (0, 0, 0, -2, 2, 0, 0, 0),
        (0, 0, 0, 0, -2, 2, 0, 0),
        (0, 0, 0, 0, 0, -2, 2, 0),
    ]
    if r == 8:
        return simple8, e8
    w7 = (0, 0, 0, 0, 0, 0, 1, 1)
    roots7 = [b for b in e8 if _dot(b, w7) == 0]
    if r == 7:
        return simple8[:7], roots7
    w6 = (0, 0, 0, 0, 0, 1, 0, 1)
    return simple8[:6], [b for b in roots7 if _dot(b, w6) == 0]


_CLASSICAL_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "BC": lambda r: 2 * r * (r + 1),
    "G": lambda r: 12,
    "F": lambda r: 48,
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
}


@dataclass(frozen=True)
class _SimpleRootInverse:
    """Exact inverse of the simple-root matrix, as integers over one denominator.

    ``pivots`` are the first ambient coordinates on which the simple roots are
    independent; ``inverse`` is ``denom`` times the inverse of the simple-root
    matrix restricted to those rows.
    """

    simple_roots: tuple[Vec, ...]
    pivots: tuple[int, ...]
    inverse: tuple[tuple[int, ...], ...]
    denom: int

    @staticmethod
    def of(simple_roots: tuple[Vec, ...]) -> "_SimpleRootInverse":
        rank = len(simple_roots)
        _, pivots = exactla.rref([[Fraction(x) for x in s] for s in simple_roots])
        if len(pivots) != rank:
            raise RootSystemError("simple roots are not independent")
        aug = [
            [Fraction(s[p]) for s in simple_roots]
            + [Fraction(1 if i == j else 0) for j in range(rank)]
            for i, p in enumerate(pivots)
        ]
        inv = [row[rank:] for row in exactla.rref(aug)[0]]
        denom = math.lcm(*(x.denominator for row in inv for x in row))
        return _SimpleRootInverse(
            simple_roots=simple_roots,
            pivots=tuple(pivots),
            inverse=tuple(tuple(int(x * denom) for x in row) for row in inv),
            denom=denom,
        )

    def numerators(self, v: Vec) -> tuple[int, ...]:
        """``denom`` times the simple-root coefficients of ``v``.

        Every ambient row is checked, so a vector off the span of the simple
        roots raises ``RootSystemError``.
        """
        if len(v) != len(self.simple_roots[0]):
            raise RootSystemError(f"{v} is not in the root lattice span")
        rhs = [v[p] for p in self.pivots]
        num = tuple(_dot(row, rhs) for row in self.inverse)
        for r, x in enumerate(v):
            if sum(s[r] * n for s, n in zip(self.simple_roots, num)) != self.denom * x:
                raise RootSystemError(f"{v} is not in the root lattice span")
        return num


@dataclass(frozen=True)
class RootSystem:
    """Validated root system with simple roots in Bourbaki order.

    ``coefficients`` maps every root to its simple-root coefficients: integers
    computed once at construction, all >= 0 on ``positive_roots`` and all <= 0
    on the other roots.
    """

    label: RootSystemLabel
    simple_roots: tuple[Vec, ...]
    all_roots: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    coefficients: dict[Vec, tuple[int, ...]] = field(repr=False, compare=False)
    simple_inverse: _SimpleRootInverse = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.label.rank

    def inner(self, u: Vec, v: Vec) -> int:
        return _dot(u, v)

    def is_root(self, v: Vec) -> bool:
        return tuple(v) in self.coefficients

    def simple_coefficients(self, root: Vec) -> tuple[Fraction, ...]:
        """Coefficients of ``root`` in the simple-root basis.

        A root reads its stored integers; any other vector is solved with the
        same integer inverse and raises ``RootSystemError`` off the span of
        the simple roots.
        """
        root = tuple(root)
        coeffs = self.coefficients.get(root)
        if coeffs is not None:
            return tuple(Fraction(c) for c in coeffs)
        denom = self.simple_inverse.denom
        return tuple(Fraction(n, denom) for n in self.simple_inverse.numerators(root))

    def height(self, root: Vec) -> Fraction:
        return sum(self.simple_coefficients(root))

    @property
    def highest_root(self) -> Vec:
        cached = getattr(self, "_highest", None)
        if cached is not None:
            return cached
        heights = {b: sum(self.coefficients[b]) for b in self.positive_roots}
        best = max(self.positive_roots, key=heights.get)
        ties = [b for b in self.positive_roots if heights[b] == heights[best]]
        if len(ties) != 1:
            raise RootSystemError(f"{self.label}: highest root is not unique")
        object.__setattr__(self, "_highest", best)
        return best

    def _length_classes(self) -> list[int]:
        cached = getattr(self, "_lengths", None)
        if cached is None:
            cached = sorted({_dot(b, b) for b in self.all_roots})
            object.__setattr__(self, "_lengths", cached)
        return cached

    def root_class(self, root: Vec) -> str:
        """Length class key: long/short or e_i/2e_i/e_i±e_j for BC."""
        if not self.label.reduced:
            if tuple(2 * x for x in root) in self.coefficients:
                return "e_i"
            if all(x % 2 == 0 for x in root) and tuple(x // 2 for x in root) in self.coefficients:
                return "2e_i"
            return "e_i±e_j"
        lengths = self._length_classes()
        if len(lengths) == 1:
            return "long"
        return "short" if _dot(root, root) == lengths[0] else "long"

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for b in self.all_roots:
            key = self.root_class(b)
            counts[key] = counts.get(key, 0) + 1
        return counts


@lru_cache(maxsize=None)
def build_root_system(label: RootSystemLabel) -> RootSystem:
    """Construct and validate the root system for ``label``."""
    simple, roots = _classical_roots(label)
    roots = sorted(set(roots))
    expected = _CLASSICAL_COUNTS[label.family](label.rank)
    if len(roots) != expected:
        raise RootSystemError(
            f"{label}: generated {len(roots)} roots, expected {expected}"
        )
    root_set = set(roots)
    for b in roots:
        if _neg(b) not in root_set:
            raise RootSystemError(f"{label}: root set not closed under negation")
    cartan = tuple(
        tuple(2 * _dot(ai, aj) // _dot(aj, aj) for aj in simple) for ai in simple
    )
    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise RootSystemError(f"{label}: Cartan diagonal must be 2")
        for j, x in enumerate(row):
            if i != j and x not in (0, -1, -2, -3):
                raise RootSystemError(f"{label}: bad Cartan entry {x} at {(i, j)}")
    simple = tuple(simple)
    inverse = _SimpleRootInverse.of(simple)
    coefficients = {}
    positive = []
    for b in roots:
        num = inverse.numerators(b)
        if any(n % inverse.denom for n in num):
            raise RootSystemError(
                f"{label}: root {b} has non-integral simple-root coefficients"
            )
        coeffs = tuple(n // inverse.denom for n in num)
        if all(c >= 0 for c in coeffs):
            positive.append(b)
        elif not all(c <= 0 for c in coeffs):
            raise RootSystemError(f"{label}: root {b} has mixed-sign coefficients")
        coefficients[b] = coeffs
    if 2 * len(positive) != len(roots):
        raise RootSystemError(f"{label}: positive system has wrong size")
    return RootSystem(
        label=label,
        simple_roots=simple,
        all_roots=tuple(roots),
        positive_roots=tuple(sorted(positive)),
        cartan_matrix=cartan,
        coefficients=coefficients,
        simple_inverse=inverse,
    )


def coroot_pairing(rs: RootSystem, beta: Vec, alpha: Vec) -> int:
    """Integer pairing 2(beta, alpha)/(alpha, alpha)."""
    beta, alpha = tuple(beta), tuple(alpha)
    if not rs.is_root(beta) or not rs.is_root(alpha):
        raise RootSystemError("coroot_pairing arguments must be roots of the system")
    num = 2 * _dot(beta, alpha)
    den = _dot(alpha, alpha)
    if num % den:
        raise RootSystemError(f"pairing of {beta} with {alpha} is not an integer")
    return num // den


def dual_coxeter_number(rs: RootSystem) -> int:
    """One plus the sum of the comarks of the highest root.

    The comark of alpha_i is psi's coefficient n_i times (alpha_i, alpha_i) /
    (psi, psi): the coefficient of alpha_i-dual in psi-dual.
    """
    if not rs.label.reduced:
        raise RootSystemError("dual Coxeter number is defined for reduced systems only")
    psi = rs.highest_root
    total = 1
    for n, a in zip(rs.coefficients[psi], rs.simple_roots):
        c = Fraction(n * _dot(a, a), _dot(psi, psi))
        if c.denominator != 1 or c < 0:
            raise RootSystemError(f"non-integral comark {c}")
        total += int(c)
    return total


@dataclass(frozen=True)
class Weight:
    """Integer vector in the fundamental-weight basis of a root system."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-c for c in self.coords))


def dominant_representative(rs: RootSystem, weight: Weight) -> Weight:
    """Unique dominant Weyl-chamber representative of ``weight``.

    Repeatedly reflects at a negative simple coordinate.  Each reflection
    removes exactly one positive root from those pairing negatively with the
    weight, so at most |Phi+| steps are taken; more would be a bug.
    """
    if not rs.label.reduced:
        raise RootSystemError("dominant representatives require a reduced system")
    if rs.rank > 8:
        raise RootSystemError("rank must be at most 8")
    coords = list(weight.coords)
    if len(coords) != rs.rank:
        raise RootSystemError("weight length must equal the rank")
    cartan = rs.cartan_matrix
    for _ in range(len(rs.positive_roots) + 1):
        i = next((k for k, c in enumerate(coords) if c < 0), None)
        if i is None:
            return Weight(tuple(coords))
        ci = coords[i]
        coords = [c - ci * cartan[i][j] for j, c in enumerate(coords)]
    raise RootSystemError("dominance reduction exceeded |Phi+| reflections")
