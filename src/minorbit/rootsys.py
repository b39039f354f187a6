"""Finite root systems with exact integer coordinates.

Roots are stored as integer vectors in the classical orthogonal realizations
(types with half-integer coordinates are scaled by 2, which changes no pairing
or Cartan datum).  The non-reduced family BC is admitted because restricted
root systems of real forms may be non-reduced; everything else follows the
standard Bourbaki conventions, including the simple-root ordering.

Each system is described once, by its simple roots.  ``build_root_system``
grows the positive roots from them by alpha_i-strings in order of height,
working on simple-root coefficients, which are integers by construction, and
takes the negative roots as their negatives; it stores every root's
coefficients on the ``RootSystem``.  The positivity test and the highest root
read those stored integers.

Three module routines take any positive system, with any exact coordinates:
``indecomposable`` (its simple roots), ``highest_root`` and ``root_classes``.
The catalog's systems, the restricted roots of a matrix model and the roots of
its compact part all call them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf
from operator import add, mul

# family -> (least rank, greatest rank, number of roots at a rank)
FAMILIES = {
    "A": (1, inf, lambda r: r * (r + 1)),
    "B": (2, inf, lambda r: 2 * r * r),
    "C": (3, inf, lambda r: 2 * r * r),
    "D": (4, inf, lambda r: 2 * r * (r - 1)),
    "E": (6, 8, lambda r: {6: 72, 7: 126, 8: 240}[r]),
    "F": (4, 4, lambda r: 48),
    "G": (2, 2, lambda r: 12),
    "BC": (1, inf, lambda r: 2 * r * (r + 1)),
}
_LABEL = re.compile(r"(BC|[A-G])([1-9][0-9]*)")


class RootSystemError(ValueError):
    pass


@dataclass(frozen=True)
class RootSystemLabel:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi, _ = FAMILIES[self.family]
        if not lo <= self.rank <= hi:
            raise RootSystemError(f"{self.family}{self.rank}: rank must be in [{lo}, {hi}]")

    @staticmethod
    def parse(text: str) -> "RootSystemLabel":
        match = isinstance(text, str) and _LABEL.fullmatch(text)
        if not match:
            raise RootSystemError(f"cannot parse label {text!r}")
        return RootSystemLabel(match[1], int(match[2]))

    @property
    def reduced(self) -> bool:
        return self.family != "BC"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


Vec = tuple[int, ...]


def _dot(u: Vec, v: Vec) -> int:
    return sum(map(mul, u, v))


def _pairing(beta: Vec, alpha: Vec) -> int:
    """The integer 2(beta, alpha)/(alpha, alpha); RootSystemError on a remainder."""
    num, den = 2 * _dot(beta, alpha), _dot(alpha, alpha)
    if num % den:
        raise RootSystemError(f"pairing of {beta} with {alpha} is not an integer")
    return num // den


_E8_SIMPLE = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)


def _simple_roots(label: RootSystemLabel) -> list[Vec]:
    """Simple roots in Bourbaki order, in the fixed integer realization.

    A_r lives in Z^(r+1), B, C, D and BC in Z^r, G2 in the plane x+y+z = 0
    of Z^3; F4 and E8 are scaled by 2, and E6, E7 are prefixes of E8.
    """
    fam, r = label.family, label.rank
    if fam == "G":
        return [(1, -1, 0), (-2, 1, 1)]
    if fam == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if fam == "E":
        return list(_E8_SIMPLE[:r])
    n = r + 1 if fam == "A" else r
    chain = [tuple(int(k == i) - int(k == i + 1) for k in range(n)) for i in range(n - 1)]
    if fam == "A":
        return chain
    if fam == "D":
        return chain + [tuple(int(k >= n - 2) for k in range(n))]
    return chain + [(0,) * (n - 1) + (2 if fam == "C" else 1,)]


def _root_strings(simple: tuple, cartan, seeds: dict, limit: int) -> dict:
    """Simple-root coefficients -> root, for every positive root, by height.

    ``cartan[j][i]`` is <alpha_j, alpha_i-dual>; ``seeds`` holds the roots of
    height 2 that no string reaches (2 alpha_r for BC).  The alpha_i-string
    through a positive root beta not proportional to alpha_i is unbroken, from
    beta - p alpha_i to beta + q alpha_i with p - q = <beta, alpha_i-dual>, and
    its lower part beta - k alpha_i (k <= p) is positive of lower height, so
    beta + alpha_i is a root exactly when p - <beta, alpha_i-dual> > 0
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    8.4); for beta = alpha_i, p = 0 gives q = -2.  Generation stops once it
    has more than ``limit`` roots, as it would not end for a Cartan matrix of
    infinite type.
    """
    rank = len(simple)
    columns = list(zip(*cartan))
    found = {tuple(int(i == j) for j in range(rank)): a for i, a in enumerate(simple)}
    layer, nxt = list(found), list(seeds)  # the seeds open height 2
    found.update(seeds)
    while layer and len(found) <= limit:
        for beta in layer:
            root = found[beta]
            for i, col in enumerate(columns):
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if up in found:
                    continue
                p, down = 0, beta[:i] + (beta[i] - 1,) + beta[i + 1:]
                while down in found:
                    p, down = p + 1, down[:i] + (down[i] - 1,) + down[i + 1:]
                if p > sum(map(mul, beta, col)):
                    found[up] = tuple(map(add, root, simple[i]))
                    nxt.append(up)
        layer, nxt = nxt, []
    return found


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
    classes: dict[Vec, str] = field(repr=False, compare=False)  # see root_classes

    @property
    def rank(self) -> int:
        return self.label.rank

    def is_root(self, v: Vec) -> bool:
        return tuple(v) in self.coefficients

    @cached_property
    def highest_root(self) -> Vec:
        return highest_root({b: self.coefficients[b] for b in self.positive_roots})

    def root_class(self, root: Vec) -> str:
        """Length class key: long/short or e_i/2e_i/e_i±e_j for BC."""
        key = self.classes.get(tuple(root))
        if key is None:
            raise RootSystemError(f"{tuple(root)} is not a root of {self.label}")
        return key

    def class_counts(self) -> dict[str, int]:
        return dict(Counter(self.classes.values()))


def indecomposable(positive) -> list:
    """The simple roots of a positive system: those not a sum of two positive roots."""
    sums = {tuple(x + y for x, y in zip(a, b)) for a in positive for b in positive}
    return [r for r in positive if r not in sums]


def highest_root(coefficients: dict):
    """The positive root of maximal height, given each positive root's
    simple-root coefficients; it must dominate every positive root
    coefficient by coefficient, or ``RootSystemError`` is raised."""
    best = max(coefficients, key=lambda b: sum(coefficients[b]))
    top = coefficients[best]
    for coeffs in coefficients.values():
        if any(t < c for t, c in zip(top, coeffs)):
            raise RootSystemError("no positive root dominates every positive root")
    return best


def root_classes(roots, length2) -> dict:
    """Length class of every root, with ``length2`` its squared length.

    A root whose double is a root is "e_i" and the double of a root is
    "2e_i"; the others are "long", or "short"/"long" when the system has two
    lengths, or "e_i±e_j" when it has three (the middle length of BC).
    """
    root_set = set(roots)
    doubles = {tuple(2 * x for x in r) for r in roots}
    lengths = {r: length2(r) for r in roots}
    levels = sorted(set(lengths.values()))
    classes = {}
    for r in roots:
        if tuple(2 * x for x in r) in root_set:
            classes[r] = "e_i"
        elif r in doubles:
            classes[r] = "2e_i"
        elif len(levels) == 3:
            classes[r] = "e_i±e_j"
        elif len(levels) == 2 and lengths[r] == levels[0]:
            classes[r] = "short"
        else:
            classes[r] = "long"
    return classes


@lru_cache(maxsize=None)
def build_root_system(label: RootSystemLabel) -> RootSystem:
    """Construct and validate the root system for ``label``.

    The positive roots come from the simple roots by alpha_i-strings in order
    of height (see ``_root_strings``); for BC, 2 alpha_r, the one positive
    root that no string reaches, is seeded at height 2.  Every root is
    positive or negative, so the negative roots are the negated positive ones,
    with negated coefficients.  The root count and the off-diagonal Cartan
    entries are checked; the diagonal is 2(a, a)/(a, a).
    """
    simple = tuple(_simple_roots(label))
    cartan = tuple(tuple(_pairing(ai, aj) for aj in simple) for ai in simple)
    for i, row in enumerate(cartan):
        for j, x in enumerate(row):
            if i != j and x not in (0, -1, -2, -3):
                raise RootSystemError(f"{label}: bad Cartan entry {x} at {(i, j)}")
    twice = {(0,) * (len(simple) - 1) + (2,): tuple(2 * x for x in simple[-1])}
    expected = FAMILIES[label.family][2](label.rank)
    positive = _root_strings(
        simple, cartan, twice if label.family == "BC" else {}, expected // 2)
    coefficients = {}
    for coeffs, root in positive.items():
        coefficients[root] = coeffs
        coefficients[tuple(-x for x in root)] = tuple(-c for c in coeffs)
    # distinct roots number 2 |Phi+| unless two of them coincide
    if not len(coefficients) == 2 * len(positive) == expected:
        raise RootSystemError(
            f"{label}: generated {len(coefficients)} roots, expected {expected}"
        )
    roots = sorted(coefficients)
    return RootSystem(
        label=label,
        simple_roots=simple,
        all_roots=tuple(roots),
        positive_roots=tuple(b for b in roots if any(c > 0 for c in coefficients[b])),
        cartan_matrix=cartan,
        coefficients={b: coefficients[b] for b in roots},
        classes=root_classes(roots, lambda b: _dot(b, b)),
    )


def coroot_pairing(rs: RootSystem, beta: Vec, alpha: Vec) -> int:
    """Integer pairing 2(beta, alpha)/(alpha, alpha)."""
    beta, alpha = tuple(beta), tuple(alpha)
    if not rs.is_root(beta) or not rs.is_root(alpha):
        raise RootSystemError("coroot_pairing arguments must be roots of the system")
    return _pairing(beta, alpha)


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


def dominant(weight, simple_roots, inner, bound: int) -> tuple:
    """Dominant Weyl-chamber representative of ``weight``, in exact arithmetic.

    Reflects at a simple root pairing negatively with the weight under
    ``inner``.  Each reflection removes one positive root from those pairing
    negatively, so ``bound`` = |Phi+| reflections suffice; more are a bug.
    """
    cur = list(weight)
    for _ in range(bound + 1):
        neg = next((s for s in simple_roots if inner(cur, s) < 0), None)
        if neg is None:
            return tuple(cur)
        coef = Fraction(2) * inner(cur, neg) / inner(neg, neg)
        cur = [a - coef * b for a, b in zip(cur, neg)]
    raise RootSystemError("dominance reduction exceeded |Phi+| reflections")
