"""Restricted root decomposition of a matrix model.

The commuting family ad(a_1), ..., ad(a_r) is diagonalized exactly: candidate
eigenvalues are differences of defining-representation eigenvalues of the
a-generators, and joint eigenspaces are exact kernels.  The highest root, its
coroot element, and the normalization of the invariant form all come out as
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .. import exactla
from .families import ModelError
from .model import Coords, LieAlgebraModel

Root = tuple[Fraction, ...]


@dataclass
class RestrictedRootDatum:
    model: LieAlgebraModel
    order: str  # "lex" | "revlex"
    roots: list[Root]
    root_spaces: dict[Root, list[Coords]]
    positive_roots: list[Root]
    simple_roots: list[Root]
    psi: Root
    x_psi: Coords
    c: Fraction
    a_gram: list[list[Fraction]]  # trace form on the a-generators
    mult: dict[Root, int] = field(default_factory=dict)
    m_basis: list[Coords] = field(default_factory=list)
    n_basis: list[Coords] = field(default_factory=list)

    @property
    def rank(self) -> int:
        return self.model.dim_a

    def root_value(self, root: Root, a_coords: Coords) -> Fraction:
        """Evaluate the root functional on an element of a."""
        return sum(r * a_coords[idx] for r, idx in zip(root, self.model.a_indices))

    def root_class(self, root: Root) -> str:
        root_set = set(self.roots)
        if tuple(2 * x for x in root) in root_set:
            return "e_i"
        if tuple(x / 2 for x in root) in root_set:
            return "2e_i"
        lengths = sorted({self._length2(b) for b in self.roots})
        if len(lengths) == 1:
            return "long"
        if len(lengths) == 2:
            return "short" if self._length2(root) == lengths[0] else "long"
        return "e_i±e_j"  # middle length of a non-reduced system

    def _length2(self, root: Root) -> Fraction:
        dual = exactla.solve(self.a_gram, list(root))
        return sum(r * d for r, d in zip(root, dual))

    def class_mults(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for root in self.roots:
            key = self.root_class(root)
            m = self.mult[root]
            if key in out and out[key] != m:
                raise ModelError(
                    f"{self.model.form_id}: inconsistent multiplicity in class {key}"
                )
            out[key] = m
        return out

    def class_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for root in self.roots:
            key = self.root_class(root)
            out[key] = out.get(key, 0) + 1
        return out

    def pairing_with_psi(self, root: Root) -> Fraction:
        """Value of the root on x_psi, an integer in -2..2."""
        return self.root_value(root, self.x_psi)


def _positive(root: Root, order: str, key) -> bool:
    seq = key(root)
    if order == "revlex":
        seq = tuple(reversed(seq))
    for x in seq:
        if x:
            return x > 0
    return False


def restricted_root_datum(
    model: LieAlgebraModel, order: str = "lex"
) -> RestrictedRootDatum:
    if order not in ("lex", "revlex"):
        raise ModelError(f"unknown positivity order {order!r}")
    N = model.dim
    spaces = model.joint_eigenspaces(
        [model.ad[i] for i in model.a_indices],
        [sorted({x - y for x in eigs for y in eigs}) for eigs in model.defining_eigs],
        [model.unit_coords(i) for i in range(N)],
    )

    root_spaces: dict[Root, list[Coords]] = {}
    zero_space: list[Coords] = []
    for lam, span in spaces:
        if any(lam):
            root_spaces[lam] = span
        else:
            zero_space = span
    roots = sorted(root_spaces)
    if len(zero_space) != model.dim_m + model.dim_a:
        raise ModelError(f"{model.form_id}: zero weight space is not m + a")
    total = len(zero_space) + sum(len(s) for s in root_spaces.values())
    if total != N:
        raise ModelError(f"{model.form_id}: root decomposition does not fill g")

    positive = [r for r in roots if _positive(r, order, model.positivity_key)]
    if 2 * len(positive) != len(roots):
        raise ModelError(f"{model.form_id}: positivity did not split the roots")

    # simple roots: positive roots that are not sums of two positive roots
    pos_set = set(positive)
    sums = set()
    for r1 in positive:
        for r2 in positive:
            sums.add(tuple(x + y for x, y in zip(r1, r2)))
    simple = [r for r in positive if r not in sums]

    # the highest root dominates every positive root
    def dominates(a: Root, b: Root) -> bool:
        diff = [x - y for x, y in zip(a, b)]
        mat = [[s[i] for s in simple] for i in range(len(diff))]
        sol = exactla.solve(mat, diff)
        return sol is not None and all(c >= 0 for c in sol)

    maximal = [r for r in positive if all(dominates(r, b) for b in positive)]
    if len(maximal) != 1:
        raise ModelError(
            f"{model.form_id}: positive system has {len(maximal)} maximal roots"
        )
    psi = maximal[0]

    # x_psi: the multiple of the trace-dual of psi with psi(x_psi) = 2
    a_idx = model.a_indices
    gram_a = [[model.tr_gram[i][j] for j in a_idx] for i in a_idx]
    dual = exactla.solve(gram_a, list(psi))
    if dual is None:
        raise ModelError(f"{model.form_id}: trace form degenerate on a")
    psi_of_dual = sum(p * d for p, d in zip(psi, dual))
    factor = Fraction(2) / psi_of_dual
    x_psi = [Fraction(0)] * N
    for coef, idx in zip(dual, a_idx):
        x_psi[idx] = coef * factor
    # normalize the invariant form so that B(x_psi, x_psi) = 2
    tr_xx = model._tr_form(x_psi, x_psi)
    c = Fraction(2) / tr_xx
    if c <= 0:
        raise ModelError(f"{model.form_id}: normalization scalar must be positive")
    if model.c is None:
        model.c = c
    elif model.c != c:
        raise ModelError(f"{model.form_id}: inconsistent normalization {c} vs {model.c}")

    datum = RestrictedRootDatum(
        model=model,
        order=order,
        roots=roots,
        root_spaces=root_spaces,
        positive_roots=positive,
        simple_roots=simple,
        psi=psi,
        x_psi=x_psi,
        c=c,
        a_gram=gram_a,
        mult={r: len(s) for r, s in root_spaces.items()},
        m_basis=list(model.m_basis),
        n_basis=[v for r in positive for v in root_spaces[r]],
    )
    _validate_datum(datum)
    return datum


def _validate_datum(datum: RestrictedRootDatum) -> None:
    model = datum.model
    # psi(x_psi) = 2 and the reflection sends x_psi to -x_psi fixing ker psi
    if datum.root_value(datum.psi, datum.x_psi) != 2:
        raise ModelError(f"{model.form_id}: psi(x_psi) != 2")
    if model.B(datum.x_psi, datum.x_psi) != 2:
        raise ModelError(f"{model.form_id}: B(x_psi, x_psi) != 2")
    # ker psi inside a is B-orthogonal to x_psi, so s_psi = 1 on it
    kernel_dirs = exactla.kernel_basis([list(datum.psi)])
    for t in kernel_dirs:
        vec = [Fraction(0)] * model.dim
        for coef, idx in zip(t, model.a_indices):
            vec[idx] = coef
        if model.B(datum.x_psi, vec) != 0:
            raise ModelError(f"{model.form_id}: x_psi not orthogonal to ker psi")
    # negation symmetry of the root set with matching multiplicities
    for r in datum.roots:
        neg = tuple(-x for x in r)
        if neg not in datum.root_spaces:
            raise ModelError(f"{model.form_id}: roots not closed under negation")
        if datum.mult[r] != datum.mult[neg]:
            raise ModelError(f"{model.form_id}: asymmetric multiplicities")
    # the center of n is exactly the psi root space (computed independently)
    n_ops = [model.ad_matrix(v) for v in datum.n_basis]
    cent_n = model.kernel_in_span(n_ops, datum.n_basis)
    psi_space = datum.root_spaces[datum.psi]
    if len(cent_n) != len(psi_space) or not exactla.same_span(cent_n, psi_space):
        raise ModelError(f"{model.form_id}: Cent n differs from the psi root space")
    # values of every root on x_psi lie in {-2,...,2}; only +-psi reach +-2
    for r in datum.roots:
        val = datum.pairing_with_psi(r)
        if val.denominator != 1 or not -2 <= val <= 2:
            raise ModelError(f"{model.form_id}: root value {val} on x_psi out of range")
        if abs(val) == 2 and r not in (datum.psi, tuple(-x for x in datum.psi)):
            raise ModelError(f"{model.form_id}: non-extreme root has value +-2")


def eigenvalue_multiplicities(datum: RestrictedRootDatum) -> dict[int, int]:
    """Multiplicities of ad x_psi eigenvalues on g, computed from the datum."""
    m = {j: 0 for j in (-2, -1, 0, 1, 2)}
    for r, space in datum.root_spaces.items():
        m[int(datum.pairing_with_psi(r))] += len(space)
    m[0] += datum.model.dim_m + datum.model.dim_a
    return m


def kernel_ad_e_dimension(datum: RestrictedRootDatum, e: Coords) -> int:
    """dim of the centralizer of e in g, the model-side orbit-dimension oracle."""
    model = datum.model
    full = [model.unit_coords(i) for i in range(model.dim)]
    return len(model.kernel_in_span([model.ad_matrix(e)], full))
