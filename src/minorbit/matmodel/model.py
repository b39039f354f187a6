"""Validated Lie algebra models with exact structure constants.

A model keeps two views of the algebra: the defining n x n matrices (used for
spectra in the defining representation and for the floating-point lane) and
coordinates with respect to the chosen real basis (used for every structural
computation).  A coordinate is one exact scalar,
:class:`~minorbit.exactla.GaussianRational`, real for an element of g and
complex for one of g_C; all brackets, involutions and forms are exact
arithmetic on such coordinates.

The basis is one (N, n, n) complex array whose entries are Gaussian integers,
which floating point holds and multiplies exactly.  numpy forms the trace
Gram G = tr(b_i b_j) and the tensor T[k, i, j] = tr(b_k [b_i, b_j]) as
integers; G is inverted once in rationals, and the structure constants
ad = G^-1 T are accepted only if sum_r ad[r, i, j] b_r = [b_i, b_j] holds
exactly.  The conjugation sigma (an :class:`~.families.Involution` spec) fixes
every basis matrix, k is anti-Hermitian and p Hermitian, so in coordinates
sigma conjugates entrywise and theta(X) = -X^* is +1 on k and -1 on p.
Past the closure, the build checks only that sigma is antilinear and fixes the
basis, that k and p partition it, and that Cent_p(a) = a.  The rest of the
Cartan decomposition holds by construction: theta is an automorphism of
gl(n, C), so ad is k/p-graded; tr(XY) is imaginary, so 0, for X in k and Y in p;
tr(X^2) is -|X|^2 on k and +|X|^2 on p; and a, inside Cent_p(a), is abelian.
Each exact subspace has one owner that solves it once: the model holds the
unit spans of g, k, p and a (sharing their vectors), m = Cent_k(a) and, on
first use, the center ``center_k`` of k.  One routine,
:meth:`~LieAlgebraModel.eigenspaces`, splits a span under one operator;
``joint_eigenspaces`` refines through it.  One routine,
:meth:`~LieAlgebraModel.torus_roots`, gives the root datum of a torus, the
restricted roots (a on g) and the roots of k (t on k) alike: it feeds
``joint_eigenspaces`` the differences of the defining eigenvalues, which
``defining_eigenvalues`` computes exactly, and returns the root spaces, the
positive and simple roots and the trace duals of the roots.

Operators on coordinates, the structure constants ``ad`` among them, are
sparse columns: column j of an operator lists ``(row, value)`` over its
nonzero entries.  The basis matrices have entries in {0, +-1, +-i}, so nearly
every structure constant is zero and no routine here touches those zeros: the
trace form walks the rows of G at the nonzero x_i, ``ad_matrix`` of a basis
element b_i reads ``ad[i]`` rather than building it, and ``kernel_in_span``
hands the images of its span's nonzero entries (which each unit span, a
:class:`Span`, holds from the start), as sparse constraint rows in any order,
to the one sparse elimination of :mod:`~minorbit.exactla`: a reduced row
echelon form is unique, so the kernel basis does not depend on the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .. import exactla
from ..exactla import ONE, ZERO, GaussianRational
from ..rootsys import indecomposable
from .families import FamilyData, ModelError, family_data

Coords = list  # list[GaussianRational]; every imaginary part is 0 for an element of g
SparseOp = list  # column j: [(row, value), ...] over the nonzero entries

# float eigenvalues are rounded to the nearest rational of at most this
# denominator; two such rationals differ by at least its inverse square
PROPOSAL_DENOMINATOR = 1000


def _support(span: Sequence[Coords]) -> list[list[tuple]]:
    """The nonzero entries (j, v_j) of each vector v of ``span``."""
    return [[(j, x) for j, x in enumerate(v) if x] for v in span]


class Span(list):
    """Coordinate vectors that hold their nonzero entries: ``support[k]`` lists
    the (j, v_j) with v_j != 0 of vector k, scanned once when none is given.
    The span solvers read it in place of a scan, so neither is written to."""

    __slots__ = ("support",)

    def __init__(self, vectors: Sequence[Coords] = (), support=None):
        super().__init__(vectors)
        self.support = _support(self) if support is None else support


def _apply(op: SparseOp, nonzero: list[tuple]) -> dict:
    """op @ v as {row: value}, from the nonzero entries (j, v_j) of v; a column
    met with coefficient 1 (a unit vector) is read, not multiplied."""
    out: dict = {}
    for j, vj in nonzero:
        unit = vj == 1
        for r, c in op[j]:
            t = c if unit else c * vj
            out[r] = out[r] + t if r in out else t
    return out


@dataclass
class LieAlgebraModel(FamilyData):
    """A family's basis data and the exact structure built from it."""

    # read off the basis: k the anti-Hermitian matrices, p the Hermitian ones
    k_indices: list[int] = field(default_factory=list)
    p_indices: list[int] = field(default_factory=list)
    ad: list[SparseOp] = field(repr=False, default_factory=list)  # ad(b_i)
    tr_rows: list[list[tuple]] = field(repr=False, default_factory=list)  # (j, G_ij), G_ij != 0
    entries: list[list[tuple]] = field(repr=False, default_factory=list)  # of b_i
    units: Span = field(repr=False, default_factory=Span)  # b_i in coordinates
    k_units: Span = field(repr=False, default_factory=Span)
    p_units: Span = field(repr=False, default_factory=Span)
    a_units: Span = field(repr=False, default_factory=Span)
    m_basis: list[Coords] = field(repr=False, default_factory=list)
    c: GaussianRational | None = None  # invariant-form normalization, set by the root datum

    # -- dimensions ---------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def dim_k(self) -> int:
        return len(self.k_indices)

    @property
    def dim_a(self) -> int:
        return len(self.a_indices)

    @property
    def dim_m(self) -> int:
        return len(self.m_basis)

    # -- coordinates --------------------------------------------------------
    def unit_coords(self, index: int) -> Coords:
        return [ONE if i == index else ZERO for i in range(self.dim)]

    def matrix(self, coords: Coords) -> np.ndarray:
        """sum_i coords[i] b_i as an (n, n) object array of exact entries;
        ``.astype(complex)`` rounds each entry once."""
        out = np.full((self.n, self.n), ZERO, dtype=object)
        for c, entries in zip(coords, self.entries):
            if c:
                for r, s, x in entries:
                    out[r, s] = out[r, s] + c * x
        return out

    # -- algebra operations in coordinates ----------------------------------
    def bracket(self, x: Coords, y: Coords) -> Coords:
        out = [ZERO] * self.dim
        y_nonzero = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in y_nonzero:
                w = xi * yj
                for r, c in self.ad[i][j]:
                    out[r] = out[r] + w * c
        return out

    def ad_matrix(self, x: Coords) -> SparseOp:
        """ad x as sparse columns; column j is [x, b_j].  For x = b_i this is
        ``ad[i]`` itself, shared, so a caller only reads it."""
        nonzero = [(i, xi) for i, xi in enumerate(x) if xi]
        if len(nonzero) == 1 and nonzero[0][1] == 1:
            return self.ad[nonzero[0][0]]
        cols: list[dict] = [{} for _ in range(self.dim)]
        for i, xi in nonzero:
            for col, entries in zip(cols, self.ad[i]):
                for r, c in entries:
                    t = xi * c
                    col[r] = col[r] + t if r in col else t
        return [[(r, v) for r, v in col.items() if v] for col in cols]

    def theta(self, x: Coords) -> Coords:
        """theta(X) = -X^*: fixes the k generators and negates the p ones."""
        p = set(self.p_indices)
        return [-xi if i in p else xi for i, xi in enumerate(x)]

    def sigma(self, x: Coords) -> Coords:
        return [xi.conjugate() for xi in x]

    def sigma_u(self, x: Coords) -> Coords:
        return self.theta(self.sigma(x))

    def B(self, x: Coords, y: Coords):
        if self.c is None:
            raise ModelError("normalization c is not fixed yet")
        return self.c * self._tr_form(x, y)

    def _tr_form(self, x: Coords, y: Coords):
        """tr(XY) = x^T G y over the nonzero x_i and the nonzero entries of
        row i of the trace Gram G."""
        return sum((xi * g * y[j] for xi, row in zip(x, self.tr_rows) if xi
                    for j, g in row if y[j]), ZERO)

    def H(self, x: Coords, y: Coords):
        """Invariant Hilbert pairing -B(x, sigma_u(y)); positive definite."""
        return -self.B(x, self.sigma_u(y))

    # -- subspace solvers ----------------------------------------------------
    def kernel_in_span(self, operators: Sequence[SparseOp], span: Sequence[Coords],
                       real: bool = False, shift=0) -> list[Coords]:
        """Vectors x in span(span) with op @ x = shift * x for every operator;
        with ``real=True`` the combination coefficients are rational."""
        support = span.support if isinstance(span, Span) else _support(span)
        images = [[_apply(op, nz) for nz in support] for op in operators]
        return self._solve_in_span(support, images, shift, real)

    def _solve_in_span(self, support: list[list[tuple]], images: list[list[dict]],
                       shift=0, real: bool = False) -> list[Coords]:
        """sum_k t_k v_k over the t with sum_k t_k (op - shift) v_k = 0 for each op,
        from the nonzero entries of each v_k and images[i][k] = ops[i] @ v_k.
        A constraint row {k: entry} splits, with ``real``, into its nonzero
        real and imaginary parts."""
        rows: list[dict] = []
        neg = ZERO - shift
        for op_images in images:
            by_coord: dict = {}
            for k, (img, nz) in enumerate(zip(op_images, support)):
                for r, x in img.items():
                    by_coord.setdefault(r, {})[k] = x
                if shift:
                    for j, x in nz:
                        row = by_coord.setdefault(j, {})
                        t = neg if x == 1 else neg * x
                        row[k] = row[k] + t if k in row else t
            for row in by_coord.values():
                parts = ({k: x.real for k, x in row.items() if x.a},
                         {k: x.imag for k, x in row.items() if x.b}) if real else (row,)
                rows.extend(part for part in parts if part)
        sol_basis = exactla.kernel_basis(rows, ncols=len(support))
        # sum_k t_k span[k] from the nonzero entries
        out = []
        for t in sol_basis:
            vec = [ZERO] * self.dim
            for coef, nz in zip(t, support):
                if coef:
                    for j, x in nz:
                        vec[j] = vec[j] + coef * x
            out.append(vec)
        return out

    def eigenspaces(self, op: SparseOp, candidates: Sequence,
                    span: Sequence[Coords]) -> dict:
        """The nonzero eigenspaces {lam: space} of op in span(span), in the order
        of ``candidates``; op is applied to the span once, and no candidate is
        tried once the spaces (independent for distinct lam) fill the span."""
        support = span.support if isinstance(span, Span) else _support(span)
        images = [[_apply(op, nz) for nz in support]]
        spaces, found = {}, 0
        for lam in candidates:
            if found == len(span):
                break
            eig = self._solve_in_span(support, images, lam)
            if eig:
                spaces[lam] = eig
                found += len(eig)
        return spaces

    def joint_eigenspaces(
        self,
        ops: Sequence[SparseOp],
        candidates: Sequence[Sequence],
        span: Sequence[Coords],
    ) -> list[tuple[tuple, list[Coords]]]:
        """Split span(span) into joint eigenspaces of commuting operators.

        ``candidates[i]`` lists the possible eigenvalues of ``ops[i]``; each
        space is labelled by its tuple of eigenvalues.  Raises if the
        candidates do not recover all of the span.
        """
        spaces: list[tuple[tuple, list[Coords]]] = [((), span)]
        for op, eigenvalues in zip(ops, candidates):
            refined = []
            for label, sub in spaces:
                split = self.eigenspaces(op, eigenvalues, sub)
                found = sum(map(len, split.values()))
                if found != len(sub):
                    raise ModelError(
                        f"{self.form_id}: operator is not semisimple over the "
                        f"candidate eigenvalues (recovered {found} of {len(sub)})"
                    )
                refined.extend((label + (lam,), eig) for lam, eig in split.items())
            spaces = refined
        return spaces

    def defining_eigenvalues(
        self, x: Coords, imaginary: bool = False
    ) -> list[GaussianRational]:
        """Exact eigenvalues of x in the defining representation, sorted.

        x is Hermitian (in p), or with ``imaginary`` anti-Hermitian (in k),
        whose eigenvalues are returned divided by i.  Float eigenvalues
        propose rationals; each one counts only with the multiplicity of its
        exact kernel, and the kernels must fill C^n.
        """
        X = self.matrix(x)
        proposals = sorted({
            GaussianRational(Fraction(float(ev.imag if imaginary else ev.real))
                             .limit_denominator(PROPOSAL_DENOMINATOR))
            for ev in np.linalg.eigvals(X.astype(complex))
        })
        rows = [{s: v for s, v in enumerate(row) if v} for row in X]
        found: list[GaussianRational] = []
        for q in proposals:
            lam = q * exactla.I if imaginary else q
            shifted = [{**row, r: row.get(r, ZERO) - lam} for r, row in enumerate(rows)]
            found.extend([q] * len(exactla.kernel_basis(shifted, self.n)))
        if len(found) != self.n:
            raise ModelError(
                f"{self.form_id}: defining eigenvalues are not all rational"
                + (" multiples of i" if imaginary else "")
            )
        return found

    def torus_roots(self, torus: Sequence[Coords], span: Sequence[Coords],
                    imaginary: bool = False, key=tuple) -> tuple:
        """The root datum of the commuting t in ``torus`` on span(span).

        A root lists the eigenvalues of ad t, the differences of the defining
        eigenvalues of t; with ``imaginary`` (t compact) they are i times the
        rationals the root keeps.  Returns the zero space, the root spaces
        {root: space} sorted by root, the positive roots (the first nonzero
        entry of ``key(root)`` positive), the simple roots, and the trace
        duals {root: G^-1 root}, with G the trace Gram of the torus.
        """
        candidates = []
        for t in torus:
            eigs = self.defining_eigenvalues(t, imaginary)
            diffs = sorted({a - b for a in eigs for b in eigs})
            candidates.append([q * exactla.I for q in diffs] if imaginary else diffs)
        zero, spaces = [], {}
        for label, space in self.joint_eigenspaces(
                [self.ad_matrix(t) for t in torus], candidates, span):
            root = tuple(x.imag for x in label) if imaginary else label
            if any(root):
                spaces[root] = space
            else:
                zero = space
        spaces = dict(sorted(spaces.items()))
        positive = [r for r in spaces if next((x for x in key(r) if x), 0) > 0]
        gram = [[self._tr_form(s, t) for t in torus] for s in torus]
        dual = {r: exactla.solve(gram, list(r)) for r in spaces}
        return zero, spaces, positive, indecomposable(positive), dual

    def centralizer_in_span(
        self, elements: Sequence[Coords], span: Sequence[Coords]
    ) -> list[Coords]:
        ops = [self.ad_matrix(e) for e in elements]
        return self.kernel_in_span(ops, span, real=True)

    @cached_property
    def center_k(self) -> list[Coords]:
        """Cent k, the center of k, solved on first use."""
        return self.centralizer_in_span(self.k_units, self.k_units)


def _build(form_id: str) -> LieAlgebraModel:
    model = LieAlgebraModel(**vars(family_data(form_id)))
    basis, N, n = model.basis, model.dim, model.n
    re, im = basis.real.astype(np.int64), basis.imag.astype(np.int64)
    if not np.array_equal(re + 1j * im, basis):
        raise ModelError(f"{form_id}: basis entries are not Gaussian integers")
    # every integer below is a sum of products of entries; each guard bounds
    # the sum of their absolute values by 2**53, so that float64 and int64
    # hold it exactly: 2 n^3 bmax^3 for G and T, then N max|D ad| bmax for
    # the closure sums and 2 D n bmax^2 for D [b_i, b_j]
    bmax = int(np.abs(re).max() + np.abs(im).max())
    if 2 * n**3 * bmax**3 >= 2**53:
        raise ModelError(f"{form_id}: basis entries too large for exact arithmetic")
    model.entries = [
        [(r, s, GaussianRational(int(x.real), int(x.imag)))
         for (r, s), x in np.ndenumerate(b) if x]
        for b in basis
    ]

    gram = np.einsum("iab,jba->ij", basis, basis)
    brackets = basis[:, None] @ basis[None, :]
    brackets -= brackets.swapaxes(0, 1)  # [b_i, b_j] = b_i b_j - b_j b_i
    T = np.einsum("kab,ijba->kij", basis, brackets)
    if np.any(gram.imag):
        raise ModelError(f"{form_id}: trace form is not real on the basis")
    if np.any(T.imag):
        raise ModelError(f"{form_id}: a bracket leaves the real span of the basis")
    # each distinct entry of G, and below of D ad, is one scalar, shared
    gram = gram.real.astype(np.int64).tolist()
    scalar = {g: GaussianRational(g) for g in set().union(*gram)}
    model.tr_rows = [[(j, scalar[g]) for j, g in enumerate(row) if g] for row in gram]
    model.units = [model.unit_coords(i) for i in range(N)]
    aug = [[scalar[g] for g in row] + unit for row, unit in zip(gram, model.units)]
    red, pivots = exactla.rref(aug)
    if pivots != list(range(N)):
        raise ModelError(f"{form_id}: trace form is degenerate on the basis")
    # ad = G^-1 T, carried as the integers D ad over the common denominator D
    D = math.lcm(*(x.d for row in red for x in row[N:]))
    inverse = [[x.a * (D // x.d) for x in row[N:]] for row in red]
    ad_max = N * max(abs(x) for row in inverse for x in row) * int(np.abs(T).max())
    if max(N * ad_max * bmax, 2 * D * n * bmax**2) >= 2**53:
        raise ModelError(f"{form_id}: brackets too large for exact arithmetic")
    scaled = np.tensordot(np.array(inverse), T.real.astype(np.int64), axes=1)
    # one row i at a time keeps the temporaries at N n^2 entries
    if not all(
        np.array_equal(np.tensordot(scaled[:, i], basis, axes=(0, 0)), D * brackets[i])
        for i in range(N)
    ):
        raise ModelError(f"{form_id}: basis is not closed under the bracket")
    scalar = {x: GaussianRational(x, 0, D) for x in set(scaled.ravel().tolist())}
    model.ad = [
        [[(r, scalar[x]) for r, x in enumerate(column) if x] for column in row]
        for row in np.moveaxis(scaled, 0, -1).tolist()
    ]

    adjoint = basis.conj().swapaxes(-1, -2)
    model.k_indices = np.flatnonzero((adjoint == -basis).all(axis=(1, 2))).tolist()
    model.p_indices = np.flatnonzero((adjoint == basis).all(axis=(1, 2))).tolist()
    # the unit spans share the vectors b_i, whose one nonzero entry is 1 at i
    model.units, model.k_units, model.p_units, model.a_units = (
        Span([model.units[i] for i in idx], [[(i, ONE)] for i in idx])
        for idx in (range(N), model.k_indices, model.p_indices, model.a_indices))
    _validate_model(model)
    model.m_basis = model.centralizer_in_span(model.a_units, model.k_units)
    return model


def _validate_model(model: LieAlgebraModel) -> None:
    # only what _build leaves open is checked: theta(X) = -X^* is an
    # automorphism of gl(n, C) and ad is real, so ad is k/p-graded; tr(XY)
    # is imaginary for X in k, Y in p, and the Gram is real, so it is 0
    # there; tr(X^2) is -|X|^2 on k and +|X|^2 on p, so the nondegenerate
    # Gram is negative on k and positive on p; and a lies in Cent_p(a)
    sigma = model.sigma_spec
    # sigma is the conjugation of this real form: antilinear, fixing the basis
    if not sigma.conjugate:
        raise ModelError(f"{model.form_id}: sigma is not antilinear")
    if not np.array_equal(sigma.apply(model.basis), model.basis):
        raise ModelError(f"{model.form_id}: sigma does not fix the real basis")
    # theta(X) = -X^* is +1 on k and -1 on p, so it is diagonal on the basis
    # exactly when k and p, read off the basis, partition it
    if sorted(model.k_indices + model.p_indices) != list(range(model.dim)):
        raise ModelError(
            f"{model.form_id}: a basis matrix is neither Hermitian nor anti-Hermitian"
        )
    # a is maximal abelian in p
    cent = model.centralizer_in_span(model.a_units, model.p_units)
    if len(cent) != model.dim_a or not exactla.same_span(cent, model.a_units):
        raise ModelError(f"{model.form_id}: a is not maximal abelian in p")


@lru_cache(maxsize=None)
def build_model(form_id: str) -> LieAlgebraModel:
    """Construct and validate the matrix model for a supported form id."""
    return _build(form_id)
