"""Validated Lie algebra models with exact structure constants.

A model keeps two views of the algebra: the defining n x n matrices (used for
spectra in the defining representation and for the floating-point lane) and
rational coordinates with respect to the chosen real basis (used for every
structural computation).  All brackets, involutions and forms reduce to exact
rational or Gaussian-rational arithmetic in coordinates.

The basis is one (N, n, n) complex array whose entries are Gaussian integers,
which floating point holds and multiplies exactly.  numpy forms the trace
Gram G = tr(b_i b_j) and the tensor T[k, i, j] = tr(b_k [b_i, b_j]) as
integers; G is inverted once in rationals, and the structure constants
ad = G^-1 T are accepted only if sum_r ad[r, i, j] b_r = [b_i, b_j] holds
exactly.  The conjugation sigma (an :class:`~.families.Involution` spec) fixes
every basis matrix, k is anti-Hermitian and p Hermitian, so in coordinates
sigma conjugates entrywise and theta(X) = -X^* is +1 on k and -1 on p.  Joint
eigenspaces are refined by one routine, :meth:`~LieAlgebraModel.joint_eigenspaces`.

Operators on coordinates, the structure constants ``ad`` among them, are
sparse columns: column j of an operator lists ``(row, value)`` over its
nonzero entries.  The basis matrices have entries in {0, +-1, +-i}, so nearly
every structure constant is zero and no routine here touches those zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .. import exactla
from ..exactla import QI, QI_ONE, QI_ZERO
from .families import FamilyData, Involution, ModelError, family_data

Coords = list  # list[Fraction] for real elements, list[QI] for complexified ones
SparseOp = list  # column j: [(row, value), ...] over the nonzero entries


def _has_qi(values) -> bool:
    return any(isinstance(x, QI) for x in values)


def _apply(op: SparseOp, nonzero: list[tuple], shift) -> dict:
    """(op - shift) @ v as {row: value}, from the nonzero entries (j, v_j) of v.

    A column met with coefficient 1 (a unit vector) is read, not multiplied.
    """
    out: dict = {}
    for j, vj in nonzero:
        unit = vj == 1
        for r, c in op[j]:
            t = c if unit else c * vj
            out[r] = out[r] + t if r in out else t
        if shift:
            t = shift * vj
            out[j] = out[j] - t if j in out else -t
    return out


def _det(mat: Sequence[Sequence[Fraction]]) -> Fraction:
    rows = [list(r) for r in mat]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def _definite(gram: list[list[Fraction]], sign: int) -> bool:
    """Leading-principal-minor test; sign=+1 positive, -1 negative definite."""
    for k in range(1, len(gram) + 1):
        minor = _det([row[:k] for row in gram[:k]])
        if sign > 0 and minor <= 0:
            return False
        if sign < 0 and (minor if k % 2 == 0 else -minor) <= 0:
            return False
    return True


@dataclass
class LieAlgebraModel:
    form_id: str
    family: str
    n: int
    basis: np.ndarray  # (N, n, n) complex, Gaussian-integer entries
    k_indices: list[int]
    p_indices: list[int]
    a_indices: list[int]
    sigma_spec: Involution
    defining_eigs: list[set[Fraction]]
    positivity_key: Callable[[tuple], tuple] = lambda values: values
    ad: list[SparseOp] = field(repr=False, default_factory=list)  # ad(b_i)
    tr_gram: list[list[Fraction]] = field(repr=False, default_factory=list)
    entries: list[list[tuple]] = field(repr=False, default_factory=list)  # of b_i
    m_basis: list[Coords] = field(repr=False, default_factory=list)
    c: Fraction | None = None  # invariant-form normalization, set by the root datum

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
        v = [Fraction(0)] * self.dim
        v[index] = Fraction(1)
        return v

    def subspace_units(self, indices: Sequence[int]) -> list[Coords]:
        return [self.unit_coords(i) for i in indices]

    def matrix(self, coords: Coords) -> np.ndarray:
        """sum_i coords[i] b_i as an (n, n) object array of exact QI entries;
        ``.astype(complex)`` rounds each entry once."""
        out = np.full((self.n, self.n), QI_ZERO, dtype=object)
        for c, entries in zip(coords, self.entries):
            if c:
                for r, s, x in entries:
                    out[r, s] = out[r, s] + c * x
        return out

    # -- algebra operations in coordinates ----------------------------------
    def bracket(self, x: Coords, y: Coords) -> Coords:
        out = [QI_ZERO if _has_qi(x) or _has_qi(y) else Fraction(0)] * self.dim
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
        """ad x as sparse columns; column j is [x, b_j]."""
        cols: list[dict] = [{} for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if not xi:
                continue
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
        return [xi.conjugate() if isinstance(xi, QI) else xi for xi in x]

    def sigma_u(self, x: Coords) -> Coords:
        return self.theta(self.sigma(x))

    def B(self, x: Coords, y: Coords):
        if self.c is None:
            raise ModelError("normalization c is not fixed yet")
        return self.c * self._tr_form(x, y)

    def _tr_form(self, x: Coords, y: Coords):
        return exactla.dot(x, exactla.mat_vec(self.tr_gram, y))

    def H(self, x: Coords, y: Coords):
        """Invariant Hilbert pairing -B(x, sigma_u(y)); positive definite."""
        return -self.B(x, self.sigma_u(y))

    # -- subspace solvers ----------------------------------------------------
    def kernel_in_span(
        self,
        operators: Sequence[SparseOp],
        span: Sequence[Coords],
        real: bool = False,
        shift=0,
    ) -> list[Coords]:
        """Vectors x in span(span) with op @ x = shift * x for every operator.

        The constraints live over the Gaussian rationals when any operator
        entry, span entry or the shift is a :class:`QI`, else over the
        rationals.  With ``real=True`` the combination coefficients are
        restricted to the rationals even when the constraints are complex
        (re/im parts are imposed separately).  All-zero constraint rows are
        dropped: they leave the reduced row echelon form, and so the kernel
        basis, unchanged.
        """
        if not span:
            return []
        cols = list(span)
        qi = (
            isinstance(shift, QI)
            or any(_has_qi(v) for v in cols)
            or any(_has_qi(x for _, x in col) for op in operators for col in op)
        )
        zero = QI_ZERO if qi else Fraction(0)
        shift = QI.of(shift) if qi else Fraction(shift)
        nonzero = [[(j, x) for j, x in enumerate(v) if x] for v in cols]
        rows: list[list] = []
        for op in operators:
            images = [_apply(op, nz, shift) for nz in nonzero]
            for r in sorted({r for img in images for r in img}):
                row = [img.get(r, zero) for img in images]
                if qi:
                    row = [QI.of(x) for x in row]
                parts = [row]
                if real and qi:
                    parts = [[x.re for x in row], [x.im for x in row]]
                rows.extend(part for part in parts if any(part))
        if rows:
            sol_basis = exactla.kernel_basis(rows)
        else:
            one = QI_ONE if qi and not real else Fraction(1)
            sol_basis = [[one if i == j else 0 for i in range(len(cols))]
                         for j in range(len(cols))]
        out = []
        for t in sol_basis:
            vec = [Fraction(0)] * self.dim
            for coef, base_vec in zip(t, cols):
                if coef:
                    vec = [a + coef * b for a, b in zip(vec, base_vec)]
            out.append(vec)
        return out

    def eigenspace(self, op: SparseOp, lam, span: Sequence[Coords]) -> list[Coords]:
        """Vectors x in span(span) with op @ x = lam * x."""
        return self.kernel_in_span([op], span, shift=lam)

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
        spaces: list[tuple[tuple, list[Coords]]] = [((), list(span))]
        for op, eigenvalues in zip(ops, candidates):
            refined = []
            for label, sub in spaces:
                found = 0
                for lam in eigenvalues:
                    eig = self.eigenspace(op, lam, sub)
                    if eig:
                        refined.append((label + (lam,), eig))
                        found += len(eig)
                if found != len(sub):
                    raise ModelError(
                        f"{self.form_id}: operator is not semisimple over the "
                        f"candidate eigenvalues (recovered {found} of {len(sub)})"
                    )
            spaces = refined
        return spaces

    def centralizer_in_span(
        self, elements: Sequence[Coords], span: Sequence[Coords], real: bool = True
    ) -> list[Coords]:
        ops = [self.ad_matrix(e) for e in elements]
        return self.kernel_in_span(ops, span, real=real)


def _build(form_id: str) -> LieAlgebraModel:
    fam: FamilyData = family_data(form_id)
    model = LieAlgebraModel(
        form_id=fam.form_id,
        family=fam.family,
        n=fam.n,
        basis=fam.basis,
        k_indices=fam.k_indices,
        p_indices=fam.p_indices,
        a_indices=fam.a_indices,
        sigma_spec=fam.sigma,
        defining_eigs=fam.defining_eigs,
        positivity_key=fam.positivity_key,
    )
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
        [(r, s, QI(int(x.real), int(x.imag))) for (r, s), x in np.ndenumerate(b) if x]
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
    model.tr_gram = [
        [Fraction(g) for g in row] for row in gram.real.astype(np.int64).tolist()
    ]
    aug = [row + [Fraction(int(i == j)) for j in range(N)]
           for i, row in enumerate(model.tr_gram)]
    red, pivots = exactla.rref(aug)
    if pivots != list(range(N)):
        raise ModelError(f"{form_id}: trace form is degenerate on the basis")
    # ad = G^-1 T, carried as the integers D ad over the common denominator D
    D = math.lcm(*(x.denominator for row in red for x in row[N:]))
    inverse = [[int(x * D) for x in row[N:]] for row in red]
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
    model.ad = [
        [[(r, Fraction(x, D)) for r, x in enumerate(column) if x] for column in row]
        for row in np.moveaxis(scaled, 0, -1).tolist()
    ]

    _validate_model(model)
    model.m_basis = model.centralizer_in_span(
        model.subspace_units(model.a_indices),
        model.subspace_units(model.k_indices),
    )
    return model


def _validate_model(model: LieAlgebraModel) -> None:
    N = model.dim
    sigma = model.sigma_spec
    # sigma is the conjugation of this real form: antilinear, fixing the basis
    if not sigma.conjugate:
        raise ModelError(f"{model.form_id}: sigma is not antilinear")
    if not np.array_equal(sigma.apply(model.basis), model.basis):
        raise ModelError(f"{model.form_id}: sigma does not fix the real basis")
    # theta(X) = -X^* is +1 on k and -1 on p exactly when k and p partition
    # the basis into anti-Hermitian and Hermitian matrices
    if sorted(model.k_indices + model.p_indices) != list(range(N)):
        raise ModelError(f"{model.form_id}: k and p do not partition the basis")
    in_k = [i in model.k_indices for i in range(N)]
    signs = np.where(in_k, -1, 1)[:, None, None]
    if not np.array_equal(model.basis.conj().swapaxes(-1, -2), signs * model.basis):
        raise ModelError(f"{model.form_id}: k not anti-Hermitian, p not Hermitian")
    # theta is diagonal +-1 on the basis, so the automorphism identity
    # theta[x,y] = [theta x, theta y] is the Cartan grading:
    # [k,k] in k, [k,p] in p, [p,p] in k; likewise B(theta x, theta y) = B(x,y)
    # is the vanishing of the k/p off-diagonal block of the trace form.
    for i in range(N):
        for j in range(i + 1, N):
            target_k = in_k[i] == in_k[j]
            for r, _ in model.ad[i][j]:
                if in_k[r] != target_k:
                    raise ModelError(f"{model.form_id}: theta is not an automorphism")
    for i in model.k_indices:
        for j in model.p_indices:
            if model.tr_gram[i][j]:
                raise ModelError(f"{model.form_id}: k and p are not B-orthogonal")
    gram_k = [[model.tr_gram[i][j] for j in model.k_indices] for i in model.k_indices]
    gram_p = [[model.tr_gram[i][j] for j in model.p_indices] for i in model.p_indices]
    if not _definite(gram_k, -1):
        raise ModelError(f"{model.form_id}: trace form is not negative definite on k")
    if not _definite(gram_p, +1):
        raise ModelError(f"{model.form_id}: trace form is not positive definite on p")
    # a is abelian and self-centralizing in p
    a_units = model.subspace_units(model.a_indices)
    for x in a_units:
        for y in a_units:
            if any(model.bracket(x, y)):
                raise ModelError(f"{model.form_id}: a is not abelian")
    cent = model.centralizer_in_span(a_units, model.subspace_units(model.p_indices))
    if len(cent) != model.dim_a or not exactla.same_span(cent, a_units):
        raise ModelError(f"{model.form_id}: a is not maximal abelian in p")


@lru_cache(maxsize=None)
def build_model(form_id: str) -> LieAlgebraModel:
    """Construct and validate the matrix model for a supported form id."""
    return _build(form_id)
