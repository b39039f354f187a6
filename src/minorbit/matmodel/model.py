"""Validated Lie algebra models with exact structure constants.

A model keeps two views of the algebra: the defining n x n matrices (used for
spectra in the defining representation and for the floating-point lane) and
coordinates with respect to the chosen real basis (used for every structural
computation).  A coordinate is one exact scalar,
:class:`~minorbit.exactla.GaussianRational`, real for an element of g and
complex for one of g_C; all brackets, involutions and forms are exact
arithmetic on such coordinates.

The basis is one (N, n, n) complex array whose entries are Gaussian integers,
which floating point holds and multiplies exactly.  One BLAS product each
forms the trace Gram G = tr(b_i b_j) and the tensor T[k, i, j] =
tr(b_k [b_i, b_j]) as integers, exact in any summation order, as the absolute
values of the terms of each sum add up to less than 2^53.  G is inverted once
in rationals, and the structure constants ad = G^-1 T are accepted only if
sum_r ad[r, i, j] b_r = [b_i, b_j] holds exactly, one product for every i, j.
The conjugation sigma (an :class:`~.families.Involution` spec) fixes every
basis matrix, k is anti-Hermitian and p Hermitian, so in coordinates sigma
conjugates entrywise and theta(X) = -X^* is +1 on k and -1 on p.
Past the closure, the build checks only that sigma fixes the basis, that k
and p partition it, and that Cent_p(a) = a.  The rest of the
Cartan decomposition holds by construction: theta is an automorphism of
gl(n, C), so ad is k/p-graded; tr(XY) is imaginary, so 0, for X in k and Y in p;
tr(X^2) is -|X|^2 on k and +|X|^2 on p; and a, inside Cent_p(a), is abelian.
Each exact subspace has one owner that solves it once: the model holds the
unit spans of g, k, p and a (sharing their vectors), m = Cent_k(a) and, on
first use, the center ``center_k`` of k.  One routine,
:meth:`~LieAlgebraModel.torus_roots`, gives the root datum of a torus, the
restricted roots (a on g) and the roots of k (t on k) alike: the torus is
Hermitian (real roots) or anti-Hermitian (imaginary roots), a root is
positive when its first nonzero entry is, one float ``eigh`` proposes the
joint eigenvalues of the torus in the defining representation, as rationals,
and ``joint_eigenspaces`` tries each subspace only at the differences of
those that extend its label.  It solves one space of each +- pair of labels
and takes the other as its image under the antilinear automorphism
sigma_u = theta sigma, which maps the eigenspace of lam of ad t onto that of
-lam for t in k and for t in p alike, with no solve.
The exact eigenspaces, mirrored ones included, must fill the span, and that
is the proof.  :meth:`~LieAlgebraModel.eigenspaces` splits a span under one
operator, solving at every candidate, for the spectral checks.

Operators on coordinates, the structure constants ``ad`` among them, are
sparse columns: column j of an operator lists ``(row, value)`` over its
nonzero entries.  The basis matrices have entries in {0, +-1, +-i}, so nearly
every structure constant is zero and no routine here touches those zeros: the
trace form walks the rows of G at the nonzero x_i, ``ad_matrix`` of a basis
element b_i reads ``ad[i]`` rather than building it, and a span, a plain
list of coordinate vectors, is scanned for its nonzero entries where it is
solved.  One solve serves every subspace: the eigenspace of operators at a
shift in a span, ``kernel_in_span`` being the one at shift 0.  It builds
sparse constraint rows of nonzero entries from the images of the span's
nonzero entries, hands them in any order straight to
:func:`~minorbit.exactla.eliminate`, and reads the kernel vector of each free
column fc off the pivot rows as span[fc] - sum_p red[p][fc] span[p]: a
reduced row echelon form is unique, so the kernel basis does not depend on
the order.
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
    return [[(j, x) for j, x in enumerate(v) if x.a or x.b] for v in span]


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
    units: list[Coords] = field(repr=False, default_factory=list)  # b_i in coordinates
    k_units: list[Coords] = field(repr=False, default_factory=list)
    p_units: list[Coords] = field(repr=False, default_factory=list)
    a_units: list[Coords] = field(repr=False, default_factory=list)
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
    def kernel_in_span(self, operators: Sequence[SparseOp],
                       span: Sequence[Coords]) -> list[Coords]:
        """The x in span(span) that every operator maps to 0: the solve of
        ``_solve_in_span`` at shift 0."""
        support = _support(span)
        images = [[_apply(op, nz) for nz in support] for op in operators]
        return self._solve_in_span(support, images)

    def _solve_in_span(self, support: list[list[tuple]], images: list[list[dict]],
                       shift=0) -> list[Coords]:
        """sum_k t_k v_k over the t with sum_k t_k (op - shift) v_k = 0 for each op,
        from the nonzero entries of each v_k and images[i][k] = ops[i] @ v_k.
        A constraint row {k: entry} keeps its nonzero entries, as
        :func:`~minorbit.exactla.eliminate` needs.  Real operators on a real
        span give real rows, so their kernel is real."""
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
                row = {k: x for k, x in row.items() if x.a or x.b}
                if row:
                    rows.append(row)
        red = exactla.eliminate(rows)
        # the kernel vector of free column fc is span[fc] - sum_p red[p][fc] span[p]
        kernel = {}
        for fc, nz in enumerate(support):
            if fc not in red:
                vec = kernel[fc] = [ZERO] * self.dim
                for j, x in nz:
                    vec[j] = x
        for p, row in red.items():
            for fc, c in row.items():
                if fc != p:
                    vec = kernel[fc]
                    for j, x in support[p]:
                        vec[j] = vec[j] - c * x
        return list(kernel.values())

    def eigenspaces(self, op: SparseOp, candidates: Sequence,
                    span: Sequence[Coords]) -> dict:
        """The nonzero eigenspaces {lam: space} of op in span(span), in the order
        of ``candidates``; op is applied to the span once, and no candidate is
        tried once the spaces (independent for distinct lam) fill the span."""
        support = _support(span)
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
        labels: Sequence[tuple],
        span: Sequence[Coords],
    ) -> list[tuple[tuple, list[Coords]]]:
        """Split span(span) into joint eigenspaces of commuting operators.

        ``labels`` lists the possible tuples of eigenvalues of ``ops``, and
        each space is labelled by its tuple; a space split off by ops[:i] is
        split by ops[i] only at the i-th entries of the labels that extend
        its own, nearest zero first, until the spaces found fill it, and its
        spaces follow the order of those entries in ``labels``.  The entries
        of largest size are the ones most often proposed in vain (a
        difference 2e_i of the defining weights of so(p, q) is no root), so
        most of those are never tried.

        The ops are ad t_i with sigma_u t_i = +-t_i (t_i in k or in p), on a
        sigma_u-stable span such as a unit span.  sigma_u = theta sigma is an
        antilinear involutive automorphism, so [t, sigma_u x] = sigma_u
        [sigma_u t, x]; on k, where sigma_u t = t, ad t has imaginary
        eigenvalues, and on p, where sigma_u t = -t, real ones, so either way
        sigma_u maps the space of a label L onto that of -L.  Of each such
        twin pair only the one met first is solved: a subspace whose twin was
        split before it is split by mirroring the twin's spaces, and in the
        subspace of the all-zero label, its own twin, lam is mirrored from
        -lam once that is tried.  sigma_u conjugates each unit coordinate and
        negates it on p, so it keeps each vector's support and takes its last
        nonzero entry 1 to +-1; rescaled to 1, the mirror of a canonical
        kernel basis (each vector 1 at its last nonzero entry and 0 at those
        of the others) is the canonical basis that a solve returns.  Spaces
        are mirrored only to proposed labels, so the fill count, mirrored
        spaces included, stays the proof: it raises if the labels do not
        recover all of the span.
        """
        spaces: dict[tuple, list[Coords]] = {(): span}
        for i, op in enumerate(ops):
            refined: dict[tuple, list[Coords]] = {}
            done: set[tuple] = set()  # the labels whose split is done
            for label, sub in spaces.items():
                twin = tuple(-x for x in label)
                mirrored = twin in done
                candidates = dict.fromkeys(c[i] for c in labels if c[:i] == label)
                split, found, images = {}, 0, None  # every lam tried -> its space
                for lam in sorted(candidates, key=lambda x: abs(complex(x))):
                    if found == len(sub):
                        break
                    if mirrored:
                        eig = self._mirror(refined.get(twin + (-lam,), ()))
                    elif twin == label and -lam in split:
                        eig = self._mirror(split[-lam])
                    else:
                        if images is None:
                            support = _support(sub)
                            images = [[_apply(op, nz) for nz in support]]
                        eig = self._solve_in_span(support, images, lam)
                    split[lam] = eig
                    found += len(eig)
                if found != len(sub):
                    raise ModelError(
                        f"{self.form_id}: the rational proposals miss eigenvalues "
                        f"of the torus (recovered {found} of {len(sub)})"
                    )
                refined.update((label + (lam,), split[lam]) for lam in candidates
                               if split.get(lam))
                done.add(label)
            spaces = refined
        return list(spaces.items())

    def _mirror(self, space: Sequence[Coords]) -> list[Coords]:
        """sigma_u of each vector, scaled so that its last nonzero entry is 1."""
        p = set(self.p_indices)
        out = []
        for v in space:
            nonzero = [(j, (-x if j in p else x).conjugate()) for j, x in enumerate(v) if x]
            last = nonzero[-1][1]
            w = [ZERO] * len(v)
            for j, x in nonzero:
                w[j] = x if last == 1 else -x if last == -1 else x / last
            out.append(w)
        return out

    def torus_roots(self, torus: Sequence[Coords], span: Sequence[Coords]) -> tuple:
        """The root datum of the commuting t in ``torus`` on span(span).

        A root lists the eigenvalues of ad t, differences of the joint
        eigenvalues of the t on C^n.  The torus is read off its matrices:
        anti-Hermitian t (in k) have eigenvalues i q, and a root keeps the
        rationals q; Hermitian t (in p) have real ones; any other torus
        raises, as ``eigh`` needs one of the two, and then sigma_u t = -t^*
        = +-t, as ``joint_eigenspaces`` needs.  The sqrt(p_i), p_i distinct
        primes, are independent over Q, so the eigenvectors of one ``eigh``
        of sum_i sqrt(p_i) t_i (times -i for anti-Hermitian t) are joint ones
        if the eigenvalues are rational; rounded, those propose the roots, and
        ``joint_eigenspaces`` fails on a wrong or irrational proposal.  The
        proposed weights and their differences are integer tuples over one
        common denominator, sorted as such, with one scalar per distinct entry.
        Returns the zero space, the root spaces {root: space} sorted by root,
        the positive roots (those whose first nonzero entry is positive; any
        such order gives a positive system, and they are all W-conjugate),
        the simple roots, and the trace duals {root: G^-1 root}, G the trace
        Gram of the torus.
        """
        mats = np.array([self.matrix(t).astype(complex) for t in torus])
        # rounding commutes with negation and conjugation, so the rounded
        # matrix of an exactly (anti-)Hermitian t is exactly so
        adjoint = mats.conj().swapaxes(1, 2)
        imaginary = np.array_equal(mats, -adjoint)
        if imaginary:
            mats = mats * -1j
        elif not np.array_equal(mats, adjoint):
            raise ModelError(
                f"{self.form_id}: the torus is neither Hermitian nor anti-Hermitian")
        primes = np.sqrt((2, 3, 5, 7, 11, 13, 17)[:len(torus)])
        vecs = np.linalg.eigh(np.tensordot(primes, mats, axes=1))[1]
        joint = np.einsum("an,iab,bn->ni", vecs.conj(), mats, vecs).real.tolist()
        rounded = {x: Fraction(x).limit_denominator(PROPOSAL_DENOMINATOR)
                   for x in {x for row in joint for x in row}}
        D = math.lcm(*(q.denominator for q in rounded.values()))
        weights = {tuple(int(rounded[x] * D) for x in row) for row in joint}
        diffs = sorted({tuple(a - b for a, b in zip(s, t)) for s in weights for t in weights})
        entries = {n for d in diffs for n in d}
        value = {n: GaussianRational(n, 0, D) for n in entries}
        unit = {n: GaussianRational(0, n, D) for n in entries} if imaginary else value
        proposed = {tuple(unit[n] for n in d): d for d in diffs}
        found = {proposed[lam]: space for lam, space in self.joint_eigenspaces(
            [self.ad_matrix(t) for t in torus], list(proposed), span)}
        zero = found.pop((0,) * len(torus), [])
        ints = sorted(found)
        roots = {d: tuple(value[n] for n in d) for d in ints}
        spaces = {roots[d]: found[d] for d in ints}
        positive = [d for d in ints if next(x for x in d if x) > 0]
        inverse = exactla.inverse([[self._tr_form(s, t) for t in torus] for s in torus])
        dual = {r: [sum((g * x for g, x in zip(row, r)), ZERO) for row in inverse]
                for r in spaces}
        return (zero, spaces, [roots[d] for d in positive],
                [roots[d] for d in indecomposable(positive)], dual)

    def centralizer_in_span(
        self, elements: Sequence[Coords], span: Sequence[Coords]
    ) -> list[Coords]:
        ops = [self.ad_matrix(e) for e in elements]
        return self.kernel_in_span(ops, span)

    @cached_property
    def center_k(self) -> list[Coords]:
        """Cent k, the center of k, solved on first use."""
        return self.centralizer_in_span(self.k_units, self.k_units)


@lru_cache(maxsize=None)
def build_model(form_id: str) -> LieAlgebraModel:
    """Construct and validate the matrix model for a supported form id."""
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
    model.entries = [[] for _ in range(N)]
    for (i, r, s), x in zip(np.argwhere(basis).tolist(), basis[basis != 0].tolist()):
        model.entries[i].append((r, s, GaussianRational(int(x.real), int(x.imag))))

    # tr(XY) is X . Y^T, flattened, so G and T are one BLAS product each
    flat, flat_t = basis.reshape(N, -1), basis.swapaxes(1, 2).reshape(N, -1)
    gram = flat @ flat_t.T
    brackets = basis[:, None] @ basis[None, :]
    brackets -= brackets.swapaxes(0, 1)  # [b_i, b_j] = b_i b_j - b_j b_i
    T = (flat_t @ brackets.reshape(N * N, -1).T).reshape(N, N, N)
    if np.any(gram.imag):
        raise ModelError(f"{form_id}: trace form is not real on the basis")
    if np.any(T.imag):
        raise ModelError(f"{form_id}: a bracket leaves the real span of the basis")
    T = T.real.astype(np.int64)
    # each distinct entry of G, and below of D ad, is one scalar, shared
    gram = gram.real.astype(np.int64).tolist()
    scalar = {g: GaussianRational(g) for g in set().union(*gram)}
    model.tr_rows = [[(j, scalar[g]) for j, g in enumerate(row) if g] for row in gram]
    inverse = exactla.inverse([[scalar[g] for g in row] for row in gram])
    if inverse is None:
        raise ModelError(f"{form_id}: trace form is degenerate on the basis")
    # ad = G^-1 T, carried as the integers D ad over the common denominator D
    D = math.lcm(*(x.d for row in inverse for x in row))
    inverse = [[x.a * (D // x.d) for x in row] for row in inverse]
    ad_max = N * max(abs(x) for row in inverse for x in row) * int(np.abs(T).max())
    if max(N * ad_max * bmax, 2 * D * n * bmax**2) >= 2**53:
        raise ModelError(f"{form_id}: brackets too large for exact arithmetic")
    scaled = np.tensordot(np.array(inverse), T, axes=1)
    brackets *= D
    if not np.array_equal(scaled.reshape(N, -1).T @ flat, brackets.reshape(N * N, -1)):
        raise ModelError(f"{form_id}: basis is not closed under the bracket")
    # ad[i][j] lists (r, ad[r, i, j]) over the nonzero entries, r ascending
    by_column = np.moveaxis(scaled, 0, -1)
    values = by_column[by_column != 0].tolist()
    scalar = {x: GaussianRational(x, 0, D) for x in set(values)}
    model.ad = [[[] for _ in range(N)] for _ in range(N)]
    for (i, j, r), x in zip(np.argwhere(by_column).tolist(), values):
        model.ad[i][j].append((r, scalar[x]))

    adjoint = basis.conj().swapaxes(-1, -2)
    model.k_indices = np.flatnonzero((adjoint == -basis).all(axis=(1, 2))).tolist()
    model.p_indices = np.flatnonzero((adjoint == basis).all(axis=(1, 2))).tolist()
    # the unit spans share the vectors b_i
    units = [model.unit_coords(i) for i in range(N)]
    model.units, model.k_units, model.p_units, model.a_units = (
        [units[i] for i in idx]
        for idx in (range(N), model.k_indices, model.p_indices, model.a_indices))
    _validate_model(model)
    model.m_basis = model.centralizer_in_span(model.a_units, model.k_units)
    return model


def _validate_model(model: LieAlgebraModel) -> None:
    # only what build_model leaves open is checked: theta(X) = -X^* is an
    # automorphism of gl(n, C) and ad is real, so ad is k/p-graded; tr(XY)
    # is imaginary for X in k, Y in p, and the Gram is real, so it is 0
    # there; tr(X^2) is -|X|^2 on k and +|X|^2 on p, so the nondegenerate
    # Gram is negative on k and positive on p; and a lies in Cent_p(a)
    # sigma, antilinear by its spec, is the conjugation of this real form
    # when it fixes the basis
    if not np.array_equal(model.sigma_spec.apply(model.basis), model.basis):
        raise ModelError(f"{model.form_id}: sigma does not fix the real basis")
    # theta(X) = -X^* is +1 on k and -1 on p, so it is diagonal on the basis
    # exactly when k and p, read off the basis, partition it
    if sorted(model.k_indices + model.p_indices) != list(range(model.dim)):
        raise ModelError(
            f"{model.form_id}: a basis matrix is neither Hermitian nor anti-Hermitian"
        )
    # a is maximal abelian in p
    if not exactla.same_span(model.centralizer_in_span(model.a_units, model.p_units),
                             model.a_units):
        raise ModelError(f"{model.form_id}: a is not maximal abelian in p")
