"""Floating-point view of a matrix model for the sampling verifications.

The exact layer fixes every distinguished element; this module converts them
to numpy arrays once per form and provides the group action, the invariant
form, the compact projection, and the unitary pairing at float precision.

The compact conjugation is sigma_u(X) = -X^* on g_C, the same formula on every
model; the conjugation sigma of the real form is the model's
:class:`~.matmodel.qmat.Involution` spec.  The Cartan involution is the
complex-linear theta = sigma_u o sigma, which is -X^* on g itself.

Group elements are products of exponentials of three kinds of factor, and
`expm` tells them apart by a property that holds exactly in floating point,
since real combinations of exactly (anti-)Hermitian basis matrices stay
exactly (anti-)Hermitian:

* k factors and isotropy factors are anti-Hermitian: with one ``eigh`` of
  the Hermitian i X = V diag(lambda) V^*, exp(X) = V exp(-i lambda) V^* is
  unitary and exp(-X) is its adjoint;
* a factors are Hermitian: with one ``eigh`` of X,
  exp(+-X) = V exp(+-lambda) V^*;
* n factors are nilpotent: exp(+-X) is the terminating series
  sum_{j<n} (+-X)^j / j!, after a test that X^n vanishes to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import exactla
from .matmodel import ModelAnalysis, analyze, catalog_key, compact_partner
from .matmodel import qmat


def _as_array(mat) -> np.ndarray:
    return np.array(qmat.to_complex(mat), dtype=complex)


def involution(spec: qmat.Involution):
    """The float form of an exact conjugation spec, X -> sign * J op(X) J^T."""
    J = None if spec.J is None else _as_array(spec.J)

    def apply(X: np.ndarray) -> np.ndarray:
        if spec.transpose:
            X = X.T
        if spec.conjugate:
            X = X.conj()
        if J is not None:
            X = J @ X @ J.T
        return -X if spec.sign < 0 else X

    return apply


NILPOTENT_RTOL = 1e-12


def expm(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (exp(X), exp(-X)) from one decomposition of X.

    Spectral for exactly anti-Hermitian or Hermitian X, the terminating
    series otherwise; raises ValueError when X is none of the three kinds,
    i.e. when X^n does not vanish to relative NILPOTENT_RTOL.
    """
    Xh = X.conj().T
    if np.array_equal(X, -Xh):
        lam, V = np.linalg.eigh(1j * X)  # X = -i V diag(lam) V^*
        unitary = (V * np.exp(-1j * lam)) @ V.conj().T
        return unitary, unitary.conj().T
    if np.array_equal(X, Xh):
        lam, V = np.linalg.eigh(X)
        Vh = V.conj().T
        return (V * np.exp(lam)) @ Vh, (V * np.exp(-lam)) @ Vh
    n = X.shape[0]
    term = np.eye(n, dtype=np.result_type(X, float))
    plus, minus = term.copy(), term.copy()
    for j in range(1, n):
        term = term @ X / j  # X^j / j!
        plus += term
        minus += term if j % 2 == 0 else -term
    # ||X^n|| <= NILPOTENT_RTOL ||X||^n, both sides divided by (n-1)!
    bound = NILPOTENT_RTOL * np.linalg.norm(X) ** n / math.factorial(n - 1)
    if np.linalg.norm(term @ X) > bound:
        raise ValueError(
            "expm: matrix is neither anti-Hermitian, Hermitian nor nilpotent"
        )
    return plus, minus


@dataclass
class GroupElement:
    """Product of exponentials of algebra elements, with exact inverse.

    Each factor is a k or isotropy factor (anti-Hermitian), an a factor
    (Hermitian) or an n factor (nilpotent); `expm` returns exp(f) and exp(-f)
    of a factor from one decomposition.  The factor exponentials, the matrix
    and its inverse are each computed once per element; a product ``g * h``
    reuses the factor exponentials of both sides, so they agree bit for bit
    with a freshly built element.
    """

    factors: list[np.ndarray] = field(default_factory=list)

    @cached_property
    def _exps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [expm(f) for f in self.factors]

    def __mul__(self, other: GroupElement) -> GroupElement:
        product = GroupElement(self.factors + other.factors)
        product._exps = self._exps + other._exps
        return product

    @cached_property
    def matrix(self) -> np.ndarray:
        n = self.factors[0].shape[0] if self.factors else 1
        out = np.eye(n, dtype=complex)
        for exp_f, _ in self._exps:
            out = out @ exp_f
        return out

    @cached_property
    def inverse(self) -> np.ndarray:
        n = self.factors[0].shape[0] if self.factors else 1
        out = np.eye(n, dtype=complex)
        for _, exp_neg_f in reversed(self._exps):
            out = out @ exp_neg_f
        return out

    def ad(self, X: np.ndarray) -> np.ndarray:
        if not self.factors:
            return X
        return self.matrix @ X @ self.inverse


class ModelNumerics:
    """Distinguished elements and operations of one model, as floats."""

    def __init__(self, analysis: ModelAnalysis):
        model = analysis.model
        self.form_id = analysis.form_id
        self.c = float(model.c)
        self.analysis = analysis
        self.dim_Z = analysis.invariants.dim_Z
        self.dim_X = analysis.invariants.dim_X

        mat = lambda coords: _as_array(model.matrix(coords))
        self.e = mat(analysis.striple.e)
        self.x_psi = mat(analysis.striple.x)
        self.z = mat(compact_partner(analysis.cayley))
        self.v = mat(analysis.cayley.v)
        self.sigma = involution(model.sigma_spec)

        self.k_basis = [mat(model.unit_coords(i)) for i in model.k_indices]
        self.p_basis = [mat(model.unit_coords(i)) for i in model.p_indices]
        self.a_basis = [mat(model.unit_coords(i)) for i in model.a_indices]
        self.n_basis = [mat(v) for v in analysis.datum.n_basis]

        lam = analysis.lambda_data()
        self.k_nu_basis = [mat(v) for v in lam.k_nu_basis]
        self.center_k_basis = [mat(v) for v in lam.center_basis]

        # B-orthogonal complement of k_nu inside k, computed exactly
        k_units = model.subspace_units(model.k_indices)
        gram_rows = [
            [model.B(y, x) for x in k_units] for y in lam.k_nu_basis
        ]
        if gram_rows:
            sol = exactla.kernel_basis(gram_rows)
            perp_coords = []
            for t in sol:
                vec = [0] * model.dim
                for coef, unit in zip(t, k_units):
                    for r in range(model.dim):
                        vec[r] = vec[r] + coef * unit[r]
                perp_coords.append(vec)
        else:
            perp_coords = list(k_units)
        perp_coords = exactla.orthogonalize(perp_coords, model.B)
        self.k_nu_perp_basis = [mat(v) for v in perp_coords]

    @cached_property
    def isotropy_basis(self) -> list[np.ndarray]:
        """Basis of the isotropy algebra of e in k, solved exactly on first use.

        Lazy, so building the numerics of a form does no exact work that only
        the correspondence check needs.
        """
        model = self.analysis.model
        k_units = model.subspace_units(model.k_indices)
        iso = model.centralizer_in_span([self.analysis.striple.e], k_units)
        return [_as_array(model.matrix(vec)) for vec in iso]

    # -- operations ----------------------------------------------------------
    def bracket(self, X, Y):
        return X @ Y - Y @ X

    def B(self, X, Y) -> complex:
        # tr(XY) without forming XY
        return self.c * (X.ravel() @ Y.T.ravel())

    def sigma_u(self, X):
        """The compact conjugation -X^* (antilinear)."""
        return -X.conj().T

    def hermitian_pairing(self, X, Y) -> complex:
        """Invariant Hilbert pairing {X, Y} = -B(X, sigma_u(Y))."""
        return -self.B(X, self.sigma_u(Y))

    def k_component(self, X):
        """(X + theta X) / 2 with the complex-linear theta = sigma_u o sigma,
        so that complex points of p_C project to zero."""
        return (X - self.sigma(X).conj().T) / 2.0

    def sample_k(self, rng, scale: float = 1.0) -> np.ndarray:
        coeffs = rng.standard_normal(len(self.k_basis)) * scale
        return sum(c * b for c, b in zip(coeffs, self.k_basis))

    def sample_span(self, rng, basis, scale: float = 1.0) -> np.ndarray:
        coeffs = rng.standard_normal(len(basis)) * scale
        return sum(c * b for c, b in zip(coeffs, basis))

    def sample_pc(self, rng, scale: float = 1.0) -> np.ndarray:
        re = rng.standard_normal(len(self.p_basis))
        im = rng.standard_normal(len(self.p_basis))
        return sum(
            (complex(a, b) * scale) * m for a, b, m in zip(re, im, self.p_basis)
        )


def numerics(form_id: str, catalog: str | Path | None = None) -> ModelNumerics:
    """Float view of ``analyze(form_id, catalog)``."""
    return _numerics_cached(form_id, catalog_key(catalog))


@lru_cache(maxsize=None)
def _numerics_cached(form_id: str, catalog: str | None) -> ModelNumerics:
    return ModelNumerics(analyze(form_id, catalog))
