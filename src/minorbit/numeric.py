"""Floating-point view of a matrix model for the sampling verifications.

The exact layer fixes every distinguished element; this module converts them
to numpy arrays once per form and provides the group action, the invariant
form, the compact projection, and the unitary pairing at float precision.
Every operation takes a matrix or a stack ``(..., n, n)`` of them and
broadcasts over the leading axes, one call for a chunk of samples.

The compact conjugation is sigma_u(X) = -X^* on g_C, the same formula on every
model; the conjugation sigma of the real form is the ``apply`` of the model's
:class:`~.matmodel.families.Involution` spec, the one the exact lane uses.
The Cartan involution is the complex-linear theta = sigma_u o sigma, which is
-X^* on g itself.

Group elements are products of exponentials of three kinds of factor, and
`expm` tells them apart by a property that holds exactly in floating point,
since real combinations of exactly (anti-)Hermitian basis matrices stay
exactly (anti-)Hermitian.  A stacked factor holds one kind:

* k factors and isotropy factors are anti-Hermitian: with one ``eigh`` of
  the Hermitian i X = V diag(lambda) V^*, exp(X) = V exp(-i lambda) V^* is
  unitary and exp(-X) is its adjoint;
* a factors are Hermitian: with one ``eigh`` of X,
  exp(+-X) = V exp(+-lambda) V^*;
* n factors are nilpotent: exp(+-X) is the terminating series
  sum_{j<n} (+-X)^j / j!, after a test that each X^n vanishes to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from pathlib import Path

import numpy as np

from .matmodel import ModelAnalysis, analyze, catalog_key, compact_partner


def adjoint(X: np.ndarray) -> np.ndarray:
    """The conjugate transpose X^* of each matrix of a stack."""
    return X.conj().swapaxes(-1, -2)


def trace_pairs(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """tr(P_i Q_j) for all pairs of two stacks (..., p, n, n), (..., q, n, n):
    one product of the flattened matrices, (..., p, q), forming no P_i Q_j."""
    n2 = P.shape[-2] * P.shape[-1]
    Qt = Q.swapaxes(-1, -2).reshape(*Q.shape[:-2], n2)
    return P.reshape(*P.shape[:-2], n2) @ Qt.swapaxes(-1, -2)


NILPOTENT_RTOL = 1e-12


def expm(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (exp(X), exp(-X)) from one decomposition of each matrix of X.

    Spectral when all of the stack X is exactly anti-Hermitian, or exactly
    Hermitian; the terminating series otherwise, which raises ValueError when
    some X^n does not vanish to relative NILPOTENT_RTOL, i.e. when a matrix
    of X is none of the three kinds.
    """
    Xh = adjoint(X)
    if np.array_equal(X, -Xh):
        lam, V = np.linalg.eigh(1j * X)  # X = -i V diag(lam) V^*
        unitary = (V * np.exp(-1j * lam)[..., None, :]) @ adjoint(V)
        return unitary, adjoint(unitary)
    if np.array_equal(X, Xh):
        lam, V = np.linalg.eigh(X)
        Vh = adjoint(V)
        return ((V * np.exp(lam)[..., None, :]) @ Vh,
                (V * np.exp(-lam)[..., None, :]) @ Vh)
    n = X.shape[-1]
    eye = np.eye(n)
    term, plus, minus = X, eye + X, eye - X
    for j in range(2, n):
        term = term @ X / j  # X^j / j!
        plus = plus + term
        minus = minus + term if j % 2 == 0 else minus - term
    # ||X^n|| <= NILPOTENT_RTOL ||X||^n, both sides divided by (n-1)!
    norm = np.linalg.norm(X, axis=(-2, -1))
    bound = NILPOTENT_RTOL * norm**n / math.factorial(n - 1)
    if np.any(np.linalg.norm(term @ X, axis=(-2, -1)) > bound):
        raise ValueError(
            "expm: matrix is neither anti-Hermitian, Hermitian nor nilpotent"
        )
    return plus, minus


def _read_only(X: np.ndarray) -> np.ndarray:
    X.flags.writeable = False
    return X


@dataclass
class GroupElement:
    """Products of exponentials of algebra elements, with exact inverses.

    Each factor is a matrix or an (S, n, n) stack, one per sample, of one
    kind: k or isotropy (anti-Hermitian), a (Hermitian) or n (nilpotent); one
    `expm` call gives exp(f) and exp(-f) of the whole stack.  These, the
    matrices and their inverses, and the transport of each matrix object
    are computed once per element and read-only, so that one element can
    serve several checks; a product ``g * h`` reuses the factor
    exponentials of both sides, bit for bit.
    """

    factors: list[np.ndarray] = field(default_factory=list)
    # (X, g X g^-1) per matrix object X transported so far
    _transports: list[tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list, init=False, repr=False, compare=False)

    @cached_property
    def _exps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [tuple(map(_read_only, expm(f))) for f in self.factors]

    def __mul__(self, other: GroupElement) -> GroupElement:
        product = GroupElement(self.factors + other.factors)
        product._exps = self._exps + other._exps
        return product

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The matrices g and g^-1."""
        g = reduce(np.matmul, [plus for plus, _ in self._exps])
        g_inv = reduce(np.matmul, [minus for _, minus in reversed(self._exps)])
        return _read_only(g), _read_only(g_inv)

    def ad(self, X: np.ndarray) -> np.ndarray:
        """g X g^-1, broadcast between the element's and X's leading axes.

        Computed on the first call for the object X and kept with X, so X
        must not be written to while the element lives.
        """
        if not self.factors:
            return X
        for held, moved in self._transports:
            if held is X:
                return moved
        g, g_inv = self._ends
        moved = _read_only(g @ X @ g_inv)
        self._transports.append((X, moved))
        return moved


class ModelNumerics:
    """Distinguished elements and operations of one model, as floats."""

    def __init__(self, analysis: ModelAnalysis):
        model = analysis.model
        self.c = float(model.c)
        self.analysis = analysis

        mat = lambda coords: model.matrix(coords).astype(complex)
        self.e = mat(analysis.striple.e)
        self.x_psi = mat(analysis.striple.x)
        self.z = mat(compact_partner(analysis.cayley))
        self.v = mat(analysis.cayley.v)
        self.sigma = model.sigma_spec.apply

        # + 0 turns the basis' -0.0 parts into the +0.0 that `mat` gives
        self.k_basis = [model.basis[i] + 0 for i in model.k_indices]
        self.p_basis = [model.basis[i] + 0 for i in model.p_indices]
        self.a_basis = [model.basis[i] + 0 for i in model.a_indices]
        self.n_basis = [mat(v) for v in analysis.datum.n_basis]

        lam = analysis.lambda_data()
        self.k_nu_basis = [mat(v) for v in lam.k_nu_basis]
        self.k_nu_complement_basis = [mat(v) for v in lam.k_nu_complement]
        self.center_k_basis = [mat(v) for v in model.center_k]

    @cached_property
    def isotropy_basis(self) -> list[np.ndarray]:
        """Basis of the isotropy algebra of e in k, read from the S-triple and
        converted to floats on first use.

        Lazy, so building the numerics of a form does no exact work that only
        the correspondence check needs.
        """
        model = self.analysis.model
        return [model.matrix(v).astype(complex) for v in self.analysis.striple.isotropy]

    # -- operations, each over any leading axes --------------------------------
    def bracket(self, X, Y):
        return X @ Y - Y @ X

    def B(self, X, Y):
        """c tr(XY), without forming XY."""
        return self.c * trace_pairs(X[..., None, :, :], Y[..., None, :, :])[..., 0, 0]

    def sigma_u(self, X):
        """The compact conjugation -X^* (antilinear)."""
        return -adjoint(X)

    def hermitian_pairing(self, X, Y):
        """Invariant Hilbert pairing {X, Y} = -B(X, sigma_u(Y))."""
        return -self.B(X, self.sigma_u(Y))

    def k_component(self, X):
        """(X + theta X) / 2 with the complex-linear theta = sigma_u o sigma,
        so that complex points of p_C project to zero."""
        return (X - adjoint(self.sigma(X))) / 2.0

    def span(self, coeffs: np.ndarray, basis) -> np.ndarray:
        """sum_k coeffs[:, k] basis[k] per row, summed in basis order."""
        return sum(coeffs[:, k, None, None] * b for k, b in enumerate(basis))


def numerics(form_id: str, catalog: str | Path | None = None) -> ModelNumerics:
    """Float view of ``analyze(form_id, catalog)``."""
    return _numerics_cached(form_id, catalog_key(catalog))


@lru_cache(maxsize=None)
def _numerics_cached(form_id: str, catalog: str | None) -> ModelNumerics:
    return ModelNumerics(analyze(form_id, catalog))
