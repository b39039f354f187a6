"""Matrix realizations of the supported classical real forms.

``FAMILIES`` is the one table of modeled forms: it maps each form id to its
builder and the builder's arguments, and ``MODEL_IDS`` is its keys, in order.
A builder returns only what is a choice: a real basis of the algebra inside
gl(n, C), as matrices whose entries are Gaussian integers; the generators of
the standard maximal abelian subspace a of p, as matrices, which
``family_data`` locates in the basis by value; and the conjugation sigma of
the real form.  The rest is read off the basis, as the eigenvalues are: the
model computes them, and it splits the basis into k and p by Hermiticity.

Every model is closed under conjugate transpose: the compact generators are
anti-Hermitian and the noncompact ones Hermitian, so the Cartan involution is
theta(X) = -X^* on every model and is not part of the family data.  sigma
does differ by real form; it is an :class:`Involution` spec
``(sign, transpose, J)`` meaning X -> sign * J op(conj(X)) J^T, whose one
numpy ``apply`` serves both lanes, on object arrays of exact entries and on
complex stacks alike:

* real-matrix forms (sl(n,R), sp(4,R), so(p,q)) use sigma(X) = conj(X);
* su(p,q) is presented with the signature form J = diag(I_p, -I_q), and
  sigma(X) = -J X^* J;
* sl(2,H) consists of blocks [[P, Q], [-conj(Q), conj(P)]] with Re tr P = 0,
  and sigma(X) = Jq conj(X) Jq^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Involution:
    """The conjugation sigma of a real form: X -> sign * J op(conj(X)) J^T.

    sigma is antilinear, so ``apply`` always conjugates entrywise; ``op``
    transposes or not, and ``J`` is an orthogonal integer matrix, None
    standing for the identity.  ``apply`` acts on the last two axes, so it
    takes one matrix or a stack, of complex floats or of exact
    :class:`~minorbit.exactla.GaussianRational` objects.  The Cartan
    involution needs no spec: it is -X^* on every model.
    """

    sign: int
    transpose: bool = False
    J: np.ndarray | None = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.transpose:
            X = X.swapaxes(-1, -2)
        X = X.conj()
        if self.J is not None:
            X = self.J @ X @ self.J.T
        return -X if self.sign < 0 else X


# sigma of the real-matrix forms sl(n,R), sp(4,R) and so(p,q)
CONJUGATE = Involution(1)


@dataclass
class FamilyData:
    form_id: str
    n: int
    basis: np.ndarray  # (N, n, n), Gaussian-integer entries
    a_indices: list[int]  # positions of the abelian generators inside basis
    sigma_spec: Involution


def _unit(n: int, i: int, j: int, value: complex = 1) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[i, j] = value
    return out


def _sym(n: int, i: int, j: int, value: complex = 1) -> np.ndarray:
    return _unit(n, i, j, value) + _unit(n, j, i, value)


def _antisym(n: int, i: int, j: int, value: complex = 1) -> np.ndarray:
    return _unit(n, i, j, value) - _unit(n, j, i, value)


def _sl_n_real(n: int):
    pairs = list(combinations(range(n), 2))
    a = [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]
    basis = [_antisym(n, i, j) for i, j in pairs] + [_sym(n, i, j) for i, j in pairs]
    return basis + a, a, CONJUGATE


def _su_pq(p: int, q: int):
    n = p + q
    basis = [X for block in (range(p), range(p, n)) for a, b in combinations(block, 2)
             for X in (_antisym(n, a, b), _sym(n, a, b, 1j))]
    basis += [_unit(n, j, j, 1j) - _unit(n, j + 1, j + 1, 1j) for j in range(n - 1)]
    basis += [X for a in range(p) for b in range(p, n)
              for X in (_sym(n, a, b), _antisym(n, a, b, 1j))]
    # a_i couples index i with n+1-i
    a = [_sym(n, i, n - 1 - i) for i in range(q)]
    J = np.diag([1] * p + [-1] * q)
    return basis, a, Involution(-1, transpose=True, J=J)


def _so_pq(p: int, q: int):
    n = p + q
    basis = [_antisym(n, a, b)
             for block in (range(p), range(p, n)) for a, b in combinations(block, 2)]
    basis += [_sym(n, a, b) for a in range(p) for b in range(p, n)]
    return basis, [_sym(n, i, p + i) for i in range(q)], CONJUGATE


def _sp4_real():
    z2 = np.zeros((2, 2))
    sym = [_unit(2, 0, 0), _unit(2, 1, 1), _sym(2, 0, 1)]

    def embed_a(A: np.ndarray) -> np.ndarray:
        return np.block([[A, z2], [z2, -A.T]])

    # compact part: antisymmetric members, u(2) inside sp(4)
    basis = [embed_a(_antisym(2, 0, 1))] + [np.block([[z2, S], [-S, z2]]) for S in sym]
    # noncompact part: symmetric members
    basis += [embed_a(S) for S in sym] + [np.block([[z2, S], [S, z2]]) for S in sym]
    return basis, [embed_a(_unit(2, i, i)) for i in range(2)], CONJUGATE


def _sl2_quaternion():
    I2 = np.eye(2, dtype=int)
    Jq = np.block([[0 * I2, -I2], [I2, 0 * I2]])

    def embed(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return np.block([[P, Q], [-Q.conj(), P.conj()]])

    z2 = np.zeros((2, 2), dtype=complex)
    # anti-Hermitian members (compact): P in u(2), Q symmetric
    basis = [
        embed(P, z2)
        for P in (_antisym(2, 0, 1), _sym(2, 0, 1, 1j), _unit(2, 0, 0, 1j),
                  _unit(2, 1, 1, 1j))
    ]
    basis += [
        embed(z2, Q)
        for Q in (_unit(2, 0, 0), _unit(2, 1, 1), _sym(2, 0, 1), _unit(2, 0, 0, 1j),
                  _unit(2, 1, 1, 1j), _sym(2, 0, 1, 1j))
    ]
    # Hermitian members (noncompact): P Hermitian traceless, Q antisymmetric
    diagonal = _unit(2, 0, 0) - _unit(2, 1, 1)
    basis += [embed(P, z2) for P in (_sym(2, 0, 1), _antisym(2, 0, 1, 1j), diagonal)]
    basis += [embed(z2, Q) for Q in (_antisym(2, 0, 1), _antisym(2, 0, 1, 1j))]
    return basis, [embed(diagonal, z2)], Involution(1, J=Jq)


FAMILIES = {
    "sl2R": (_sl_n_real, 2),
    "sl3R": (_sl_n_real, 3),
    "sl4R": (_sl_n_real, 4),
    "sl5R": (_sl_n_real, 5),
    "su21": (_su_pq, 2, 1),
    "su31": (_su_pq, 3, 1),
    "su41": (_su_pq, 4, 1),
    "su22": (_su_pq, 2, 2),
    "su32": (_su_pq, 3, 2),
    "sp4R": (_sp4_real,),
    "so32": (_so_pq, 3, 2),
    "so42": (_so_pq, 4, 2),
    "so52": (_so_pq, 5, 2),
    "so33": (_so_pq, 3, 3),
    "so43": (_so_pq, 4, 3),
    "sl2H": (_sl2_quaternion,),
}
MODEL_IDS = tuple(FAMILIES)


def family_data(form_id: str) -> FamilyData:
    """Raw basis data for a modeled form id."""
    if form_id not in FAMILIES:
        raise ModelError(f"form {form_id!r} has no matrix model")
    builder, *args = FAMILIES[form_id]
    basis, a, sigma = builder(*args)
    basis = np.array(basis)
    rows, a_indices = np.nonzero((np.array(a)[:, None] == basis).all(axis=(-2, -1)))
    if rows.tolist() != list(range(len(a))):
        raise ModelError(f"{form_id}: an a generator is not a basis matrix")
    return FamilyData(form_id, basis.shape[-1], basis, a_indices.tolist(), sigma)
