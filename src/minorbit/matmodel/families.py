"""Matrix realizations of the supported classical real forms.

Each builder returns the raw ingredients of a model: a real basis of the
algebra inside gl(n, C), as one (N, n, n) complex array whose entries are
Gaussian integers, split into compact and noncompact generators, the
standard maximal abelian subspace inside the noncompact part, and the
conjugation sigma of the real form.

Every model is closed under conjugate transpose: the compact generators are
anti-Hermitian and the noncompact ones Hermitian, so the Cartan involution is
theta(X) = -X^* on every model and is not part of the family data.  sigma
does differ by real form; it is an :class:`Involution` spec
``(sign, transpose, conjugate, J)`` meaning X -> sign * J op(X) J^T, whose one
numpy ``apply`` serves both lanes, on object arrays of exact entries and on
complex stacks alike:

* real-matrix forms (sl(n,R), sp(4,R), so(p,q)) use sigma(X) = conj(X);
* su(p,q) is presented with the signature form J = diag(I_p, -I_q), and
  sigma(X) = -J X^* J;
* sl(2,H) consists of blocks [[P, Q], [-conj(Q), conj(P)]] with Re tr P = 0,
  and sigma(X) = Jq conj(X) Jq^T.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

MODEL_IDS = (
    "sl2R",
    "sl3R",
    "sl4R",
    "sl5R",
    "su21",
    "su31",
    "su41",
    "su22",
    "su32",
    "sp4R",
    "so32",
    "so42",
    "so52",
    "so33",
    "so43",
    "sl2H",
)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Involution:
    """The conjugation sigma of a real form: X -> sign * J op(X) J^T.

    ``op`` transposes and/or conjugates entrywise; ``J`` is an orthogonal
    integer matrix, and None stands for the identity.  ``apply`` acts on the
    last two axes, so it takes one matrix or a stack, of complex floats or of
    exact :class:`~minorbit.exactla.QI` objects.  The Cartan involution needs
    no spec: it is -X^* on every model.
    """

    sign: int
    transpose: bool = False
    conjugate: bool = False
    J: np.ndarray | None = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        if self.transpose:
            X = X.swapaxes(-1, -2)
        if self.conjugate:
            X = X.conj()
        if self.J is not None:
            X = self.J @ X @ self.J.T
        return -X if self.sign < 0 else X


# sigma of the real-matrix forms sl(n,R), sp(4,R) and so(p,q)
CONJUGATE = Involution(1, conjugate=True)


@dataclass
class FamilyData:
    form_id: str
    family: str
    n: int
    basis: np.ndarray  # (N, n, n), Gaussian-integer entries
    k_indices: list[int]
    p_indices: list[int]
    a_indices: list[int]  # positions of the abelian generators inside basis
    sigma: Involution
    # eigenvalues each a-generator can have in the defining representation
    defining_eigs: list[set[Fraction]] = field(default_factory=list)
    # maps the a-eigenvalue vector of a root to the coordinates used for the
    # lexicographic positivity choice (identity unless the a-basis is a chain
    # whose raw values would order the roots away from the standard system)
    positivity_key: Callable[[tuple], tuple] = lambda values: values


def _sl_chain_key(values: tuple) -> tuple:
    """Diagonal coordinates of a root from its values on E_ii - E_{i+1,i+1}."""
    n = len(values) + 1
    partial = [Fraction(0)]
    for v in values:
        partial.append(partial[-1] - v)
    shift = sum(partial) / n
    return tuple(p - shift for p in partial)


def _unit(n: int, i: int, j: int, value: complex = 1) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[i, j] = value
    return out


def _sym(n: int, i: int, j: int, value: complex = 1) -> np.ndarray:
    return _unit(n, i, j, value) + _unit(n, j, i, value)


def _antisym(n: int, i: int, j: int, value: complex = 1) -> np.ndarray:
    return _unit(n, i, j, value) - _unit(n, j, i, value)


def _position(basis: list[np.ndarray], indices: list[int], target: np.ndarray) -> int:
    return next(k for k in indices if np.array_equal(basis[k], target))


def _sl_n_real(form_id: str, n: int) -> FamilyData:
    basis: list[np.ndarray] = []
    k_idx, p_idx, a_idx = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            k_idx.append(len(basis))
            basis.append(_antisym(n, i, j))
    for i in range(n):
        for j in range(i + 1, n):
            p_idx.append(len(basis))
            basis.append(_sym(n, i, j))
    for i in range(n - 1):
        a_idx.append(len(basis))
        p_idx.append(len(basis))
        basis.append(_unit(n, i, i) - _unit(n, i + 1, i + 1))
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(n - 1)]
    return FamilyData(
        form_id=form_id,
        family="slR",
        n=n,
        basis=np.array(basis),
        k_indices=k_idx,
        p_indices=p_idx,
        a_indices=a_idx,
        sigma=CONJUGATE,
        defining_eigs=eigs,
        positivity_key=_sl_chain_key,
    )


def _su_pq(form_id: str, p: int, q: int) -> FamilyData:
    n = p + q
    J = np.diag([1] * p + [-1] * q)
    basis: list[np.ndarray] = []
    k_idx, p_idx, a_idx = [], [], []
    for block in (range(p), range(p, n)):
        block = list(block)
        for ai in range(len(block)):
            for bi in range(ai + 1, len(block)):
                a, b = block[ai], block[bi]
                k_idx.append(len(basis))
                basis.append(_antisym(n, a, b))
                k_idx.append(len(basis))
                basis.append(_sym(n, a, b, 1j))
    for j in range(n - 1):
        k_idx.append(len(basis))
        basis.append(_unit(n, j, j, 1j) - _unit(n, j + 1, j + 1, 1j))
    for a in range(p):
        for b in range(p, n):
            p_idx.append(len(basis))
            basis.append(_sym(n, a, b))
            p_idx.append(len(basis))
            basis.append(_antisym(n, a, b, 1j))
    # a_i couples index i with n+1-i; these sit among the symmetric generators.
    a_idx = [_position(basis, p_idx, _sym(n, i, n - 1 - i)) for i in range(q)]
    sigma = Involution(-1, transpose=True, conjugate=True, J=J)
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(q)]
    return FamilyData(
        form_id, "su", n, np.array(basis), k_idx, p_idx, a_idx, sigma, eigs
    )


def _so_pq(form_id: str, p: int, q: int) -> FamilyData:
    n = p + q
    basis: list[np.ndarray] = []
    k_idx, p_idx = [], []
    for block in (range(p), range(p, n)):
        block = list(block)
        for ai in range(len(block)):
            for bi in range(ai + 1, len(block)):
                k_idx.append(len(basis))
                basis.append(_antisym(n, block[ai], block[bi]))
    for a in range(p):
        for b in range(p, n):
            p_idx.append(len(basis))
            basis.append(_sym(n, a, b))
    a_idx = [_position(basis, p_idx, _sym(n, i, p + i)) for i in range(q)]
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(q)]
    return FamilyData(
        form_id, "so", n, np.array(basis), k_idx, p_idx, a_idx, CONJUGATE, eigs
    )


def _sp4_real(form_id: str) -> FamilyData:
    z2 = np.zeros((2, 2))
    sym = [_unit(2, 0, 0), _unit(2, 1, 1), _sym(2, 0, 1)]

    def embed_a(A: np.ndarray) -> np.ndarray:
        return np.block([[A, z2], [z2, -A.T]])

    # compact part: antisymmetric members, u(2) inside sp(4)
    k_members = [embed_a(_antisym(2, 0, 1))]
    k_members += [np.block([[z2, S], [-S, z2]]) for S in sym]
    # noncompact part: symmetric members
    p_members = [embed_a(_unit(2, 0, 0)), embed_a(_unit(2, 1, 1))]
    p_members.append(embed_a(_sym(2, 0, 1)))
    p_members += [np.block([[z2, S], [S, z2]]) for S in sym]
    basis = k_members + p_members
    k_idx = list(range(len(k_members)))
    p_idx = list(range(len(k_members), len(basis)))
    a_idx = [_position(basis, p_idx, embed_a(_unit(2, i, i))) for i in range(2)]
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(2)]
    return FamilyData(
        form_id, "spR", 4, np.array(basis), k_idx, p_idx, a_idx, CONJUGATE, eigs
    )


def _sl2_quaternion(form_id: str) -> FamilyData:
    I2 = np.eye(2, dtype=int)
    Jq = np.block([[0 * I2, -I2], [I2, 0 * I2]])
    sigma = Involution(1, conjugate=True, J=Jq)

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
    # a generator in neither list fails the model's partition check
    k_idx = [i for i, X in enumerate(basis) if np.array_equal(X.conj().T, -X)]
    p_idx = [i for i, X in enumerate(basis) if np.array_equal(X.conj().T, X)]
    a_idx = [_position(basis, p_idx, embed(diagonal, z2))]
    eigs = [{Fraction(1), Fraction(-1)}]
    return FamilyData(
        form_id, "sl2H", 4, np.array(basis), k_idx, p_idx, a_idx, sigma, eigs
    )


def family_data(form_id: str) -> FamilyData:
    """Raw basis data for a supported model id."""
    if m := re.fullmatch(r"sl(\d)R", form_id):
        n = int(m.group(1))
        if not 2 <= n <= 5:
            raise ModelError(f"sl(n,R) models support 2 <= n <= 5, got {n}")
        return _sl_n_real(form_id, n)
    if m := re.fullmatch(r"su(\d)(\d)", form_id):
        p, q = int(m.group(1)), int(m.group(2))
        if not (p >= q >= 1 and 3 <= p + q <= 5):
            raise ModelError(f"su(p,q) models need p >= q >= 1, 3 <= p+q <= 5")
        return _su_pq(form_id, p, q)
    if m := re.fullmatch(r"so(\d)(\d)", form_id):
        p, q = int(m.group(1)), int(m.group(2))
        if not (p >= q >= 2 and p + q <= 7 and (p, q) != (2, 2)):
            raise ModelError("so(p,q) models need p >= q >= 2, p+q <= 7, (p,q) != (2,2)")
        return _so_pq(form_id, p, q)
    if form_id == "sp4R":
        return _sp4_real(form_id)
    if form_id == "sl2H":
        return _sl2_quaternion(form_id)
    raise ModelError(f"unsupported model id {form_id!r}")
