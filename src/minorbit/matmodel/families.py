"""Matrix realizations of the supported classical real forms.

Each builder returns the raw ingredients of a model: a real basis of the
algebra inside gl(n, C), split into compact and noncompact generators, the
standard maximal abelian subspace inside the noncompact part, and the
conjugation sigma of the real form.

Every model is closed under conjugate transpose: the compact generators are
anti-Hermitian and the noncompact ones Hermitian, so the Cartan involution is
theta(X) = -X^* on every model and is not part of the family data.  sigma
does differ by real form; it is an :class:`~.qmat.Involution` spec
``(sign, transpose, conjugate, J)`` meaning X -> sign * J op(X) J^T, applied
by ``qmat`` in the exact lane and by numpy in the float lane:

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

from ..exactla import QI, QI_I
from . import qmat
from .qmat import Involution, Mat

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


# sigma of the real-matrix forms sl(n,R), sp(4,R) and so(p,q)
CONJUGATE = Involution(1, conjugate=True)


@dataclass
class FamilyData:
    form_id: str
    family: str
    n: int
    basis: list[Mat]
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


def _sl_n_real(form_id: str, n: int) -> FamilyData:
    basis: list[Mat] = []
    k_idx, p_idx, a_idx = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            k_idx.append(len(basis))
            basis.append(qmat.sub(qmat.unit(n, i, j), qmat.unit(n, j, i)))
    for i in range(n):
        for j in range(i + 1, n):
            p_idx.append(len(basis))
            basis.append(qmat.add(qmat.unit(n, i, j), qmat.unit(n, j, i)))
    for i in range(n - 1):
        a_idx.append(len(basis))
        p_idx.append(len(basis))
        basis.append(qmat.sub(qmat.unit(n, i, i), qmat.unit(n, i + 1, i + 1)))
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(n - 1)]
    return FamilyData(
        form_id=form_id,
        family="slR",
        n=n,
        basis=basis,
        k_indices=k_idx,
        p_indices=p_idx,
        a_indices=a_idx,
        sigma=CONJUGATE,
        defining_eigs=eigs,
        positivity_key=_sl_chain_key,
    )


def _su_pq(form_id: str, p: int, q: int) -> FamilyData:
    n = p + q
    J = qmat.zeros(n)
    for i in range(n):
        J[i][i] = QI(1) if i < p else QI(-1)
    basis: list[Mat] = []
    k_idx, p_idx, a_idx = [], [], []
    blocks = [range(p), range(p, n)]
    for block in blocks:
        block = list(block)
        for ai in range(len(block)):
            for bi in range(ai + 1, len(block)):
                a, b = block[ai], block[bi]
                k_idx.append(len(basis))
                basis.append(qmat.sub(qmat.unit(n, a, b), qmat.unit(n, b, a)))
                k_idx.append(len(basis))
                basis.append(
                    qmat.add(qmat.unit(n, a, b, QI_I), qmat.unit(n, b, a, QI_I))
                )
    for j in range(n - 1):
        k_idx.append(len(basis))
        basis.append(
            qmat.sub(qmat.unit(n, j, j, QI_I), qmat.unit(n, j + 1, j + 1, QI_I))
        )
    for a in range(p):
        for b in range(p, n):
            p_idx.append(len(basis))
            basis.append(qmat.add(qmat.unit(n, a, b), qmat.unit(n, b, a)))
            p_idx.append(len(basis))
            basis.append(qmat.sub(qmat.unit(n, a, b, QI_I), qmat.unit(n, b, a, QI_I)))
    # a_i couples index i with n+1-i; these sit among the symmetric generators.
    for i in range(q):
        target = qmat.add(qmat.unit(n, i, n - 1 - i), qmat.unit(n, n - 1 - i, i))
        pos = next(k for k in p_idx if basis[k] == target)
        a_idx.append(pos)
    sigma = Involution(-1, transpose=True, conjugate=True, J=J)
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(q)]
    return FamilyData(form_id, "su", n, basis, k_idx, p_idx, a_idx, sigma, eigs)


def _so_pq(form_id: str, p: int, q: int) -> FamilyData:
    n = p + q
    basis: list[Mat] = []
    k_idx, p_idx, a_idx = [], [], []
    for block in (range(p), range(p, n)):
        block = list(block)
        for ai in range(len(block)):
            for bi in range(ai + 1, len(block)):
                a, b = block[ai], block[bi]
                k_idx.append(len(basis))
                basis.append(qmat.sub(qmat.unit(n, a, b), qmat.unit(n, b, a)))
    for a in range(p):
        for b in range(p, n):
            p_idx.append(len(basis))
            basis.append(qmat.add(qmat.unit(n, a, b), qmat.unit(n, b, a)))
    for i in range(q):
        target = qmat.add(qmat.unit(n, i, p + i), qmat.unit(n, p + i, i))
        pos = next(k for k in p_idx if basis[k] == target)
        a_idx.append(pos)
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(q)]
    return FamilyData(
        form_id,
        "so",
        n,
        basis,
        k_idx,
        p_idx,
        a_idx,
        CONJUGATE,
        eigs,
    )


def _sp4_real(form_id: str) -> FamilyData:
    n = 4
    basis: list[Mat] = []
    k_idx, p_idx, a_idx = [], [], []

    def embed_a(A: Mat) -> Mat:
        X = qmat.zeros(n)
        for i in range(2):
            for j in range(2):
                X[i][j] = A[i][j]
                X[2 + j][2 + i] = -A[i][j]
        return X

    sym = [
        qmat.unit(2, 0, 0),
        qmat.unit(2, 1, 1),
        qmat.add(qmat.unit(2, 0, 1), qmat.unit(2, 1, 0)),
    ]

    def embed_b(S: Mat) -> Mat:
        X = qmat.zeros(n)
        for i in range(2):
            for j in range(2):
                X[i][2 + j] = S[i][j]
        return X

    def embed_c(S: Mat) -> Mat:
        X = qmat.zeros(n)
        for i in range(2):
            for j in range(2):
                X[2 + i][j] = S[i][j]
        return X

    # compact part: antisymmetric members, u(2) inside sp(4)
    k_members = [embed_a(qmat.sub(qmat.unit(2, 0, 1), qmat.unit(2, 1, 0)))]
    k_members += [qmat.sub(embed_b(S), embed_c(S)) for S in sym]
    # noncompact part: symmetric members
    p_members = [embed_a(qmat.unit(2, 0, 0)), embed_a(qmat.unit(2, 1, 1))]
    p_members.append(embed_a(qmat.add(qmat.unit(2, 0, 1), qmat.unit(2, 1, 0))))
    p_members += [qmat.add(embed_b(S), embed_c(S)) for S in sym]
    for X in k_members:
        k_idx.append(len(basis))
        basis.append(X)
    for X in p_members:
        p_idx.append(len(basis))
        basis.append(X)
    for i in range(2):
        target = embed_a(qmat.unit(2, i, i))
        pos = next(k for k in p_idx if basis[k] == target)
        a_idx.append(pos)
    eigs = [{Fraction(1), Fraction(-1), Fraction(0)} for _ in range(2)]
    return FamilyData(
        form_id,
        "spR",
        n,
        basis,
        k_idx,
        p_idx,
        a_idx,
        CONJUGATE,
        eigs,
    )


def _sl2_quaternion(form_id: str) -> FamilyData:
    n = 4
    Jq = qmat.zeros(n)
    for i in range(2):
        Jq[i][2 + i] = QI(-1)
        Jq[2 + i][i] = QI(1)
    sigma = Involution(1, conjugate=True, J=Jq)

    def embed(P: Mat, Q: Mat) -> Mat:
        X = qmat.zeros(n)
        for i in range(2):
            for j in range(2):
                X[i][j] = P[i][j]
                X[i][2 + j] = Q[i][j]
                X[2 + i][j] = -Q[i][j].conjugate()
                X[2 + i][2 + j] = P[i][j].conjugate()
        return X

    z2 = qmat.zeros(2)
    basis: list[Mat] = []
    # anti-Hermitian members (compact): P in u(2), Q symmetric
    for P in (
        qmat.sub(qmat.unit(2, 0, 1), qmat.unit(2, 1, 0)),
        qmat.add(qmat.unit(2, 0, 1, QI_I), qmat.unit(2, 1, 0, QI_I)),
        qmat.unit(2, 0, 0, QI_I),
        qmat.unit(2, 1, 1, QI_I),
    ):
        basis.append(embed(P, z2))
    for Q in (
        qmat.unit(2, 0, 0),
        qmat.unit(2, 1, 1),
        qmat.add(qmat.unit(2, 0, 1), qmat.unit(2, 1, 0)),
        qmat.unit(2, 0, 0, QI_I),
        qmat.unit(2, 1, 1, QI_I),
        qmat.add(qmat.unit(2, 0, 1, QI_I), qmat.unit(2, 1, 0, QI_I)),
    ):
        basis.append(embed(z2, Q))
    # Hermitian members (noncompact): P Hermitian traceless, Q antisymmetric
    for P in (
        qmat.add(qmat.unit(2, 0, 1), qmat.unit(2, 1, 0)),
        qmat.sub(qmat.unit(2, 0, 1, QI_I), qmat.unit(2, 1, 0, QI_I)),
        qmat.sub(qmat.unit(2, 0, 0), qmat.unit(2, 1, 1)),
    ):
        basis.append(embed(P, z2))
    for Q in (
        qmat.sub(qmat.unit(2, 0, 1), qmat.unit(2, 1, 0)),
        qmat.sub(qmat.unit(2, 0, 1, QI_I), qmat.unit(2, 1, 0, QI_I)),
    ):
        basis.append(embed(z2, Q))
    # a generator in neither list fails the model's partition check
    k_idx = [i for i, X in enumerate(basis) if qmat.adjoint(X) == qmat.neg(X)]
    p_idx = [i for i, X in enumerate(basis) if qmat.adjoint(X) == X]
    target = embed(qmat.sub(qmat.unit(2, 0, 0), qmat.unit(2, 1, 1)), z2)
    a_idx = [next(k for k in p_idx if basis[k] == target)]
    eigs = [{Fraction(1), Fraction(-1)}]
    return FamilyData(form_id, "sl2H", n, basis, k_idx, p_idx, a_idx, sigma, eigs)


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
