"""Helpers shared by the exact-lane tests.

An independent dense Gauss-Jordan elimination over (real, imaginary) pairs of
Fractions: the reference that ``minorbit.exactla``'s sparse elimination is
compared with, so that the reference shares no code with what it checks.
A plain dense matrix-vector product, which skips no zero term.  Gram-Schmidt
under an exact form, for the H-orthonormal references of the model tests and
the B-orthogonal complement of k_nu.  And scalar strategies built once:
hypothesis validates a strategy the first time it draws from it, so a
strategy built inside each example pays that validation on every example.
"""

from fractions import Fraction

from hypothesis import strategies as st

from minorbit.exactla import ZERO

PAIR_ZERO, PAIR_ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def pair(x):
    """(real part, imaginary part) of an int, a Fraction or a Gaussian rational."""
    if hasattr(x, "d"):
        return Fraction(x.a, x.d), Fraction(x.b, x.d)
    return Fraction(x), Fraction(0)


def pair_add(p, q):
    return p[0] + q[0], p[1] + q[1]


def pair_sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def pair_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def pair_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n


def plain_mat_vec(mat, v):
    """mat @ v, every row's sum over all of its terms."""
    return [sum((a * b for a, b in zip(row, v)), ZERO) for row in mat]


def orthogonalize(vectors, form):
    """Gram-Schmidt orthogonalization (no normalization) under ``form``.

    ``form(u, v)`` must be an exact symmetric bilinear form that is definite
    on the span, so the diagonal never vanishes.  A vector in the span of
    the ones before it is dropped."""
    out = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = form(w, u) / form(u, u)
            w = [a - c * b if b else a for a, b in zip(w, u)]
        if any(w):
            out.append(w)
    return out


def reference_rref(mat, ncols):
    """Dense rows of pairs, column by column: the first remaining row that is
    nonzero in the column is scaled to 1 there and cleared from every other
    row.  Returns (all rows, the nonzero ones first; pivot columns)."""
    rows = [[pair(x) for x in row] for row in mat]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if any(rows[i][c])), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        rows[r] = [pair_div(x, rows[r][c]) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and any(row[c]):
                rows[i] = [pair_sub(x, pair_mul(row[c], y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel(mat, ncols):
    """One vector of pairs per free column: 1 there, 0 at the other free
    columns, minus the reduced rows' entries at the pivots."""
    rows, pivots = reference_rref(mat, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [PAIR_ZERO] * ncols
        vec[free] = PAIR_ONE
        for row, c in zip(rows, pivots):
            vec[c] = pair_sub(PAIR_ZERO, row[free])
        basis.append(vec)
    return basis


def reference_solve(mat, rhs):
    """The solution of ``mat @ x = rhs`` that is 0 at the free columns, as
    pairs, or None if the system is inconsistent."""
    n = len(mat[0])
    rows, pivots = reference_rref([list(row) + [b] for row, b in zip(mat, rhs)], n + 1)
    if n in pivots:
        return None
    x = [PAIR_ZERO] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return x


def fractions_up_to(bound, max_denominator):
    """Every Fraction in [-bound, bound] of denominator at most
    ``max_denominator``, simplest first, so that examples shrink towards 0."""
    values = {Fraction(p, q) for q in range(1, max_denominator + 1)
              for p in range(-bound * q, bound * q + 1)}
    return st.sampled_from(sorted(values, key=lambda f: (f.denominator, abs(f), f < 0)))


def record_joint_solves(monkeypatch, span):
    """Record each span solve of ``LieAlgebraModel.joint_eigenspaces`` on
    ``span`` as (label of the subspace it splits, eigenvalue it tries).

    A subspace is known by identity: ``span``, labelled (), or a space that
    an earlier recorded solve returned, labelled by that solve's label and
    eigenvalue.  A solve in any other subspace, a mirrored one, is recorded
    with the label None.  Every object met is kept, so no id is reused."""
    from minorbit.matmodel import model as model_module

    cls = model_module.LieAlgebraModel
    solve, support_of = cls._solve_in_span, model_module._support
    space_label, support_label = {id(span): ()}, {}
    solves, kept = [], []

    def recorded_support(vectors):
        out = support_of(vectors)
        kept.extend((vectors, out))
        support_label[id(out)] = space_label.get(id(vectors))
        return out

    def recorded_solve(self, support, images, shift=0):
        label = support_label.get(id(support))
        eig = solve(self, support, images, shift)
        kept.extend((support, eig))
        solves.append((label, shift))
        if eig and label is not None:
            space_label[id(eig)] = label + (shift,)
        return eig

    monkeypatch.setattr(model_module, "_support", recorded_support)
    monkeypatch.setattr(cls, "_solve_in_span", recorded_solve)
    return solves
