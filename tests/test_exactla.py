import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_helpers import (
    fractions_up_to, pair, pair_add, pair_div, pair_mul, pair_sub, plain_mat_vec,
    reference_kernel, reference_rref, reference_solve,
)
from minorbit.exactla import (
    ONE, ZERO, GaussianRational, eliminate, exact_sqrt, inverse, kernel_basis,
    orthogonalize, rank,
)

GR = GaussianRational


def _rows(mat):
    """Dense rows as the sparse rows ``eliminate`` takes: nonzero Gaussian
    rationals by column."""
    return [{c: x if type(x) is GR else GR(x) for c, x in enumerate(row) if x}
            for row in mat]


def test_qi_arithmetic():
    a = GR(1, 2)
    b = GR(Fraction(1, 2), -1)
    assert a + b == GR(Fraction(3, 2), 1)
    assert a * b == GR(Fraction(5, 2), 0)
    assert (a / b) * b == a
    assert a.conjugate() == GR(1, -2)
    assert GR(3) == 3 and GR(3) == Fraction(3)
    assert not GR(0, 0)
    with pytest.raises(ZeroDivisionError):
        a / GR(0)


def test_qi_mixed_coercion():
    assert Fraction(1, 2) * GR(0, 2) == GR(0, 1)
    assert 1 + GR(1, 1) == GR(2, 1)
    assert Fraction(2) - GR(1, 1) == GR(1, -1)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


def test_rref_and_rank():
    mat = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert eliminate(_rows(mat)) == {0: {0: 1, 1: 2}}
    assert rank(mat) == 1
    assert rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2


def test_kernel_basis():
    mat = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = kernel_basis(mat)
    assert len(basis) == 2
    for v in basis:
        assert sum(m * x for m, x in zip(mat[0], v)) == 0


def test_kernel_over_gaussian_rationals():
    mat = [[GR(1), GR(0, 1)]]
    basis = kernel_basis(mat)
    assert len(basis) == 1
    v = basis[0]
    assert mat[0][0] * v[0] + mat[0][1] * v[1] == GR(0)


def test_orthogonalize():
    def form(u, v):
        return sum(a * b for a, b in zip(u, v))

    vecs = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(2)]]
    ortho = orthogonalize(vecs, form)
    assert len(ortho) == 2
    assert form(ortho[0], ortho[1]) == 0


# --- properties on sparse random systems ----------------------------------------
# The structure-constant systems are mostly zeros, so three entries in four
# drawn here are zero too.

SMALL = fractions_up_to(3, 4)
# built once: real values (b = 0) for the field Q, any Gaussian rationals for Q(i)
SCALARS = {False: SMALL.map(GR), True: st.tuples(SMALL, SMALL).map(lambda p: GR(*p))}
SPARSE = {g: st.one_of(st.just(ZERO), st.just(ZERO), st.just(ZERO), SCALARS[g])
          for g in (False, True)}
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))
RANDOMS = st.randoms(use_true_random=False)


@functools.lru_cache(maxsize=None)
def _vectors(gaussian, n, sparse=False):
    """n scalars in one draw, three in four of them zero with ``sparse``."""
    return st.lists((SPARSE if sparse else SCALARS)[gaussian], min_size=n, max_size=n)


def _sparse_matrix(data, gaussian):
    nrows, ncols = data.draw(SHAPES)
    flat = data.draw(_vectors(gaussian, nrows * ncols, sparse=True))
    return [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]


def _real(vectors):
    return all(not x.imag for v in vectors for x in v)


FIELDS = pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "QI"])


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_vectors_are_annihilated_and_rank_nullity_holds(gaussian, data):
    mat = _sparse_matrix(data, gaussian)
    ncols = len(mat[0])
    kernel = kernel_basis(mat)
    for k in kernel:
        assert plain_mat_vec(mat, k) == [0] * len(mat)
    assert rank(mat) + len(kernel) == ncols
    # a real system has a real kernel
    assert gaussian or _real(kernel)


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_is_one_solve_per_unit_vector(gaussian, data):
    """Column j of the inverse is the dense reference's solution of
    mat @ x = e_j; a singular matrix, where some e_j has no solution, has no
    inverse.  Dense rows hold zeros, one draw in two."""
    n = data.draw(st.integers(1, 5))
    flat = data.draw(_vectors(gaussian, n * n, sparse=data.draw(st.booleans())))
    mat = [flat[i * n:(i + 1) * n] for i in range(n)]
    inv = inverse(mat)
    units = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    columns = [reference_solve(mat, e) for e in units]
    if rank(mat) < n:
        assert inv is None and None in columns
    else:
        assert [[pair(x) for x in col] for col in zip(*inv)] == columns
        assert all(type(x) is GR for row in inv for x in row)
        assert plain_mat_vec(inv, plain_mat_vec(mat, units[-1])) == units[-1]
        assert gaussian or _real(inv)


@pytest.mark.parametrize("mat, expected", [
    pytest.param([], [], id="0x0"),
    pytest.param([[GR(0, 2)]], [[GR(0, Fraction(-1, 2))]], id="1x1-gaussian"),
    pytest.param([[0]], None, id="1x1-zero"),
    pytest.param([[0, 1], [1, 0]], [[0, 1], [1, 0]], id="swap"),
    pytest.param([[1, GR(0, 1)], [GR(0, -1), 0]], [[0, GR(0, 1)], [GR(0, -1), -1]],
                 id="gaussian-with-zero"),
    pytest.param([[1, 2, 0], [0, 0, 0], [3, 1, 1]], None, id="zero-row"),
    pytest.param([[1, GR(0, 1)], [GR(0, 1), -1]], None, id="singular-gaussian"),
])
def test_inverse_of_small_and_singular_matrices(mat, expected):
    """inverse against hand-computed inverses and the dense reference: the
    empty matrix is its own inverse, and a singular matrix has none."""
    inv = inverse(mat)
    assert inv == expected
    n = len(mat)
    units = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    columns = [reference_solve(mat, e) for e in units] if n else []
    if inv is None:
        assert None in columns
    else:
        assert [[pair(x) for x in col] for col in zip(*inv)] == columns


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_basis_ignores_zero_rows_and_row_order(gaussian, data):
    mat = _sparse_matrix(data, gaussian)
    ncols = len(mat[0])
    reference = kernel_basis(mat)
    rows = [row for row in mat if any(row)]
    rng = data.draw(RANDOMS)
    rng.shuffle(rows)
    # at least one row, as the column count is read off the rows
    for _ in range(rng.randint(0 if rows else 1, 3)):
        rows.insert(rng.randint(0, len(rows)), [ZERO] * ncols)
    assert kernel_basis(rows) == reference


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_elimination_matches_the_dense_reference(gaussian, data):
    """eliminate, rank and kernel_basis against a dense Gauss-Jordan on
    pairs of Fractions that shares no code with the sparse elimination: the
    pivot rows of ``eliminate``, by pivot, are the reference's nonzero rows,
    and they hold no zero entry."""
    mat = _sparse_matrix(data, gaussian)
    ncols = len(mat[0])
    red = eliminate(_rows(mat))
    ref_rows, ref_pivots = reference_rref(mat, ncols)
    assert sorted(red) == ref_pivots and rank(mat) == len(ref_pivots)
    dense = [[pair(red[p].get(j, ZERO)) for j in range(ncols)] for p in sorted(red)]
    assert dense == ref_rows[:len(red)]
    assert all(x and type(x) is GR for row in red.values() for x in row.values())
    kernel = kernel_basis(mat)
    assert [[pair(x) for x in v] for v in kernel] == reference_kernel(mat, ncols)
    assert all(type(x) is GR for v in kernel for x in v)


def test_rref_clears_each_new_pivot_from_the_earlier_rows():
    assert eliminate(_rows([[1, 1, 1], [0, 1, 1]])) == {0: {0: 1}, 1: {1: 1, 2: 1}}
    assert kernel_basis([[1, 1, 1], [0, 1, 1]]) == [[0, -1, 1]]
    assert eliminate(_rows([[0, 1, 2], [1, 1, 0]])) == {0: {0: 1, 2: -2}, 1: {1: 1, 2: 2}}


def test_plain_ints_stay_exact():
    inv = inverse([[2, 1], [0, 1]])
    assert inv == [[Fraction(1, 2), Fraction(-1, 2)], [0, 1]]
    basis = kernel_basis([[1, 2, 0]])
    assert basis == [[-2, 1, 0], [0, 0, 1]]
    assert kernel_basis([[1, 2]]) == [[-2, 1]]
    for values in (*inv, *basis, *kernel_basis([[1, 2]])):
        assert all(type(x) is GR for x in values)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: kernel_basis([[1, 2], [1]]), id="ragged-kernel"),
    pytest.param(lambda: inverse([[1, 2], [1, 2, 3]]), id="ragged-inverse"),
    pytest.param(lambda: inverse([[1, 2]]), id="non-square-inverse"),
    pytest.param(lambda: rank([[1], [1, 2]]), id="ragged-rank"),
    pytest.param(lambda: kernel_basis([]), id="empty-without-ncols"),
])
def test_rows_that_disagree_with_ncols_raise(call):
    with pytest.raises(ValueError):
        call()


def test_inexact_entries_raise():
    with pytest.raises(TypeError):
        kernel_basis([[0.5, 1]])


@settings(max_examples=100, deadline=None)
@given(a=SCALARS[True], b=SCALARS[True], c=SCALARS[True], q=SMALL)
def test_qi_field_axioms(a, b, c, q):
    zero, one = GR(0), GR(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert q * a == GR(q) * a and a + q == a + GR(q)
    if a:
        assert a * (one / a) == one and (b / a) * a == b


# --- the scalar against (Fraction, Fraction) pairs ------------------------------
# Each value (a + b i) / d is checked for its reduced form (gcd(a, b, d) = 1,
# d > 0) and for its parts a/d, b/d against arithmetic on pairs of Fractions.

def _canonical(x):
    return isinstance(x, GR) and x.d > 0 and math.gcd(x.a, x.b, x.d) == 1


def operands(parts, bound):
    """What the scalar meets: itself, real or not, and the ints and Fractions
    it mixes with."""
    pairs = st.tuples(parts, st.one_of(st.just(Fraction(0)), parts))
    scalars = pairs.map(lambda p: GR(*p))
    return st.one_of(scalars, scalars, st.integers(-bound, bound), parts)


PARTS = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@settings(max_examples=200, deadline=None)
@given(x=operands(PARTS, 20), y=operands(PARTS, 20))
def test_arithmetic_matches_fraction_pairs(x, y):
    if not isinstance(x, GR) and not isinstance(y, GR):
        x = GR(x)
    _matches_fraction_pairs(x, y)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 1, 2, 6]), real=st.booleans(),
       parts=st.lists(st.integers(-30, 30), min_size=4, max_size=4))
def test_integer_and_shared_denominator_arithmetic_matches_fraction_pairs(d, parts, real):
    """Both operands over one denominator d, so integers when d = 1, and real
    or not: the fast paths (nothing reduced over d = 1, a product of real
    integers, a sum or difference over one denominator) give the reduced
    parts that Fraction pairs do."""
    a1, b1, a2, b2 = parts
    _matches_fraction_pairs(GR(a1, 0 if real else b1, d), GR(a2, 0 if real else b2, d))


def _matches_fraction_pairs(x, y):
    px, py = pair(x), pair(y)
    for got, want in ((x + y, pair_add(px, py)), (x - y, pair_sub(px, py)),
                      (x * y, pair_mul(px, py))):
        assert _canonical(got) and pair(got) == want
    if any(py):
        got = x / y
        assert _canonical(got) and pair(got) == pair_div(px, py)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for z, pz in ((x, px), (y, py)):
        if isinstance(z, GR):
            conj, neg = z.conjugate(), -z
            assert _canonical(conj) and pair(conj) == (pz[0], -pz[1])
            assert _canonical(neg) and pair(neg) == (-pz[0], -pz[1])
            assert pair(z.real) == (pz[0], 0) and pair(z.imag) == (pz[1], 0)


@settings(max_examples=200, deadline=None)
@given(x=operands(SMALL, 3), y=operands(SMALL, 3))
def test_equal_values_hash_equal(x, y):
    """x == y exactly when the pairs agree, and then hash(x) == hash(y),
    across ints, Fractions and scalars: a set or dict finds either.  Small
    parts make equal pairs common."""
    assert (x == y) == (pair(x) == pair(y)) == (y == x)
    if x == y:
        assert hash(x) == hash(y)
        assert y in {x} and x in {y}


def test_real_values_hash_as_fractions():
    assert 2 in {GR(2)} and GR(2) in {2}
    assert Fraction(1, 2) in {GR(1, 0, 2)} and GR(Fraction(1, 2)) in {Fraction(1, 2)}
    assert {GR(-3, 0, 4): "x"}[Fraction(-3, 4)] == "x"
    assert GR(1, 2) not in {1, Fraction(1, 2)}


@settings(max_examples=200, deadline=None)
@given(p=PARTS, q=PARTS)
def test_real_values_order_and_print_as_fractions(p, q):
    x, y = GR(p), GR(q)
    assert str(x) == str(p) and str(-x) == str(-p)
    assert (x < y, x <= y, x > y, x >= y) == (p < q, p <= q, p > q, p >= q)
    assert (x < q, p < y, x > 0, 0 > x) == (p < q, p < q, p > 0, 0 > p)
    assert abs(x) == abs(p) and _canonical(abs(x))
    assert int(x) == int(p) and float(x) == float(p)
    assert complex(GR(p, q)) == complex(float(p), float(q))
    with pytest.raises(TypeError):
        GR(p, 1) < x


def test_reduced_form_of_constructed_values():
    assert (GR(2, 4, 6).a, GR(2, 4, 6).b, GR(2, 4, 6).d) == (1, 2, 3)
    assert (GR(1, -1, -2).a, GR(1, -1, -2).b, GR(1, -1, -2).d) == (-1, 1, 2)
    assert (GR(0, 0, -7).a, GR(0, 0, -7).d) == (0, 1)
    assert str(GR(Fraction(-3, 4))) == "-3/4" and str(GR(-2)) == "-2"
