import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from minorbit import numeric
from minorbit.matmodel import MODEL_IDS
from minorbit.numeric import numerics


def _factors(num, rngs):
    """Seeded stacks of k, a, n and (where the isotropy algebra is nonzero)
    isotropy factors, one matrix per generator, at the scales of the sampled
    checks; each generator draws the coefficients of its factors in turn."""
    bases = {"k": (num.k_basis, 0.7), "a": (num.a_basis, 0.5), "n": (num.n_basis, 0.7)}
    if num.isotropy_basis:
        bases["isotropy"] = (num.isotropy_basis, 1.0)
    widths = [len(basis) for basis, _ in bases.values()]
    coeffs = np.array([rng.standard_normal(sum(widths)) for rng in rngs])
    blocks = np.split(coeffs, np.cumsum(widths)[:-1], axis=1)
    return {kind: num.span(scale * block, basis)
            for (kind, (basis, scale)), block in zip(bases.items(), blocks)}


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_expm_matches_scipy_on_every_factor_kind(form_id):
    num = numerics(form_id)
    rngs = [np.random.default_rng([61, i]) for i in range(4)]
    for kind, stack in _factors(num, rngs).items():
        assert stack.shape == (4, *num.e.shape)
        plus, minus = numeric.expm(stack)
        for X, p, m in zip(stack, plus, minus):
            for mine, ref in ((p, scipy_expm(X)), (m, scipy_expm(-X))):
                rel = np.linalg.norm(mine - ref) / np.linalg.norm(ref)
                assert rel <= 1e-12, (kind, rel)
            identity = np.eye(X.shape[0])
            assert np.max(np.abs(p @ m - identity)) <= 1e-12, kind


@pytest.mark.parametrize("form_id", ("sl2R", "su21", "sp4R", "sl2H"))
def test_stacked_expm_matches_one_matrix_at_a_time(form_id):
    """Each matrix of a stack gets the exponentials it gets on its own."""
    num = numerics(form_id)
    rngs = [np.random.default_rng([62, i]) for i in range(5)]
    for kind, stack in _factors(num, rngs).items():
        plus, minus = numeric.expm(stack)
        for X, p, m in zip(stack, plus, minus):
            alone_p, alone_m = numeric.expm(X)
            assert np.array_equal(p, alone_p) and np.array_equal(m, alone_m), kind


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_product_transports_as_one_factor_after_the_other(form_id):
    """(g h).ad(X) = g.ad(h.ad(X)) for stacked factors of each kind."""
    num = numerics(form_id)
    g_factors = _factors(num, [np.random.default_rng([63, i]) for i in range(4)])
    h_factors = _factors(num, [np.random.default_rng([64, i]) for i in range(4)])
    for kind in g_factors:
        g = numeric.GroupElement([g_factors[kind]])
        h = numeric.GroupElement([h_factors[kind]])
        for X in (num.e, num.v):
            product, nested = (g * h).ad(X), g.ad(h.ad(X))
            scale = max(1.0, np.max(np.abs(nested)))
            assert np.max(np.abs(product - nested)) <= 1e-12 * scale, kind


def test_expm_series_is_exact_on_integer_nilpotents():
    X = np.array([[0, 1, 2, -1], [0, 0, 3, 4], [0, 0, 0, 5], [0, 0, 0, 0]])
    plus, minus = numeric.expm(X)
    X2, X3 = X @ X, X @ X @ X
    assert np.array_equal(plus, np.eye(4) + X + X2 / 2 + X3 / 6)
    assert np.array_equal(minus, np.eye(4) - X + X2 / 2 - X3 / 6)
    assert np.array_equal(plus @ minus, np.eye(4))


@pytest.mark.parametrize(
    "X",
    [
        np.array([[1.0, 1.0], [0.0, 2.0]]),  # neither normal nor nilpotent
        np.array([[0.0, 1.0], [-1.0 + 1e-9, 0.0]]),  # nearly anti-Hermitian
    ],
)
def test_expm_rejects_matrices_of_no_factor_kind(X):
    with pytest.raises(ValueError, match="nilpotent"):
        numeric.expm(X)


def test_expm_series_rejects_one_bad_matrix_in_a_stack():
    nilpotent = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    bad = nilpotent.copy()
    bad[2, 0] = 1e-3  # X^3 no longer vanishes
    stack = np.array([nilpotent, 2 * nilpotent, bad, 3 * nilpotent])
    numeric.expm(stack[[0, 1, 3]])
    with pytest.raises(ValueError, match="nilpotent"):
        numeric.expm(stack)
