import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from minorbit import numeric
from minorbit.matmodel import MODEL_IDS
from minorbit.numeric import numerics
from minorbit.sympver import _isotropy_sample


def _factors(num, rng):
    """Seeded k, a, n and (where the isotropy algebra is nonzero) isotropy
    factors, drawn as the sampled checks draw them."""
    factors = {
        "k": num.sample_k(rng, scale=0.7),
        "a": num.sample_span(rng, num.a_basis, scale=0.5),
        "n": num.sample_span(rng, num.n_basis, scale=0.7),
    }
    iso = _isotropy_sample(num, rng)
    if iso is not None:
        factors["isotropy"] = iso
    return factors


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_expm_matches_scipy_on_every_factor_kind(form_id):
    num = numerics(form_id)
    rng = np.random.default_rng(61)
    for _ in range(4):
        for kind, X in _factors(num, rng).items():
            plus, minus = numeric.expm(X)
            for mine, ref in ((plus, scipy_expm(X)), (minus, scipy_expm(-X))):
                rel = np.linalg.norm(mine - ref) / np.linalg.norm(ref)
                assert rel <= 1e-12, (kind, rel)
            identity = np.eye(X.shape[0])
            assert np.max(np.abs(plus @ minus - identity)) <= 1e-12, kind


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
