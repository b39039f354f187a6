import copy
import math

import numpy as np
import pytest
from scipy.linalg import expm

from minorbit import numeric, sympver
from minorbit.matmodel import analyze
from minorbit.matmodel.model import LieAlgebraModel
from minorbit.numeric import GroupElement, ModelNumerics, numerics
from minorbit.sympver import (
    OrbitPointParam,
    coadjoint_frame_gram,
    induced_gram,
    kks_gram,
    ks_correspondence_check,
    moment_cone_check,
    poisson_identities_check,
    realize,
    standard_frame,
    verify_beta_symplectic,
)

PI = math.pi
VERIFY_FORMS = ("sl2R", "sl3R", "su21", "sp4R")


def base_point(side="Xtilde"):
    return OrbitPointParam(k_factors=[], t=1.0, side=side)


# --- canonical-form Gram -----------------------------------------------------

def test_kks_distinguished_entry_sl2R():
    num = numerics("sl2R")
    gram = kks_gram(num, base_point("Z"), [num.x_psi, num.z])
    assert abs(gram[0, 1] - (-2.0 / PI)) < 1e-14
    assert abs(gram[1, 0] - (2.0 / PI)) < 1e-14


def test_kks_antisymmetry_and_diagonal():
    num = numerics("sl3R")
    rng = np.random.default_rng(5)
    dirs = [num.sample_k(rng) for _ in range(3)] + [num.x_psi]
    gram = kks_gram(num, base_point("Z"), dirs)
    assert np.allclose(gram, -gram.T, atol=1e-13)
    assert np.allclose(np.diag(gram), 0.0)


def test_kks_frame_permutation_covariance():
    num = numerics("su21")
    rng = np.random.default_rng(6)
    dirs = [num.sample_k(rng) for _ in range(4)]
    gram = kks_gram(num, base_point("Z"), dirs)
    perm = [2, 0, 3, 1]
    gram_p = kks_gram(num, base_point("Z"), [dirs[i] for i in perm])
    P = np.zeros((4, 4))
    for new, old in enumerate(perm):
        P[new, old] = 1.0
    assert np.allclose(gram_p, P @ gram @ P.T, atol=1e-13)


def test_kks_rejects_dependent_directions():
    num = numerics("sl3R")
    rng = np.random.default_rng(8)
    x = num.sample_k(rng)
    with pytest.raises(ValueError, match="rank-deficient"):
        kks_gram(num, base_point("Z"), [x, 2.0 * x])


def test_compact_block_agrees_across_sides_sl3R():
    """Pairings of compact directions agree at the base points of both sides."""
    num = numerics("sl3R")
    rng = np.random.default_rng(7)
    dirs = [num.sample_k(rng) for _ in range(3)]
    gram_z = kks_gram(num, base_point("Z"), dirs)
    t = base_point()
    zk = num.z
    for i in range(3):
        for j in range(3):
            induced = num.B(zk, num.bracket(dirs[j], dirs[i])).real / (2 * PI)
            assert abs(gram_z[i, j] - induced) < 1e-13


# --- induced Gram ------------------------------------------------------------

def test_induced_base_block_sl2R():
    num = numerics("sl2R")
    frame = standard_frame(num, base_point())
    gram = induced_gram(num, base_point(), frame)
    target = np.array([[0.0, -2.0 / PI], [2.0 / PI, 0.0]])
    assert np.max(np.abs(gram[:2, :2] - target)) < 1e-15


def test_induced_scaling_in_t():
    num = numerics("su21")
    rng = np.random.default_rng(11)
    kappa = num.sample_k(rng)
    p1 = OrbitPointParam([kappa], 1.0, "Xtilde")
    p3 = OrbitPointParam([kappa], 3.0, "Xtilde")
    frame = standard_frame(num, p1)
    g1 = induced_gram(num, p1, frame)
    g3 = induced_gram(num, p3, standard_frame(num, p3))
    assert np.allclose(g3, 3.0 * g1, atol=1e-13)


def test_frame_rank_is_dim_Z():
    for form_id in VERIFY_FORMS:
        num = numerics(form_id)
        frame = standard_frame(num, base_point())
        assert frame.size() == num.dim_Z == num.dim_X + 2
        gram = induced_gram(num, base_point(), frame)
        assert np.linalg.matrix_rank(gram, tol=1e-10) == num.dim_Z


# --- the symplectic comparison ----------------------------------------------

@pytest.mark.parametrize("form_id", VERIFY_FORMS)
def test_beta_symplectic(form_id):
    main, block = verify_beta_symplectic(
        numerics(form_id), samples=100, tol=1e-9, seed=42
    )
    assert main.passed and block.passed
    if form_id == "sl2R":
        assert main.max_abs_deviation <= 1e-10
    assert block.max_abs_deviation <= 1e-12


def test_beta_seed_determinism():
    num = numerics("sl3R")
    r1, b1 = verify_beta_symplectic(num, samples=25, tol=1e-9, seed=7)
    r2, b2 = verify_beta_symplectic(num, samples=25, tol=1e-9, seed=7)
    assert r1.max_abs_deviation == r2.max_abs_deviation
    assert r1.as_dict() == r2.as_dict()
    assert b1.as_dict() == b2.as_dict()
    # distinct seeds draw distinct sample points
    from minorbit.sympver import _rng, _sample_point

    p7 = _sample_point(num, _rng(7, 1, 0))
    p8 = _sample_point(num, _rng(8, 1, 0))
    assert not np.allclose(p7.k_factors[0], p8.k_factors[0])


# --- the orbit correspondence ------------------------------------------------

def test_ks_base_case():
    num = numerics("sl2R")
    point = base_point("E")
    assert np.allclose(realize(num, point), num.v)
    report = ks_correspondence_check(num, samples=3, tol=1e-12, seed=1)
    assert report.passed


def test_ks_unit_norm_scaling():
    num = numerics("su21")
    rng = np.random.default_rng(3)
    kappa = num.sample_k(rng)
    for t in (0.5, 1.0, 2.5):
        u = realize(num, OrbitPointParam([kappa], t, "E"))
        norm2 = num.hermitian_pairing(u, u).real
        assert abs(norm2 - t * t) < 1e-12


def test_nan_deviation_fails_the_check():
    # a copy, so the cached numerics stay intact for the other tests
    num = copy.copy(numerics("sl2R"))
    num.v = np.full_like(num.v, np.nan)
    report = ks_correspondence_check(num, samples=3, tol=1e-9, seed=42)
    assert not report.passed
    assert math.isnan(report.max_abs_deviation)


def test_beta_fails_when_every_frame_is_degenerate(monkeypatch):
    def degenerate(num, point, frame):
        return np.zeros((frame.size(), frame.size()))

    monkeypatch.setattr(sympver, "induced_gram", degenerate)
    main, base = verify_beta_symplectic(numerics("sl2R"), samples=3, seed=42)
    assert main.max_abs_deviation == 0.0 and base.max_abs_deviation == 0.0
    assert not main.passed and not base.passed
    assert "no sample accepted" in main.detail
    assert len(main.events) == 3 * 5


def test_poisson_fails_when_every_sample_is_rejected(monkeypatch):
    monkeypatch.setattr(sympver, "COND_LIMIT", 0)
    report = poisson_identities_check(numerics("sl2R"), samples=3, seed=42)
    assert report.max_abs_deviation == 0.0
    assert not report.passed
    assert "no sample accepted" in report.detail


@pytest.mark.parametrize("form_id", VERIFY_FORMS)
def test_ks_correspondence(form_id):
    report = ks_correspondence_check(numerics(form_id), samples=100, tol=1e-9, seed=42)
    assert report.passed
    if form_id == "sl3R":
        assert report.max_abs_deviation <= 1e-10


# --- Poisson identities -------------------------------------------------------

@pytest.mark.parametrize("form_id", ("sl2R", "sl3R", "su21"))
def test_poisson_identities(form_id):
    report = poisson_identities_check(numerics(form_id), samples=50, tol=1e-9, seed=42)
    assert report.passed, report.max_abs_deviation


def test_section_circle_derivative_sl2R():
    """The z-direction derivative of a section is -1/pi times its circle
    derivative, pinning the vertical normalization of the connection."""
    num = numerics("sl2R")
    rng = np.random.default_rng(19)
    w = num.sample_pc(rng)
    h = 1e-6

    def section(u):
        return num.hermitian_pairing(w, u)

    ep, em = expm(-h * num.z), expm(h * num.z)
    d_z = (section(ep @ num.v @ em) - section(em @ num.v @ ep)) / (2 * h)
    # circle action: u -> exp(-2 pi i s) u, derivative 2 pi i section(u)
    d_circle = 2j * PI * section(num.v)
    assert abs(d_z - (-1.0 / PI) * d_circle) < 1e-7 * max(1.0, abs(d_circle))


def test_poisson_radial_bracket_value_sl2R():
    """[r, s] / s = 2 pi i, to finite-difference accuracy."""
    num = numerics("sl2R")
    point = base_point()
    frame = standard_frame(num, point)
    gram = induced_gram(num, point, frame)
    rng = np.random.default_rng(23)
    w = num.sample_pc(rng)
    h = 1e-6
    u0 = num.v

    def section(u):
        return num.hermitian_pairing(w, u)

    def radial_curve(s):
        return math.exp(-2 * s) * u0

    grads_r = [(-2.0) * 1.0]  # d/ds of r along the doubled radial curve at t=1
    grads_s = [(section(radial_curve(h)) - section(radial_curve(-h))) / (2 * h)]
    for a in frame.k_directions:
        ep, em = expm(-h * a), expm(h * a)
        grads_r.append(0.0)
        grads_s.append((section(ep @ u0 @ em) - section(em @ u0 @ ep)) / (2 * h))
    inv = np.linalg.inv(gram)
    bracket = np.array(grads_r) @ inv @ np.array(grads_s, dtype=complex)
    expected = 2j * PI * section(u0)
    assert abs(bracket - expected) <= 1e-6 * abs(expected)


# --- moment cone ---------------------------------------------------------------

def test_moment_identity_point():
    num = numerics("sl3R")
    assert np.allclose(num.k_component(num.e), num.z / 2.0, atol=1e-14)


def test_moment_unipotent_fixes_e():
    num = numerics("sl3R")
    rng = np.random.default_rng(31)
    nelt = num.sample_span(rng, num.n_basis)
    g = expm(nelt)
    moved = g @ num.e @ np.linalg.inv(g)
    assert np.max(np.abs(moved - num.e)) < 1e-12


@pytest.mark.parametrize("form_id", VERIFY_FORMS)
def test_moment_cone(form_id):
    report = moment_cone_check(numerics(form_id), samples=200, tol=1e-9, seed=42)
    assert report.passed
    rank_one = len(numerics(form_id).a_basis) == 1
    if rank_one:
        assert "full membership" in report.detail
    else:
        assert "necessary" in report.detail


def test_moment_determinism():
    num = numerics("su21")
    r1 = moment_cone_check(num, samples=40, tol=1e-9, seed=5)
    r2 = moment_cone_check(num, samples=40, tol=1e-9, seed=5)
    assert r1.as_dict() == r2.as_dict()


# --- shared work: computed once, bit-identical to recomputing ----------------

def test_group_element_reuse_is_bitwise():
    num = numerics("su21")
    rng = np.random.default_rng(41)
    k1, k2 = num.sample_k(rng), num.sample_k(rng)
    g = GroupElement([k1, k2])
    first = g.ad(num.e)
    again = g.ad(num.e)
    fresh = GroupElement([k1, k2]).ad(num.e)
    assert np.array_equal(first, fresh) and np.array_equal(again, fresh)
    product = GroupElement([k1]) * GroupElement([k2])
    assert np.array_equal(product.ad(num.v), GroupElement([k1, k2]).ad(num.v))


def test_coadjoint_frame_gram_matches_fresh_kks_gram():
    num = numerics("sp4R")
    point = sympver._sample_point(num, sympver._rng(42, 3, 0))
    frame = standard_frame(num, point)
    induced_gram(num, point, frame)  # fills the frame's bracket cache
    z_point = OrbitPointParam(point.k_factors, point.t, side="Z")
    dirs = [frame.radial_partner] + frame.k_directions
    fresh = kks_gram(num, z_point, dirs)
    F = realize(num, z_point)
    written_out = np.zeros_like(fresh)
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            val = num.B(F, num.bracket(dirs[j], dirs[i])).real
            written_out[i, j], written_out[j, i] = val, -val
    assert np.array_equal(fresh, written_out)
    assert np.array_equal(coadjoint_frame_gram(num, z_point, frame), fresh)
    assert np.array_equal(coadjoint_frame_gram(num, z_point, frame), fresh)


@pytest.mark.parametrize("form_id", ("sl2R", "su21", "sp4R"))
def test_poisson_tangent_gradients_match_central_differences(form_id):
    """Exact-tangent gradients against central differences along the frame
    curves, the curves exponentiated here with scipy."""
    num = numerics(form_id)
    h = 1e-6
    for index in (1, 2, 3):
        point = sympver._sample_point(
            num, sympver._rng(42, index, 0), t_range=(0.5, 2.0)
        )
        frame = standard_frame(num, point)
        g = point.group()
        u0, b0 = point.t * g.ad(num.v), point.t * g.ad(num.e)
        rng = np.random.default_rng(43 + index)
        x, y = num.sample_k(rng, scale=0.8), num.sample_k(rng, scale=0.8)
        w = num.sample_pc(rng, scale=0.8)

        def radius(u, b):
            return math.sqrt(num.hermitian_pairing(u, u).real)

        def momentum(xelt):
            return lambda u, b: num.B(num.k_component(b), xelt).real / PI

        def phi_x(u, b):
            return momentum(x)(u, b) / radius(u, b)

        def section(u, b):
            return num.hermitian_pairing(w, u)

        def central(fun):
            out = [
                (fun(math.exp(-2 * h) * u0, math.exp(-2 * h) * b0)
                 - fun(math.exp(2 * h) * u0, math.exp(2 * h) * b0)) / (2 * h)
            ]
            for a in frame.k_directions:
                ep, em = expm(-h * a), expm(h * a)
                out.append(
                    (fun(ep @ u0 @ em, ep @ b0 @ em) - fun(em @ u0 @ ep, em @ b0 @ ep))
                    / (2 * h)
                )
            return np.array(out, dtype=complex)

        exact = sympver._poisson_gradients(num, u0, b0, frame.k_directions, w, x, y)
        for row, fun in zip(exact, (radius, phi_x, section, momentum(x), momentum(y))):
            ref = central(fun)
            assert np.max(np.abs(row - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_poisson_sees_a_relative_error_of_1e_8(monkeypatch):
    """Every bracket off by 1e-8 relative breaks the identities with a nonzero
    side, e.g. [r, s~] = 2 pi i s~, at the default tolerance."""
    num = numerics("su21")
    assert poisson_identities_check(num, samples=5, seed=42).passed
    exact = sympver._poisson_bracket

    def perturbed(*args):
        return (1 + 1e-8) * exact(*args)

    monkeypatch.setattr(sympver, "_poisson_bracket", perturbed)
    report = poisson_identities_check(num, samples=5, seed=42)
    assert not report.passed
    assert 5e-9 < report.max_abs_deviation < 2e-8


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_poisson_exponentiates_only_the_group_part(monkeypatch):
    num = numerics("sp4R")
    assert not hasattr(sympver, "expm")
    calls = _count_calls(monkeypatch, numeric, "expm")
    samples = 4
    report = poisson_identities_check(num, samples=samples, seed=42)
    attempted = samples + len(report.events)
    # exp(+-kappa) of the one group factor; none per frame direction
    assert len(calls) <= 2 * attempted


def test_isotropy_basis_solved_once_per_form(monkeypatch):
    calls = _count_calls(monkeypatch, LieAlgebraModel, "centralizer_in_span")
    num = ModelNumerics(analyze("su21"))
    assert calls == []  # lazy: building the numerics does no isotropy solve
    first = ks_correspondence_check(num, samples=5, seed=42)
    second = ks_correspondence_check(num, samples=5, seed=42)
    assert len(calls) == 1
    assert first.as_dict() == second.as_dict()
