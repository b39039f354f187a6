import copy
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from minorbit import exactla, numeric, sympver
from minorbit.matmodel import MODEL_IDS, analyze, centralizer_checks
from minorbit.matmodel.model import LieAlgebraModel
from minorbit.numeric import GroupElement, ModelNumerics, numerics
from minorbit.sympver import (
    CHUNK,
    FACTOR,
    ISOTROPY,
    POINT,
    TEST_FUNCTIONS,
    OrbitPointParam,
    draw,
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


def base_point():
    return OrbitPointParam(GroupElement(), t=1.0)


def _spans(num, rng, basis, count=1, scale=1.0):
    """``count`` normal combinations of ``basis`` drawn from ``rng``."""
    return num.span(scale * rng.standard_normal((count, len(basis))), basis)


def _pc_point(num, rng, scale=1.0):
    """A normal complex point of p_C: real parts first, then imaginary parts."""
    re, im = rng.standard_normal((2, len(num.p_basis)))
    return num.span(scale * (re + 1j * im)[None], num.p_basis)[0]


# --- canonical-form Gram -----------------------------------------------------

def test_kks_distinguished_entry_sl2R():
    num = numerics("sl2R")
    gram = kks_gram(num, base_point(), np.array([num.x_psi, num.z]))
    assert abs(gram[0, 1] - (-2.0 / PI)) < 1e-14
    assert abs(gram[1, 0] - (2.0 / PI)) < 1e-14


def test_kks_antisymmetry_and_diagonal():
    num = numerics("sl3R")
    dirs = [*_spans(num, np.random.default_rng(5), num.k_basis, 3), num.x_psi]
    gram = kks_gram(num, base_point(), np.array(dirs))
    assert np.allclose(gram, -gram.T, atol=1e-13)
    assert np.allclose(np.diag(gram), 0.0)


def test_kks_frame_permutation_covariance():
    num = numerics("su21")
    dirs = _spans(num, np.random.default_rng(6), num.k_basis, 4)
    gram = kks_gram(num, base_point(), dirs)
    perm = [2, 0, 3, 1]
    gram_p = kks_gram(num, base_point(), dirs[perm])
    P = np.zeros((4, 4))
    for new, old in enumerate(perm):
        P[new, old] = 1.0
    assert np.allclose(gram_p, P @ gram @ P.T, atol=1e-13)


def test_compact_block_agrees_across_sides_sl3R():
    """Pairings of compact directions agree at the base points of both sides."""
    num = numerics("sl3R")
    dirs = _spans(num, np.random.default_rng(7), num.k_basis, 3)
    gram_z = kks_gram(num, base_point(), dirs)
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
    gram = induced_gram(num, base_point(), frame)[0]
    target = np.array([[0.0, -2.0 / PI], [2.0 / PI, 0.0]])
    assert np.max(np.abs(gram[:2, :2] - target)) < 1e-15


def test_induced_scaling_in_t():
    num = numerics("su21")
    (kappa,) = _spans(num, np.random.default_rng(11), num.k_basis)
    p1 = OrbitPointParam(GroupElement([kappa]), 1.0)
    p3 = OrbitPointParam(GroupElement([kappa]), 3.0)
    frame = standard_frame(num, p1)
    g1 = induced_gram(num, p1, frame)
    g3 = induced_gram(num, p3, standard_frame(num, p3))
    assert np.allclose(g3, 3.0 * g1, atol=1e-13)


def test_frame_rank_is_dim_Z():
    """The base-point frame and its induced Gram have full rank dim Z; every
    sample's frame is Ad(k) of it with k unitary, so it has the same rank."""
    for form_id in MODEL_IDS:
        num = numerics(form_id)
        inv = num.analysis.invariants
        frame = standard_frame(num, base_point())
        assert frame.shape[-3] == inv.dim_Z == inv.dim_X + 2
        flat = frame.reshape(frame.shape[-3], -1)
        assert np.linalg.matrix_rank(flat, tol=1e-10) == inv.dim_Z, form_id
        (gram,) = induced_gram(num, base_point(), frame)
        assert np.linalg.matrix_rank(gram, tol=1e-10) == inv.dim_Z, form_id


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
    p7 = sympver._sample_points(num, 7, np.array([1]))
    p8 = sympver._sample_points(num, 8, np.array([1]))
    assert not np.allclose(p7.element.factors[0], p8.element.factors[0])


# --- the orbit correspondence ------------------------------------------------

def test_ks_base_case():
    num = numerics("sl2R")
    point = base_point()
    assert np.allclose(realize(num, point), num.v)
    (report,) = ks_correspondence_check(num, samples=3, tol=1e-12, seed=1)
    assert report.passed


def test_ks_unit_norm_scaling():
    num = numerics("su21")
    (kappa,) = _spans(num, np.random.default_rng(3), num.k_basis)
    for t in (0.5, 1.0, 2.5):
        u = realize(num, OrbitPointParam(GroupElement([kappa]), t))
        norm2 = num.hermitian_pairing(u, u).real
        assert abs(norm2 - t * t) < 1e-12


def test_nan_deviation_fails_the_check():
    # the same samples of the original first, so that its K element is the
    # last drawn; then a copy, so the cached numerics stay intact
    assert ks_correspondence_check(numerics("sl2R"), samples=3, tol=1e-9, seed=42)[0].passed
    num = copy.copy(numerics("sl2R"))
    num.v = np.full_like(num.v, np.nan)
    (report,) = ks_correspondence_check(num, samples=3, tol=1e-9, seed=42)
    assert not report.passed
    assert math.isnan(report.max_abs_deviation)


def test_beta_fails_when_every_frame_is_degenerate(monkeypatch):
    def degenerate(num, point, frame):
        m = frame.shape[-3]
        return np.zeros((*frame.shape[:-3], m, m))

    monkeypatch.setattr(sympver, "induced_gram", degenerate)
    main, base = verify_beta_symplectic(numerics("sl2R"), samples=3, seed=42)
    assert main.max_abs_deviation == 0.0 and base.max_abs_deviation == 0.0
    assert not main.passed and not base.passed
    assert "no sample accepted" in main.detail
    assert main.events == base.events == [
        "base point: degenerate frame; every sample's Gram is t times it"]


def test_poisson_fails_when_every_sample_is_rejected(monkeypatch):
    monkeypatch.setattr(sympver, "COND_LIMIT", 0)
    (report,) = poisson_identities_check(numerics("sl2R"), samples=3, seed=42)
    assert report.max_abs_deviation == 0.0
    assert not report.passed
    assert "no sample accepted" in report.detail
    assert report.events == ["base point: ill-conditioned Gram; every sample's Gram is t times it"]


@pytest.mark.parametrize("seed", (42, 7))
@pytest.mark.parametrize("spread", (4.0, 2.0))  # beta's, poisson's
def test_every_sample_gram_is_t_times_the_base_gram(seed, spread):
    """B is Ad-invariant, so each sample's induced Gram is t times the base
    point's, and the base point's rank and condition tests decide every
    sample's; the base Gram passes both on every form."""
    base = OrbitPointParam()
    for form_id in MODEL_IDS:
        num = numerics(form_id)
        (gram,) = induced_gram(num, base, standard_frame(num, base))
        assert np.linalg.matrix_rank(gram, tol=1e-10) == len(gram), form_id
        assert np.linalg.cond(gram) <= sympver.COND_LIMIT, form_id
        point = sympver._sample_points(num, seed, np.arange(100), spread)
        sampled = induced_gram(num, point, standard_frame(num, point))
        scaled = point.t[:, None, None] * gram
        assert np.max(np.abs(sampled - scaled)) <= 1e-13 * np.max(np.abs(gram)), form_id


def test_a_dependent_frame_rejects_every_sample_at_the_base_point(monkeypatch):
    """su21 with k_nu_perp_basis[1] replaced by k_nu_perp_basis[0]: one base
    Gram per Gram check decides, and each failing line says why once."""
    num = copy.copy(numerics("su21"))
    first, _, *rest = num.k_nu_perp_basis
    num.k_nu_perp_basis = [first, first, *rest]
    grams = []
    exact = sympver.induced_gram

    def recorded(num, point, frame):
        gram = exact(num, point, frame)
        grams.append(len(gram))
        return gram

    monkeypatch.setattr(sympver, "induced_gram", recorded)
    lines = {line.name: line for check in SAMPLED_CHECKS
             for line in check(num, samples=30, seed=42)}
    assert grams == [1, 1]  # the base point's, for beta and for poisson
    reasons = {"beta_symplectic": "degenerate frame", "beta_base_block": "degenerate frame",
               "poisson_identities": "ill-conditioned Gram"}
    for name, reason in reasons.items():
        line = lines[name]
        assert not line.passed and line.accepted == 0, name
        assert "no sample accepted" in line.detail, name
        assert line.events == [f"base point: {reason}; every sample's Gram is t times it"]
    assert lines["ks_correspondence"].passed and lines["moment_cone"].passed


@pytest.mark.parametrize(
    "check",
    (verify_beta_symplectic, ks_correspondence_check, poisson_identities_check,
     moment_cone_check),
)
def test_zero_samples_fail_every_check(check):
    report = check(numerics("sl2R"), samples=0, seed=42)[0]
    assert not report.passed
    assert "no sample accepted" in report.detail


@pytest.mark.parametrize("form_id", VERIFY_FORMS)
def test_ks_correspondence(form_id):
    (report,) = ks_correspondence_check(numerics(form_id), samples=100, tol=1e-9, seed=42)
    assert report.passed
    if form_id == "sl3R":
        assert report.max_abs_deviation <= 1e-10


# --- Poisson identities -------------------------------------------------------

@pytest.mark.parametrize("form_id", ("sl2R", "sl3R", "su21"))
def test_poisson_identities(form_id):
    (report,) = poisson_identities_check(numerics(form_id), samples=50, tol=1e-9, seed=42)
    assert report.passed, report.max_abs_deviation


def test_section_circle_derivative_sl2R():
    """The z-direction derivative of a section is -1/pi times its circle
    derivative, pinning the vertical normalization of the connection."""
    num = numerics("sl2R")
    w = _pc_point(num, np.random.default_rng(19))
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
    (frame,) = standard_frame(num, point)
    gram = induced_gram(num, point, frame)
    w = _pc_point(num, np.random.default_rng(23))
    h = 1e-6
    u0 = num.v

    def section(u):
        return num.hermitian_pairing(w, u)

    def radial_curve(s):
        return math.exp(-2 * s) * u0

    grads_r = [(-2.0) * 1.0]  # d/ds of r along the doubled radial curve at t=1
    grads_s = [(section(radial_curve(h)) - section(radial_curve(-h))) / (2 * h)]
    for a in frame[1:]:
        ep, em = expm(-h * a), expm(h * a)
        grads_r.append(0.0)
        grads_s.append((section(ep @ u0 @ em) - section(em @ u0 @ ep)) / (2 * h))
    inv = np.linalg.inv(gram)
    bracket = np.array(grads_r) @ inv @ np.array(grads_s, dtype=complex)
    expected = 2j * PI * section(u0)
    assert abs(bracket - expected) <= 1e-6 * abs(expected)


# --- moment cone ---------------------------------------------------------------

def test_moment_identity_point():
    """k(e) = (e + theta e) / 2 = z / 2, with z = e + theta e read in floats."""
    for form_id in MODEL_IDS:
        num = numerics(form_id)
        assert np.array_equal(num.k_component(num.e), num.z / 2.0), form_id


def test_sample_0_is_the_base_point():
    """Sample 0 has t = 1 and the zero k factor, so it realizes e itself."""
    for form_id in MODEL_IDS:
        num = numerics(form_id)
        point = sympver._sample_points(num, 42, np.array([0, 1, 2]))
        assert point.t[0] == 1.0, form_id
        assert np.array_equal(point.element.ad(num.e)[0], num.e), form_id


def test_moment_unipotent_fixes_e():
    num = numerics("sl3R")
    (nelt,) = _spans(num, np.random.default_rng(31), num.n_basis)
    g = expm(nelt)
    moved = g @ num.e @ np.linalg.inv(g)
    assert np.max(np.abs(moved - num.e)) < 1e-12


@pytest.mark.parametrize("form_id", VERIFY_FORMS)
def test_moment_cone(form_id):
    (report,) = moment_cone_check(numerics(form_id), samples=200, tol=1e-9, seed=42)
    assert report.passed
    rank_one = len(numerics(form_id).a_basis) == 1
    if rank_one:
        assert "full membership" in report.detail
    else:
        assert "necessary" in report.detail


def test_moment_determinism():
    num = numerics("su21")
    (r1,) = moment_cone_check(num, samples=40, tol=1e-9, seed=5)
    (r2,) = moment_cone_check(num, samples=40, tol=1e-9, seed=5)
    assert r1.as_dict() == r2.as_dict()


# --- stacked samples: each sample as if computed on its own ------------------

def test_group_element_rows_and_products_are_bitwise():
    """A sample of a stacked element and a product transport exactly as the
    element built from that sample alone."""
    num = numerics("su21")
    rng = np.random.default_rng(41)
    k1, k2 = _spans(num, rng, num.k_basis, 5), _spans(num, rng, num.k_basis, 5)
    g = GroupElement([k1, k2])
    stacked = g.ad(num.e)
    for i in range(5):
        alone = GroupElement([k1[i:i + 1], k2[i:i + 1]]).ad(num.e)
        assert np.array_equal(stacked[i:i + 1], alone)
    product = GroupElement([k1]) * GroupElement([k2])
    assert np.array_equal(product.ad(num.v), g.ad(num.v))


@pytest.mark.parametrize("form_id", ("sl2R", "su21", "sp4R"))
def test_pair_trace_grams_match_written_out_brackets(form_id):
    """The Grams from pair traces tr(F d_j d_i) against B(F, [d_j, d_i])
    written out entry by entry, sample by sample."""
    num = numerics(form_id)
    point = sympver._sample_points(num, 42, np.arange(1, 6))
    frame = standard_frame(num, point)
    kks, induced = kks_gram(num, point, frame), induced_gram(num, point, frame)
    F, zk = sympver.coadjoint_point(num, point), point.element.ad(num.z)
    m = frame.shape[1]
    for s in range(5):
        d, t = frame[s], point.t[s]
        for i in range(m):
            for j in range(m):
                assert abs(kks[s, i, j] - num.B(F[s], num.bracket(d[j], d[i])).real) < 1e-13
                if i and j:
                    pair = num.B(zk[s], num.bracket(d[j], d[i])).real * t / (2 * PI)
                    assert abs(induced[s, i, j] - pair) < 1e-13
            if i:
                assert abs(induced[s, 0, i] - (t / PI) * num.B(zk[s], d[i]).real) < 1e-13


@pytest.mark.parametrize("form_id", ("sl2R", "su21", "sp4R"))
def test_poisson_tangent_gradients_match_central_differences(form_id):
    """Exact-tangent gradients against central differences along the frame
    curves, the curves exponentiated here with scipy."""
    num = numerics(form_id)
    h = 1e-6
    for index in (1, 2, 3):
        point = sympver._sample_points(num, 42, np.array([index]), spread=2.0)
        frame = standard_frame(num, point)
        u0, b0 = realize(num, point), sympver.nilpotent_of(num, point)
        rng = np.random.default_rng(43 + index)
        x, y = _spans(num, rng, num.k_basis, 2, scale=0.8)
        w = _pc_point(num, rng, scale=0.8)
        exact = sympver._poisson_gradients(
            num, u0, b0, frame[:, 1:], w[None], x[None], y[None]
        )[0]
        u0, b0 = u0[0], b0[0]

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
            for a in frame[0, 1:]:
                ep, em = expm(-h * a), expm(h * a)
                out.append(
                    (fun(ep @ u0 @ em, ep @ b0 @ em) - fun(em @ u0 @ ep, em @ b0 @ ep))
                    / (2 * h)
                )
            return np.array(out, dtype=complex)

        for row, fun in zip(exact, (radius, phi_x, section, momentum(x), momentum(y))):
            ref = central(fun)
            assert np.max(np.abs(row - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))


SAMPLED_CHECKS = (verify_beta_symplectic, ks_correspondence_check,
                  poisson_identities_check, moment_cone_check)


def _per_sample_deviations(monkeypatch, check, num, samples, seed=42):
    """The stacked deviations a check folds in, by sample index (beta's
    sample 0 also feeds the base-block record)."""
    seen = {}
    add = sympver._Deviations.add

    def record(self, indices, dev):
        for i, d in zip(indices.tolist(), dev.tolist()):
            seen.setdefault(i, []).append(d)
        add(self, indices, dev)

    with monkeypatch.context() as patch:
        patch.setattr(sympver._Deviations, "add", record)
        check(num, samples=samples, seed=seed)
    return seen


@pytest.mark.parametrize("check", SAMPLED_CHECKS)
def test_per_sample_deviations_do_not_depend_on_the_batch(monkeypatch, check):
    """Sample i's deviation is bit for bit the same whatever the sample
    count, also when the run spans two chunks."""
    num = numerics("su21")
    ten = _per_sample_deviations(monkeypatch, check, num, 10)
    hundred = _per_sample_deviations(monkeypatch, check, num, 100)
    two_chunks = _per_sample_deviations(monkeypatch, check, num, CHUNK + 3)
    assert sorted(ten) == list(range(10))
    assert sorted(two_chunks) == list(range(CHUNK + 3))
    for i in range(10):
        assert ten[i] == hundred[i] == two_chunks[i], i


@pytest.mark.parametrize("check", SAMPLED_CHECKS)
def test_worst_sample_reruns_to_the_same_deviation(check):
    num = numerics("sp4R")
    report = check(num, samples=40, seed=42)[0]
    assert report.accepted == 40 and 0 <= report.worst_sample < 40
    line = report.as_dict()
    assert (line["accepted"], line["worst_sample"]) == (40, report.worst_sample)
    again = check(num, samples=report.worst_sample + 1, seed=42)[0]
    assert again.max_abs_deviation == report.max_abs_deviation
    assert again.worst_sample == report.worst_sample


@pytest.mark.parametrize(
    "check, target",
    [(verify_beta_symplectic, "kks_gram"), (ks_correspondence_check, "realize"),
     (poisson_identities_check, "_poisson_bracket"), (moment_cone_check, "nilpotent_of")],
)
def test_nan_in_one_sample_of_a_chunk_fails_the_check(monkeypatch, check, target):
    original = getattr(sympver, target)

    def nan_at_sample_5(*args, **kwargs):
        out = original(*args, **kwargs).copy()
        out[5] = np.nan
        return out

    monkeypatch.setattr(sympver, target, nan_at_sample_5)
    report = check(numerics("su21"), samples=20, seed=42)[0]
    assert not report.passed
    assert math.isnan(report.max_abs_deviation)
    assert report.worst_sample == 5 and report.accepted == 20


def test_rng_streams_keyed_on_the_full_seed():
    """Seeds that agree modulo 2**32 or 2**64 get streams of their own, and a
    negative seed is refused."""
    draws = {
        seed: draw(seed, np.array([3]), POINT, 4).tobytes()
        for seed in (42, 2**32 + 42, 2**33 + 42, 2**64 + 42, 2**128 + 42)
    }
    assert len(set(draws.values())) == len(draws)
    with pytest.raises(ValueError, match="non-negative"):
        draw(-1, np.array([3]), POINT, 4)


# --- the draw function ----------------------------------------------------------

def _draw_reference(seed, index, purpose, position):
    """The raw 64 bits of one draw, in Python integers; the key's low 8 bits
    are zero."""
    word, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(x):
        x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & word
        x = (x ^ x >> 27) * 0x94D049BB133111EB & word
        return x ^ x >> 31

    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = mix((key + gamma & word) ^ (seed >> shift & word))
    start = mix(key ^ (index << 16 | purpose << 8))
    return mix(start + (position + 1) * gamma & word)


def test_draw_known_answers():
    # the finaliser: the first three outputs of SplitMix64 seeded with 0
    gammas = np.arange(1, 4, dtype=np.uint64) * sympver.GAMMA
    assert sympver._mix(gammas).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    pinned = {  # (seed, index, purpose, position): (bits, uniform)
        (42, 5, POINT, 0): (0xFF81BDBF6498931A, 0.9980734436290695),
        (42, 5, 1, 0): (0xF3D4C4770D6E6881, 0.9524653235106882),
        (7, 130, TEST_FUNCTIONS, 9): (0xFB1B4C53C015096E, 0.9808852867573316),
        (2**64 + 42, 0, ISOTROPY, 2): (0x22E8C84D366F62BE, 0.13636447796892304),
    }
    for (seed, index, purpose, position), (bits, u) in pinned.items():
        assert _draw_reference(seed, index, purpose, position) == bits
        drawn = draw(seed, np.array([index]), purpose, position + 1)
        assert drawn[0, position] == u == (bits >> 11) * 2.0**-53
    # whole chunks against the reference, draw by draw
    for seed in (0, 42, 2**32 + 42, 2**64 + 42):
        indices = np.array([0, 1, 127, 128, 2**40])
        drawn = draw(seed, indices, FACTOR, 5)
        for row, index in zip(drawn, indices.tolist()):
            ref = [_draw_reference(seed, index, FACTOR, j) >> 11 for j in range(5)]
            assert (row * 2.0**53).tolist() == ref


def test_draw_normals_are_standard():
    from scipy import stats

    u = draw(2024, np.arange(25_000), 1, 8)
    normals = sympver._normals(u).ravel()
    assert normals.size == 100_000
    assert abs(normals.mean()) < 5 / math.sqrt(normals.size)
    assert abs(normals.var() - 1) < 5 * math.sqrt(2 / normals.size)
    assert stats.kstest(normals, "norm").pvalue > 1e-3
    assert stats.kstest(u.ravel(), "uniform").pvalue > 1e-3


def test_draws_differ_across_purposes_indices_and_seeds():
    """Every pair of streams differs in every position and is uncorrelated."""
    indices = np.arange(1, 2001)
    streams = {
        **{("purpose", p): draw(42, indices, p, 8)
           for p in (POINT, FACTOR, ISOTROPY, TEST_FUNCTIONS)},
        ("indices", 2001): draw(42, indices + 2000, POINT, 8),
        ("seed", 43): draw(43, indices, POINT, 8),
    }
    labels = list(streams)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            assert not np.any(streams[a] == streams[b]), (a, b)
            corr = np.corrcoef(streams[a].ravel(), streams[b].ravel())[0, 1]
            assert abs(corr) < 0.05, (a, b, corr)


def test_poisson_test_functions_do_not_replay_the_point(monkeypatch):
    """Poisson's test function x comes from a stream of its own: with the
    point's stream, x would be the point's k factor rescaled, 0.7 x = 0.8 kappa."""
    seen = {}
    frame_of, gradients_of = sympver.standard_frame, sympver._poisson_gradients

    def frame(num, point):
        if point.element.factors:  # not the base point's frame
            seen.setdefault("kappa", point.element.factors[0])
        return frame_of(num, point)

    def gradients(num, u0, b0, directions, w, x, y):
        seen.setdefault("x", x)
        return gradients_of(num, u0, b0, directions, w, x, y)

    monkeypatch.setattr(sympver, "standard_frame", frame)
    monkeypatch.setattr(sympver, "_poisson_gradients", gradients)
    (report,) = poisson_identities_check(numerics("su21"), samples=6, seed=42)
    assert report.accepted == 6 and not report.events
    for kappa, x in zip(seen["kappa"][1:], seen["x"][1:]):
        assert not np.allclose(0.7 * x, 0.8 * kappa)


def test_poisson_sees_a_relative_error_of_1e_8(monkeypatch):
    """Every bracket off by 1e-8 relative breaks the identities with a nonzero
    side, e.g. [r, s~] = 2 pi i s~, at the default tolerance."""
    num = numerics("su21")
    assert poisson_identities_check(num, samples=5, seed=42)[0].passed
    exact = sympver._poisson_bracket

    def perturbed(*args):
        return (1 + 1e-8) * exact(*args)

    monkeypatch.setattr(sympver, "_poisson_bracket", perturbed)
    (report,) = poisson_identities_check(num, samples=5, seed=42)
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
    _fresh_memo(monkeypatch)
    calls = _count_calls(monkeypatch, numeric, "expm")
    (report,) = poisson_identities_check(num, samples=4, seed=42)
    # one call, exp(+-kappa), for the chunk's one group factor; none per
    # frame direction, and none for the base point's Gram
    assert len(calls) == 1 and not report.events


def test_isotropy_basis_solved_once_per_form(monkeypatch):
    """Cent_k(e) is the S-triple's: the numerics only convert it, and the
    centralizer checks and two ks runs solve it once between them.  A copy
    of the cached triple starts unsolved, whatever ran before."""
    a = analyze("su21")
    a = replace(a, striple=replace(a.striple))
    solved = []
    original = LieAlgebraModel.centralizer_in_span

    def recorded(self, elements, span):
        solved.append(list(elements) == [a.striple.e])
        return original(self, elements, span)

    monkeypatch.setattr(LieAlgebraModel, "centralizer_in_span", recorded)
    num = ModelNumerics(a)
    assert sum(solved) == 0  # lazy: building the numerics does no isotropy solve
    centralizer_checks(a.model, a.datum, a.striple, a.cayley, a.descriptor.hermitian)
    (first,) = ks_correspondence_check(num, samples=5, seed=42)
    (second,) = ks_correspondence_check(num, samples=5, seed=42)
    assert sum(solved) == 1
    assert first.as_dict() == second.as_dict()


def test_numerics_solve_nothing(monkeypatch):
    """k_nu_perp is the weight data's and Cent k the model's: once
    lambda_data has run, building the numerics makes no exact solve."""
    a = analyze("su41")
    a.lambda_data()
    kernels = _count_calls(monkeypatch, exactla, "kernel_basis")
    spans = _count_calls(monkeypatch, LieAlgebraModel, "kernel_in_span")
    ModelNumerics(a)
    assert (len(kernels), len(spans)) == (0, 0)


# --- one K element per chunk, shared by the four checks --------------------------

def _fresh_memo(monkeypatch):
    monkeypatch.setattr(sympver, "_last_chunk", (None, None, None))


@pytest.mark.parametrize("form_id", ("su21", "sl2H"))
@pytest.mark.parametrize("check", SAMPLED_CHECKS)
def test_sharing_the_k_element_is_invisible(monkeypatch, form_id, check):
    """A check reports the same on a fresh memo, after the other three checks
    and after all four at another seed."""
    num = numerics(form_id)

    def run(seed=42):
        return [r.as_dict() for r in check(num, samples=40, seed=seed)]

    _fresh_memo(monkeypatch)
    fresh = run()
    _fresh_memo(monkeypatch)
    for other in SAMPLED_CHECKS:
        if other is not check:
            other(num, samples=40, seed=42)
    after_the_others = run()
    _fresh_memo(monkeypatch)
    for other in SAMPLED_CHECKS:
        other(num, samples=40, seed=7)
    after_another_seed = run()
    assert fresh == after_the_others == after_another_seed


def test_four_checks_exponentiate_four_times_on_su21(monkeypatch):
    """beta exponentiates the chunk's k factor; ks its isotropy factor,
    poisson nothing, moment its a and n factors."""
    num = numerics("su21")
    num.isotropy_basis  # solved exactly, outside the count
    _fresh_memo(monkeypatch)
    calls = _count_calls(monkeypatch, numeric, "expm")
    per_check = []
    for check in SAMPLED_CHECKS:
        before = len(calls)
        assert check(num, samples=100, seed=42)[0].passed
        per_check.append(len(calls) - before)
    assert per_check == [1, 1, 0, 2]


def test_memoized_arrays_are_read_only(monkeypatch):
    num = numerics("su21")
    _fresh_memo(monkeypatch)
    element = sympver._sample_points(num, 42, np.arange(4)).element
    for shared in (element.ad(num.e), element.ad(num.z), element.factors[0],
                   *element._ends, *element._exps[0]):
        with pytest.raises(ValueError, match="read-only"):
            shared[1] += 1.0


def test_every_check_defaults_to_one_sample_count():
    for check in SAMPLED_CHECKS:
        default = inspect.signature(check).parameters["samples"].default
        assert default == sympver.DEFAULT_SAMPLES == 100


@pytest.mark.parametrize("form_id", ("su21", "sl2H"))
def test_ks_and_moment_build_no_frame_and_no_gram(monkeypatch, form_id):
    """Only beta and poisson reject samples by the induced Gram; ks and moment
    draw each chunk once and never build a frame or a Gram."""
    num = numerics(form_id)

    def refuse(*args):
        raise AssertionError("a frame or a Gram was built")

    monkeypatch.setattr(sympver, "standard_frame", refuse)
    monkeypatch.setattr(sympver, "induced_gram", refuse)
    for check in (ks_correspondence_check, moment_cone_check):
        (report,) = check(num, samples=CHUNK + 3, seed=42)
        assert report.passed and report.accepted == CHUNK + 3 and not report.events
    with pytest.raises(AssertionError, match="a frame or a Gram"):
        poisson_identities_check(num, samples=3, seed=42)
