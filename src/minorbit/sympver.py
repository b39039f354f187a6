"""Numerical verification of the symplectic content.

Two ways of computing the same symplectic pairings are compared at seeded
random points:

* the induced side works on the cone over the compact orbit, where the
  two-form is d(r alpha); its entries against group directions and the radial
  direction reduce to closed forms in the compact data (the invariant form on
  k, the element z, and the connection pairing <alpha, zeta> = -1);
* the coadjoint side evaluates the canonical orbit form directly on the
  noncompact algebra, pairing the realized orbit point against brackets.

Their entrywise agreement at every sample is the content of the verified
isomorphism; the distinguished 2x2 base-point block must equal
[[0, -2/pi], [2/pi, 0]].

Poisson-bracket identities are checked numerically by assembling the induced
Gram in a frame, factoring it, and contracting exact tangent derivatives of
test functions along the frame curves: no frame curve is exponentiated.

The four checks walk their samples through one driver (``_run``), CHUNK at
a time, each chunk in a few stacked numpy calls on a leading sample axis.
Each draw is a pure function of the seed, sample index, purpose and
position (``draw``), so sample i is the same point whatever the chunk;
sample 0, the base point, has the zero factor.  For beta and poisson the
driver also builds a frame and the induced Gram; B is Ad-invariant, so
every sample's induced Gram is t times the base point's, and the driver
asks once, of the base point's Gram, whether the check rejects it.  A
check names its identities, one deviation per sample each; the driver
keeps the largest per sample, then the largest sample, a NaN first, with
its index.  The four checks draw the same k
factors, so one K element per chunk, with its exponentials and transports of
the frame directions, e, v and z, serves all four (``_k_element``); only the
scale t, which depends on a check's spread, is drawn per check.  A frame is
an (S, m, n, n) stack, and every Gram comes from the pair traces
T[s, i, j] = tr(F d_j d_i), as B(F, [d_j, d_i]) = c (T_ij - T_ji).  Each
check returns a list of sampled report lines: two for beta (the agreement
and the base block), one for each of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numeric import GroupElement, ModelNumerics, trace_pairs
from .report import CheckItem

PI = math.pi
COND_LIMIT = 1e8
# samples per stacked pass: memory stays bounded whatever the sample count
CHUNK = 128
# the sample count of every check, and the CLI's default
DEFAULT_SAMPLES = 100

DEFAULT_TOL_CLOSED = 1e-9
# no check defaults to it; perfbench/worker.py reads it as poisson's tolerance
DEFAULT_TOL_FD = 1e-6


@dataclass
class OrbitPointParam:
    """Sampled points: a group element k of K and scales t > 0.

    The element may stack one factor per sample, with ``t`` then an (S,)
    array.  The default is the base point.
    """

    element: GroupElement = field(default_factory=GroupElement, repr=False)
    t: float | np.ndarray = 1.0

    def __post_init__(self):
        if np.any(np.asarray(self.t) <= 0):
            raise ValueError("t must be positive")


def _scale(t, X: np.ndarray) -> np.ndarray:
    """t X, one scale per sample of a stack."""
    return np.asarray(t)[..., None, None] * X


def _max_abs(X: np.ndarray) -> np.ndarray:
    """The largest absolute entry of each matrix of a stack."""
    return np.max(np.abs(X), axis=(-2, -1))


def realize(num: ModelNumerics, point: OrbitPointParam) -> np.ndarray:
    """The extremal-weight point u = t Ad(k) v."""
    return _scale(point.t, point.element.ad(num.v))


def coadjoint_point(num: ModelNumerics, point: OrbitPointParam) -> np.ndarray:
    """The coadjoint orbit point (t / pi) Ad(k) e."""
    return _scale(point.t / PI, point.element.ad(num.e))


def standard_frame(num: ModelNumerics, point: OrbitPointParam) -> np.ndarray:
    """The (S, m, n, n) frame: x_psi, z, then a complement of the isotropy
    k_nu in k, each transported by the group part of the point."""
    directions = (num.x_psi, num.z, *num.k_nu_complement_basis)
    frame = np.stack([point.element.ad(d) for d in directions], axis=-3)
    # the identity element transports without a sample axis: S = 1
    return frame.reshape(-1, *frame.shape[-3:])


def _bracket_gram(num: ModelNumerics, F: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """B(F, [d_j, d_i]) for every pair of directions of the frame, from the
    pair traces U[j, i] = tr(F d_j d_i)."""
    U = trace_pairs(F[..., None, :, :] @ frame, frame)
    return (num.c * (U.swapaxes(-1, -2) - U)).real


def kks_gram(num: ModelNumerics, point: OrbitPointParam, frame: np.ndarray) -> np.ndarray:
    """Canonical-form pairings <rho, [d_j, d_i]> at realized orbit points.
    A standard frame is Ad(k), k unitary, of the base point's, so it has its
    rank, dim Z; a dependent frame would make the induced Gram singular."""
    return _bracket_gram(num, coadjoint_point(num, point), frame)


def induced_gram(num: ModelNumerics, point: OrbitPointParam, frame: np.ndarray) -> np.ndarray:
    """Induced-form pairings in the frame, from the compact-side closed forms.

    Row and column 0 belong to the doubled inward radial direction; entry
    (0, j) is 2t <k.nu, a_j> and the group block is t <k.nu, [a_j, a_i]>.
    """
    t = np.asarray(point.t)[..., None]
    zk = point.element.ad(num.z)
    k_directions = frame[..., 1:, :, :]
    m = frame.shape[-3]
    out = np.zeros((*frame.shape[:-3], m, m))
    radial = (t / PI) * num.B(zk[..., None, :, :], k_directions).real
    out[..., 0, 1:] = radial
    out[..., 1:, 0] = -radial
    out[..., 1:, 1:] = (t / (2 * PI))[..., None] * _bracket_gram(num, zk, k_directions)
    return out


# the purposes of a sample's draws: each is a field of its stream's key, so a
# number, once used, keeps its draws; 1 is no longer drawn
POINT, FACTOR, ISOTROPY, TEST_FUNCTIONS = 0, 2, 3, 4
GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser (Steele, Lea, Flood, OOPSLA 2014) on uint64."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def draw(seed: int, indices: np.ndarray, purpose: int, count: int) -> np.ndarray:
    """(S, count) uniforms in [0, 1): positions 0 to count - 1 of the stream
    of each sample of ``indices`` for ``purpose``, in integer arithmetic.
    The key folds in every 64-bit word of the seed; a stream starts at the
    key mixed with the fixed-width fields index << 16 | purpose << 8 (index
    < 2**48), and position j of it is the SplitMix64 output mix(start + (j
    + 1) GAMMA).  The fields' low 8 bits stay zero, so that every stream,
    and with it every report, keeps its bits."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    key = np.zeros(1, np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _mix((key + GAMMA) ^ np.uint64(seed >> shift & (1 << 64) - 1))
    fields = np.asarray(indices, np.uint64) << np.uint64(16)
    start = _mix(key ^ fields ^ np.uint64(purpose << 8))
    bits = _mix(start[:, None] + np.arange(1, count + 1, dtype=np.uint64) * GAMMA)
    return (bits >> np.uint64(11)) * 2.0**-53


def _normals(u: np.ndarray) -> np.ndarray:
    """(S, c) normals by Box-Muller: radii from u[:, :c], angles from u[:, c:]."""
    c = u.shape[1] // 2
    return np.sqrt(-2.0 * np.log1p(-u[:, :c])) * np.cos(2 * PI * u[:, c:])


@lru_cache(maxsize=1)
def _k_element(num: ModelNumerics, seed: int, lo: int, stop: int) -> GroupElement:
    """The k factors of samples lo to stop - 1, from positions 1 on of their
    POINT streams; sample 0 has the zero factor.

    The four checks draw the same k, whatever their spread, so the element
    of the chunk drawn last is kept, and with it its exponentials and
    transports.  It is kept for the model object itself (hashed by
    identity): a copy of a model, whose matrices may differ, draws its own.
    """
    indices = np.arange(lo, stop)
    u = draw(seed, indices, POINT, 2 * len(num.k_basis) + 1)
    coeffs = 0.7 * _normals(u[:, 1:])
    coeffs[indices == 0] = 0.0
    factor = num.span(coeffs, num.k_basis)
    factor.flags.writeable = False
    return GroupElement([factor])


def _sample_points(num: ModelNumerics, seed: int, indices: np.ndarray,
                   spread: float = 4.0) -> OrbitPointParam:
    """The points of samples ``indices``, consecutive: the shared k element
    and t log-uniform in [1/spread, spread) from position 0 of the POINT
    streams; sample 0 is the base point (t = 1)."""
    u = draw(seed, indices, POINT, 1)
    t = np.where(indices == 0, 1.0, spread ** (2 * u[:, 0] - 1))
    element = _k_element(num, seed, int(indices[0]), int(indices[-1]) + 1)
    return OrbitPointParam(element, t)


@dataclass
class _Deviations:
    """The accepted samples of a check: their count, and the largest
    per-sample deviation with its sample index (the first NaN, or else the
    first largest value folded in); ``events`` says why no sample was
    accepted, when none was."""

    accepted: int = 0
    value: float = 0.0
    index: int | None = None
    events: list[str] = field(default_factory=list)

    def add(self, indices: np.ndarray, dev: np.ndarray) -> None:
        """Fold in the deviations ``dev`` of the (nonempty) samples ``indices``."""
        self.accepted += len(indices)
        k = int(np.argmax(dev))  # the first NaN, if there is one
        value = float(dev[k])
        if (self.index is None or value > self.value
                or math.isnan(value) and not math.isnan(self.value)):
            self.value, self.index = value, int(indices[k])


def _run(num, samples, seed, identities, spread=4.0, rejects=None,
         reason=None) -> _Deviations:
    """The deviations of samples 0 to ``samples`` - 1, CHUNK at a time.

    ``identities(indices, point, frame, gram)`` names (S,) deviation arrays
    of the samples ``indices``; their largest per sample is folded in.
    Without ``rejects`` frame and gram are None.  With it, the frame and the
    induced Gram are built, and ``rejects`` is asked once, of the base
    point's Gram: every sample's Gram is t times it, so a Gram it refuses
    leaves no sample accepted, and the one event names ``reason``.
    """
    devs = _Deviations()
    if rejects is not None:
        base = OrbitPointParam()
        if rejects(induced_gram(num, base, standard_frame(num, base))[0]):
            devs.events.append(f"base point: {reason}; every sample's Gram is t times it")
            return devs
    for lo in range(0, samples, CHUNK):
        indices = np.arange(lo, min(lo + CHUNK, samples))
        point = _sample_points(num, seed, indices, spread)
        frame = gram = None
        if rejects is not None:
            frame = standard_frame(num, point)
            gram = induced_gram(num, point, frame)
        named = identities(indices, point, frame, gram)
        devs.add(indices, np.max(list(named.values()), axis=0))
    return devs


def _report(name, samples, devs: _Deviations, tol, seed, detail="") -> CheckItem:
    """The record of a sampled check.  A check that accepted no sample has
    tested nothing, so it fails and says so in its detail."""
    return CheckItem.verdict(
        name,
        bool(devs.accepted) and devs.value <= tol,
        detail + ("" if devs.accepted else "; no sample accepted"),
        sample_count=samples,
        max_abs_deviation=devs.value,
        tolerance=tol,
        seed=seed,
        events=devs.events,
        accepted=devs.accepted,
        worst_sample=devs.index,
    )


BASE_BLOCK_TOL = 1e-12


def verify_beta_symplectic(
    num: ModelNumerics,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> list[CheckItem]:
    """Entrywise agreement of the induced and coadjoint Grams at seeded points.

    Sample 0 is always the base point, where the distinguished radial/z block
    must match [[0, -2/pi], [2/pi, 0]] to near machine precision (reported
    separately at its own tolerance).  A degenerate base Gram leaves no
    sample accepted, and both records fail with its one event: they have
    tested nothing.  Float mutants (test_mutants.py) that fail each line:
    x_psi (1 + delta) the agreement, z (1 + delta) the block.  Blind to
    k_nu_complement_basis[0] (1 + delta): any complement of k_nu gives a
    valid frame.
    """
    base = _Deviations()

    def identities(indices, point, frame, gram_x):
        if indices[0] == 0:
            target = np.array([[0.0, -2.0 / PI], [2.0 / PI, 0.0]])
            base.add(indices[:1], _max_abs(gram_x[:1, :2, :2] - target))
        return {"Gram agreement": _max_abs(gram_x - kks_gram(num, point, frame))}

    devs = _run(num, samples, seed, identities, 4.0,
                lambda gram: np.linalg.matrix_rank(gram, tol=1e-10) < len(gram),
                "degenerate frame")
    base.events = devs.events
    return [
        _report(
            "beta_symplectic", samples, devs, tol, seed,
            "entrywise Gram agreement",
        ),
        _report(
            "beta_base_block", 1, base, BASE_BLOCK_TOL, seed,
            "distinguished block vs [[0, -2/pi], [2/pi, 0]]",
        ),
    ]


def nilpotent_of(num: ModelNumerics, point: OrbitPointParam) -> np.ndarray:
    """The correspondence image of a realized cone point, t Ad k (e)."""
    return _scale(point.t, point.element.ad(num.e))


def _norm(num: ModelNumerics, X: np.ndarray) -> np.ndarray:
    return np.sqrt(num.hermitian_pairing(X, X).real)


def ks_correspondence_check(
    num: ModelNumerics,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> list[CheckItem]:
    """Unit-sphere slicing, |u| = |b(u)| = t, and well-definedness under
    isotropy factors of the correspondence u = t Ad(k) v -> t Ad(k) e.  Float
    mutants that fail each: v (1 + delta), e (1 + delta), then su21's and
    sp4R's isotropy_basis[0] + delta k_last."""

    def identities(indices, point, frame, gram):
        t, u, b_u = point.t, realize(num, point), nilpotent_of(num, point)
        dev = {
            "unit-sphere slicing of u": np.abs(_norm(num, u) - t),
            "unit-sphere slicing of b(u)": np.abs(_norm(num, b_u) - t),
        }
        # eta centralizes both v and e
        if (num.k_nu_basis and len(num.center_k_basis) < len(num.k_nu_basis)
                and num.isotropy_basis):
            eta = _normals(draw(seed, indices, ISOTROPY, 2 * len(num.isotropy_basis)))
            iso = GroupElement([num.span(eta, num.isotropy_basis)])
            repar = OrbitPointParam(point.element * iso, t)
            dev["well-definedness of u"] = _max_abs(realize(num, repar) - u)
            dev["well-definedness of b(u)"] = _max_abs(nilpotent_of(num, repar) - b_u)
        return dev

    devs = _run(num, samples, seed, identities)
    return [_report("ks_correspondence", samples, devs, tol, seed)]


def _poisson_gradients(num: ModelNumerics, u0, b0, directions, w, x, y) -> np.ndarray:
    """Gradients of r, phi_x, s~, r phi_x and r phi_y (rows) along the frame
    curves through (u0, b0) (columns), from the curves' exact tangents at
    h = 0: (-2 u0, -2 b0) for the doubled radial curve and (-[a, u0], -[a, b0])
    for the transport by exp(-h a) along each group direction a, since
    d/dh Ad(exp(-h a)) X = -[a, X].  Stacked: (S, 5, m) for S samples.

    Every test function is real-linear in the tangent or follows from one
    that is, so each row is one contraction tr(T Q), which is
    tr(a [Q, u0]) on a transport tangent: no tangent is formed.
    """

    def along_frame(X, Q):
        # tr(T_k Q_f) over the tangents T_k of X and a stack of Q_f
        X = X[..., None, :, :]
        return np.concatenate(
            [-2 * trace_pairs(X, Q), trace_pairs(directions, Q @ X - X @ Q)], axis=-2
        )

    # P(X, Y) = -c tr(X sigma_u(Y)) is Hermitian: P(w, T) = conj P(T, w)
    sig = np.stack([num.sigma_u(u0), num.sigma_u(w)], axis=-3)
    pair = -num.c * along_frame(u0, sig)
    # the projection onto k is B-self-adjoint: B(k(T), x) = B(T, k(x))
    kxy = np.stack([num.k_component(x), num.k_component(y)], axis=-3)
    rphi = (num.c / PI) * along_frame(b0, kxy).real
    # r = sqrt(Re P(u, u)): dr = Re(P(T, u0) + P(u0, T)) / 2 r0 = Re P(T, u0) / r0
    r0 = _norm(num, u0)[..., None]
    d_r = pair[..., 0].real / r0
    phi_x = num.B(kxy[..., 0, :, :], b0).real[..., None] / (PI * r0)
    d_phi_x = (rphi[..., 0] - phi_x * d_r) / r0
    return np.stack(
        [d_r, d_phi_x, pair[..., 1].conj(), rphi[..., 0], rphi[..., 1]], axis=-2
    )


def _poisson_bracket(gram: np.ndarray, grads_f: np.ndarray, grads_g: np.ndarray):
    """Brackets {f_i, g_j} = grad f_i . gram^-1 . grad g_j of stacked
    gradients, from one factorization of each Gram."""
    return grads_f @ np.linalg.solve(gram, grads_g.swapaxes(-1, -2))


def poisson_identities_check(
    num: ModelNumerics,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> list[CheckItem]:
    """Verification of the Poisson-bracket identities from exact tangents.

    At each sample the induced Gram is factored once and contracted against
    the exact tangent derivatives of the test functions along the frame
    curves (`_poisson_gradients`).  The asserted identities: the radial
    coordinate Poisson-commutes with pulled-back functions and acts as
    2 pi i on equivariant sections; momentum functions close under bracket;
    bracketing a momentum function against a section is the group derivative.
    An ill-conditioned base Gram leaves no sample accepted, and the check
    fails.  Float mutants on su21 that fail each, in that order: e + delta
    k_0, v + delta p_last, e (1 + delta), sigma (1 + delta).  Blind to
    p_basis[-1] + delta k: a section pairs w with points of p_C, orthogonal
    to k.
    """

    def identities(indices, point, frame, gram):
        u0 = realize(num, point)
        b0 = nilpotent_of(num, point)
        k, p = num.k_basis, num.p_basis
        coeffs = 0.8 * _normals(draw(seed, indices, TEST_FUNCTIONS, 4 * len(k + p)))
        x, y, re, im = np.split(coeffs, np.cumsum([len(k), len(k), len(p)]), axis=1)
        x, y, w = num.span(x, k), num.span(y, k), num.span(re + 1j * im, p)
        grads = _poisson_gradients(num, u0, b0, frame[:, 1:], w, x, y)
        br = _poisson_bracket(gram, grads, grads)
        r, phi_x, sec, rphi_x, rphi_y = range(5)
        sides = {
            "[r, phi~] = 0": (br[:, r, phi_x], 0.0),
            "[r, s~] = 2 pi i s~": (br[:, r, sec], 2j * PI * num.hermitian_pairing(w, u0)),
            "momentum closure": (br[:, rphi_x, rphi_y],
                                 num.B(num.k_component(b0), num.bracket(x, y)).real / PI),
            "section group derivative":
                (br[:, rphi_x, sec], -num.hermitian_pairing(w, num.bracket(x, u0))),
        }
        return {
            name: np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            for name, (lhs, rhs) in sides.items()
        }

    devs = _run(num, samples, seed, identities, 2.0,
                lambda gram: np.linalg.cond(gram) > COND_LIMIT, "ill-conditioned Gram")
    return [_report(
        "poisson_identities", samples, devs, tol, seed,
        "relative deviations; closed-form class",
    )]


def moment_cone_check(
    num: ModelNumerics,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> list[CheckItem]:
    """Compact-projection spectra of orbit points against the model ray.

    The compact component of any adjoint image of the nilpositive element
    must have the spectrum of a positive multiple of z, the multiple being
    fixed by the invariant-form norm ratio.  For restricted rank one the
    spectral-plus-central test decides membership in the cone over the
    compact orbit; otherwise it is necessary only and labeled as such.
    Float mutants that fail each: e + delta x_psi the unipotent factor,
    sp4R's e + delta p_last the spectrum, su21's center_k_basis[0] + delta
    k_last the central pairing.  Blind to a_basis (1 + delta): a
    reparametrized draw.
    """
    rank_one = len(num.a_basis) == 1
    z = num.z
    Bzz = num.B(z, z).real

    def sorted_spectrum(X):
        # compact elements have purely imaginary spectrum; order by the
        # imaginary part so float noise in the real parts cannot reshuffle
        eig = np.linalg.eigvals(X)
        order = np.argsort(eig.imag, axis=-1, kind="stable")
        return np.take_along_axis(eig, order, axis=-1)

    eig_z = sorted_spectrum(z)
    da = len(num.a_basis)

    def identities(indices, point, frame, gram):
        # g = k a n with k the sample's point; g = 1 for sample 0, so f = e there
        coeffs = _normals(draw(seed, indices, FACTOR, 2 * (da + len(num.n_basis))))
        coeffs[indices == 0] = 0.0
        a = GroupElement([num.span(0.5 * coeffs[:, :da], num.a_basis)])
        unipotent = GroupElement([num.span(0.7 * coeffs[:, da:], num.n_basis)])
        f = nilpotent_of(num, OrbitPointParam(point.element * a * unipotent))
        kc = num.k_component(f)
        s = np.sqrt(num.B(kc, kc).real / Bzz)
        # eigvals refuses a NaN anywhere in the stack: such a sample deviates by NaN
        finite = np.isfinite(kc).all(axis=(-2, -1))
        eig = np.full(kc.shape[:-1], np.nan, dtype=complex)
        eig[finite] = sorted_spectrum(kc[finite])
        dev = {
            "unipotent factor fixes e": _max_abs(unipotent.ad(num.e) - num.e),
            "spectrum of s z": np.max(np.abs(eig - s[:, None] * eig_z), axis=-1),
        }
        if rank_one:
            for i, c0 in enumerate(num.center_k_basis):
                dev[f"central pairing {i}"] = np.abs(
                    num.B(kc, c0).real - s * num.B(z, c0).real)
        return dev

    devs = _run(num, samples, seed, identities)
    label = "full membership (restricted rank 1)" if rank_one else (
        "spectral test only: necessary, not sufficient"
    )
    return [_report("moment_cone", samples, devs, tol, seed, label)]
