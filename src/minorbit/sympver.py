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

Shared values are computed once, at the widest scope where they are the same
value, and reused by the very same float operations, so every deviation is
bit-identical to recomputing them:

* per form, the isotropy basis of e in k (``ModelNumerics.isotropy_basis``,
  solved exactly on first use);
* per frame, the pair brackets [d_j, d_i] and the rank test of the
  directions (`FramePairs`), shared by the induced Gram and both coadjoint
  Grams of a beta sample;
* per sample, the group exponentials (`GroupElement`: points derived from a
  sample share one element, and products reuse their factors'
  exponentials);
* per Poisson sample, the stacked frame-curve tangents, against which each
  of the five test-function gradients is one contraction, and one
  factorization of the induced Gram, shared by all five identities.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .numeric import GroupElement, ModelNumerics
from .report import GramReport

PI = math.pi
COND_LIMIT = 1e8

DEFAULT_TOL_CLOSED = 1e-9
# no check defaults to it; perfbench/worker.py reads it as poisson's tolerance
DEFAULT_TOL_FD = 1e-6


@dataclass
class OrbitPointParam:
    """A sampled point: group part as exp-factors in k, plus a scale t > 0.

    The group element is built once; points derived with
    ``dataclasses.replace`` or `at` share it and its exponentials.
    """

    k_factors: list[np.ndarray] = field(default_factory=list)
    t: float = 1.0
    side: str = "Xtilde"  # Xtilde | Z | E | O
    element: GroupElement | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.element is None:
            self.element = GroupElement(list(self.k_factors))

    @classmethod
    def at(cls, element: GroupElement, t: float, side: str) -> OrbitPointParam:
        """The point with group part ``element``, which it shares."""
        return cls(element.factors, t, side, element)

    def group(self) -> GroupElement:
        return self.element


class FramePairs:
    """Directions d_0..d_{m-1} with their pair brackets and rank test.

    Each bracket [d_j, d_i] and the independence test are computed once, on
    first use, and shared by every Gram assembled over these directions.
    """

    def __init__(self, directions: list[np.ndarray]):
        self.directions = directions
        self._brackets: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def independent(self) -> bool:
        stacked = np.array([d.ravel() for d in self.directions])
        return np.linalg.matrix_rank(stacked, tol=1e-10) >= len(self.directions)

    def bracket(self, i: int, j: int) -> np.ndarray:
        """[d_j, d_i]."""
        key = (i, j)
        if key not in self._brackets:
            dj, di = self.directions[j], self.directions[i]
            self._brackets[key] = dj @ di - di @ dj
        return self._brackets[key]


@dataclass
class TangentFrame:
    """Transported frame at a sample: group directions plus the radial one."""

    base: OrbitPointParam
    k_directions: list[np.ndarray]  # elements of k, already transported
    radial_partner: np.ndarray | None = None  # transported x_psi on the orbit side

    def size(self) -> int:
        return len(self.k_directions) + 1

    @cached_property
    def pairs(self) -> FramePairs:
        """The radial partner, then the group directions, as `FramePairs`."""
        return FramePairs([self.radial_partner] + list(self.k_directions))


def realize(num: ModelNumerics, point: OrbitPointParam) -> np.ndarray:
    """Matrix realizing the point on its side."""
    g = point.group()
    if point.side == "E":
        return point.t * g.ad(num.v)
    if point.side == "O":
        return point.t * g.ad(num.e)
    if point.side == "Z":
        return (point.t / PI) * g.ad(num.e)
    raise ValueError(f"side {point.side!r} has no matrix realization")


def standard_frame(num: ModelNumerics, point: OrbitPointParam) -> TangentFrame:
    """Radial direction, then the z direction, then a basis transverse to the
    isotropy, all transported by the group part of the point."""
    g = point.group()
    dirs = [g.ad(num.z)] + [g.ad(x) for x in num.k_nu_perp_basis]
    return TangentFrame(
        base=point, k_directions=dirs, radial_partner=g.ad(num.x_psi)
    )


def kks_gram(
    num: ModelNumerics, point: OrbitPointParam, directions: list[np.ndarray]
) -> np.ndarray:
    """Canonical-form pairings <rho, [x_j, x_i]> at a realized orbit point."""
    return _kks_gram(num, point, FramePairs(directions))


def _kks_gram(num: ModelNumerics, point: OrbitPointParam, pairs: FramePairs):
    if point.side != "Z":
        raise ValueError("kks_gram expects a point on the coadjoint side")
    if not pairs.independent:
        raise ValueError("rank-deficient frame: directions are linearly dependent")
    F = realize(num, point)
    m = len(pairs.directions)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            val = num.B(F, pairs.bracket(i, j))
            out[i, j] = val.real
            out[j, i] = -val.real
    return out


def coadjoint_frame_gram(
    num: ModelNumerics, point: OrbitPointParam, frame: TangentFrame
) -> np.ndarray:
    """KKS Gram in the frame (radial partner first, then group directions)."""
    return _kks_gram(num, point, frame.pairs)


def induced_gram(
    num: ModelNumerics, point: OrbitPointParam, frame: TangentFrame
) -> np.ndarray:
    """Induced-form pairings in the frame, from the compact-side closed forms.

    Row and column 0 belong to the doubled inward radial direction; entry
    (0, j) is 2t <k.nu, a_j> and the group block is t <k.nu, [a_j, a_i]>.
    """
    g = point.group()
    t = point.t
    zk = g.ad(num.z)
    m = frame.size()
    out = np.zeros((m, m))
    for i, a in enumerate(frame.k_directions, start=1):
        val = (t / PI) * num.B(zk, a).real
        out[0, i] = val
        out[i, 0] = -val
    for i in range(1, m):
        for j in range(i + 1, m):
            val = (t / (2 * PI)) * num.B(zk, frame.pairs.bracket(i, j)).real
            out[i, j] = val
            out[j, i] = -val
    return out


def _sample_point(num: ModelNumerics, rng, t_range=(0.25, 4.0)) -> OrbitPointParam:
    kappa = num.sample_k(rng, scale=0.7)
    log_lo, log_hi = math.log(t_range[0]), math.log(t_range[1])
    t = math.exp(rng.uniform(log_lo, log_hi))
    return OrbitPointParam(k_factors=[kappa], t=t, side="Xtilde")


def _worst(acc: float, *devs) -> float:
    """Running maximum of deviations that keeps a NaN, which max() drops."""
    for dev in devs:
        dev = float(dev)
        if dev > acc or math.isnan(dev):
            acc = dev
    return acc


def _rng(seed: int, index: int, *extra: int):
    return np.random.default_rng([seed & 0xFFFFFFFF, index, *extra])


BASE_BLOCK_TOL = 1e-12


def verify_beta_symplectic(
    num: ModelNumerics,
    samples: int = 100,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> list[GramReport]:
    """Entrywise agreement of the induced and coadjoint Grams at seeded points.

    Sample 0 is always the base point, where the distinguished radial/z block
    must match [[0, -2/pi], [2/pi, 0]] to near machine precision (reported
    separately at its own tolerance).  The coadjoint-side scaling law is
    verified on an independent factor per sample.  A record whose samples
    were all rejected fails: it has tested nothing.
    """
    start = time.perf_counter()
    events: list[str] = []
    accepted: list[int] = []
    max_dev = 0.0
    base_block_dev = 0.0
    for index in range(samples):
        rng = _rng(seed, index)
        for attempt in range(4):
            if index == 0:
                point = OrbitPointParam(k_factors=[], t=1.0, side="Xtilde")
            else:
                point = _sample_point(num, _rng(seed, index, attempt))
            frame = standard_frame(num, point)
            gram_x = induced_gram(num, point, frame)
            if np.linalg.matrix_rank(gram_x, tol=1e-10) < frame.size():
                events.append(f"sample {index}: degenerate frame, resampled")
                continue
            break
        else:
            events.append(f"sample {index}: frame degenerate after retries")
            continue
        accepted.append(index)
        z_point = replace(point, side="Z")
        gram_z = coadjoint_frame_gram(num, z_point, frame)
        dev = float(np.max(np.abs(gram_x - gram_z)))
        max_dev = _worst(max_dev, dev)
        if index == 0:
            block = gram_x[:2, :2]
            target = np.array([[0.0, -2.0 / PI], [2.0 / PI, 0.0]])
            base_block_dev = float(np.max(np.abs(block - target)))
        # coadjoint-side scaling law on an independent factor
        s = float(math.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        scaled = replace(point, t=point.t * s, side="Z")
        gram_scaled = coadjoint_frame_gram(num, scaled, frame)
        max_dev = _worst(max_dev, float(np.max(np.abs(gram_scaled - s * gram_z))))
    elapsed = time.perf_counter() - start
    return [
        GramReport(
            check_name="beta_symplectic",
            sample_count=samples,
            max_abs_deviation=max_dev,
            tolerance=tol,
            passed=bool(accepted) and max_dev <= tol,
            seed=seed,
            elapsed=elapsed,
            detail="entrywise Gram agreement plus coadjoint scaling law"
            + ("" if accepted else "; no sample accepted"),
            events=events,
        ),
        GramReport(
            check_name="beta_base_block",
            sample_count=1,
            max_abs_deviation=base_block_dev,
            tolerance=BASE_BLOCK_TOL,
            passed=accepted[:1] == [0] and base_block_dev <= BASE_BLOCK_TOL,
            seed=seed,
            elapsed=0.0,
            detail="distinguished block vs [[0, -2/pi], [2/pi, 0]]",
        ),
    ]


def nilpotent_of(num: ModelNumerics, point: OrbitPointParam) -> np.ndarray:
    """The correspondence image of a realized cone point, t Ad k (e)."""
    return point.t * point.group().ad(num.e)


def ks_correspondence_check(
    num: ModelNumerics,
    samples: int = 100,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> GramReport:
    """Unit-sphere slicing, homogeneity, and well-definedness of the
    correspondence between extremal-weight points and nilpotent points."""
    start = time.perf_counter()
    max_dev = 0.0
    events: list[str] = []
    for index in range(samples):
        rng = _rng(seed, index)
        if index == 0:
            point = OrbitPointParam(k_factors=[], t=1.0, side="E")
        else:
            point = _sample_point(num, rng)
            point.side = "E"
        u = realize(num, point)
        t = point.t
        norm_u = math.sqrt(num.hermitian_pairing(u, u).real)
        max_dev = _worst(max_dev, float(abs(norm_u - t)))
        b_u = nilpotent_of(num, point)
        norm_b = math.sqrt(num.hermitian_pairing(b_u, b_u).real)
        max_dev = _worst(max_dev, float(abs(norm_b - t)))
        if index == 0:
            max_dev = _worst(max_dev, float(np.max(np.abs(b_u - num.e))))
        # equivariance on a composed sample
        kappa2 = num.sample_k(rng, scale=0.7)
        g2 = GroupElement([kappa2])
        moved = OrbitPointParam.at(g2 * point.group(), t, side="E")
        dev_eq = float(np.max(np.abs(nilpotent_of(num, moved) - g2.ad(b_u))))
        max_dev = _worst(max_dev, dev_eq)
        # homogeneity
        s = float(math.exp(rng.uniform(-1.0, 1.0)))
        scaled = replace(point, t=s * t)
        max_dev = _worst(
            max_dev, float(np.max(np.abs(nilpotent_of(num, scaled) - s * b_u)))
        )
        # well-definedness across isotropy factors: eta centralizes both v and e
        if num.k_nu_basis and len(num.center_k_basis) < len(num.k_nu_basis):
            iso = _isotropy_sample(num, rng)
            if iso is not None:
                repar = OrbitPointParam.at(
                    point.group() * GroupElement([iso]), t, side="E"
                )
                dev_pt = float(np.max(np.abs(realize(num, repar) - u)))
                dev_b = float(np.max(np.abs(nilpotent_of(num, repar) - b_u)))
                max_dev = _worst(max_dev, dev_pt, dev_b)
    return GramReport(
        check_name="ks_correspondence",
        sample_count=samples,
        max_abs_deviation=max_dev,
        tolerance=tol,
        passed=max_dev <= tol,
        seed=seed,
        elapsed=time.perf_counter() - start,
        events=events,
    )


def _isotropy_sample(num: ModelNumerics, rng) -> np.ndarray | None:
    """Random element of the isotropy algebra of v (equivalently of e)."""
    mats = num.isotropy_basis
    if not mats:
        return None
    coeffs = rng.standard_normal(len(mats))
    return sum(c * m for c, m in zip(coeffs, mats))


def _poisson_gradients(num: ModelNumerics, u0, b0, directions, w, x, y) -> np.ndarray:
    """Gradients of r, phi_x, s~, r phi_x and r phi_y (rows) along the frame
    curves through (u0, b0) (columns), from the curves' exact tangents at
    h = 0: (-2 u0, -2 b0) for the doubled radial curve and (-[a, u0], -[a, b0])
    for the transport by exp(-h a) along each group direction a, since
    d/dh Ad(exp(-h a)) X = -[a, X].

    Every test function is real-linear in the tangent or follows from one
    that is, so each row is one contraction over the stacked tangents.
    """
    A = np.array(directions)
    tan_u = np.concatenate([[-2 * u0], u0 @ A - A @ u0])
    tan_b = np.concatenate([[-2 * b0], b0 @ A - A @ b0])
    # P(X, Y) = -c tr(X sigma_u(Y)) is Hermitian: P(w, T) = conj P(T, w)
    sig = np.array([num.sigma_u(u0), num.sigma_u(w)])
    pair_u, pair_w = -num.c * np.einsum("kij,fji->fk", tan_u, sig)
    # the projection onto k is B-self-adjoint: B(k(T), x) = B(T, k(x))
    kxy = np.array([num.k_component(x), num.k_component(y)])
    rphi_x, rphi_y = (num.c / PI) * np.einsum("kij,fji->fk", tan_b, kxy).real
    # r = sqrt(Re P(u, u)): dr = Re(P(T, u0) + P(u0, T)) / 2 r0 = Re P(T, u0) / r0
    r0 = math.sqrt(num.hermitian_pairing(u0, u0).real)
    d_r = pair_u.real / r0
    phi_x = num.B(kxy[0], b0).real / (PI * r0)
    d_phi_x = (rphi_x - phi_x * d_r) / r0
    return np.array([d_r, d_phi_x, pair_w.conj(), rphi_x, rphi_y])


def _poisson_bracket(gram: np.ndarray, grads_f: np.ndarray, grads_g: np.ndarray):
    """Brackets {f_i, g_j} = grad f_i . gram^-1 . grad g_j of stacked
    gradients, from one factorization of the Gram."""
    return grads_f @ np.linalg.solve(gram, grads_g.T)


def poisson_identities_check(
    num: ModelNumerics,
    samples: int = 50,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> GramReport:
    """Verification of the Poisson-bracket identities from exact tangents.

    At each sample the induced Gram is factored once and contracted against
    the exact tangent derivatives of the test functions along the frame
    curves (`_poisson_gradients`).  The asserted identities: the radial
    coordinate Poisson-commutes with pulled-back functions and acts as
    2 pi i on equivariant sections; momentum functions close under bracket;
    bracketing a momentum function against a section is the group derivative.
    The check fails when every sample was rejected.
    """
    start = time.perf_counter()
    accepted = 0
    max_rel = 0.0
    events: list[str] = []
    for index in range(samples):
        rng = _rng(seed, index)
        for attempt in range(4):
            point = (
                OrbitPointParam(k_factors=[], t=1.0, side="Xtilde")
                if index == 0
                else _sample_point(num, _rng(seed, index, attempt), t_range=(0.5, 2.0))
            )
            frame = standard_frame(num, point)
            gram = induced_gram(num, point, frame)
            if np.linalg.cond(gram) > COND_LIMIT:
                events.append(f"sample {index}: ill-conditioned Gram, resampled")
                continue
            break
        else:
            events.append(f"sample {index}: no well-conditioned sample found")
            continue
        accepted += 1
        g = point.group()
        u0 = point.t * g.ad(num.v)
        b0 = point.t * g.ad(num.e)
        x = num.sample_k(rng, scale=0.8)
        y = num.sample_k(rng, scale=0.8)
        w = num.sample_pc(rng, scale=0.8)
        grads = _poisson_gradients(num, u0, b0, frame.k_directions, w, x, y)
        br = _poisson_bracket(gram, grads, grads)
        r, phi_x, sec, rphi_x, rphi_y = range(5)
        identities = (
            # [r, r] = 0 and [r, phi~] = 0
            (br[r, r], 0.0),
            (br[r, phi_x], 0.0),
            # [r, s~] = 2 pi i s~
            (br[r, sec], 2j * PI * num.hermitian_pairing(w, u0)),
            # momentum functions close under bracket
            (br[rphi_x, rphi_y],
             num.B(num.k_component(b0), num.bracket(x, y)).real / PI),
            # bracketing against a section is the group derivative
            (br[rphi_x, sec], -num.hermitian_pairing(w, num.bracket(x, u0))),
        )
        for lhs, rhs in identities:
            max_rel = _worst(
                max_rel, float(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
            )
    return GramReport(
        check_name="poisson_identities",
        sample_count=samples,
        max_abs_deviation=max_rel,
        tolerance=tol,
        passed=accepted > 0 and max_rel <= tol,
        seed=seed,
        elapsed=time.perf_counter() - start,
        detail="relative deviations; closed-form class"
        + ("" if accepted else "; no sample accepted"),
        events=events,
    )


def moment_cone_check(
    num: ModelNumerics,
    samples: int = 200,
    tol: float = DEFAULT_TOL_CLOSED,
    seed: int = 42,
) -> GramReport:
    """Compact-projection spectra of orbit points against the model ray.

    The compact component of any adjoint image of the nilpositive element
    must have the spectrum of a positive multiple of z, the multiple being
    fixed by the invariant-form norm ratio.  For restricted rank one the
    spectral-plus-central test decides membership in the cone over the
    compact orbit; otherwise it is necessary only and labeled as such.
    """
    start = time.perf_counter()
    max_dev = 0.0
    events: list[str] = []
    rank_one = len(num.a_basis) == 1
    z = num.z
    Bzz = num.B(z, z).real

    def sorted_spectrum(X):
        # compact elements have purely imaginary spectrum; order by the
        # imaginary part so float noise in the real parts cannot reshuffle
        eig = np.linalg.eigvals(X)
        return eig[np.argsort(eig.imag, kind="stable")]

    eig_z = sorted_spectrum(z)
    for index in range(samples):
        rng = _rng(seed, index)
        if index == 0:
            f = num.e.copy()
        else:
            kappa = num.sample_k(rng, scale=0.7)
            alpha = num.sample_span(rng, num.a_basis, scale=0.5)
            nelt = num.sample_span(rng, num.n_basis, scale=0.7)
            unipotent = GroupElement([nelt])
            g = GroupElement([kappa, alpha]) * unipotent
            f = g.ad(num.e)
            # the nilpositive element is fixed by the unipotent factor
            max_dev = _worst(
                max_dev, float(np.max(np.abs(unipotent.ad(num.e) - num.e)))
            )
        kc = num.k_component(f)
        s = math.sqrt(num.B(kc, kc).real / Bzz)
        if index == 0:
            max_dev = _worst(max_dev, float(np.max(np.abs(kc - z / 2.0))))
        eig = sorted_spectrum(kc)
        max_dev = _worst(max_dev, float(np.max(np.abs(eig - s * eig_z))))
        if rank_one:
            for c0 in num.center_k_basis:
                max_dev = _worst(
                    max_dev,
                    float(abs(num.B(kc, c0).real - s * num.B(z, c0).real)),
                )
            if len(num.k_basis) == 1:
                max_dev = _worst(max_dev, float(np.max(np.abs(kc - s * z))))
    label = "full membership (restricted rank 1)" if rank_one else (
        "spectral test only: necessary, not sufficient"
    )
    return GramReport(
        check_name="moment_cone",
        sample_count=samples,
        max_abs_deviation=max_dev,
        tolerance=tol,
        passed=max_dev <= tol,
        seed=seed,
        elapsed=time.perf_counter() - start,
        detail=label,
        events=events,
    )
