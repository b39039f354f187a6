"""Restricted root decomposition of a matrix model.

The root datum of the torus a on g comes from
:meth:`~.model.LieAlgebraModel.torus_roots`, the routine that also gives the
roots of k: the root spaces (exact joint eigenspaces of ad a_1, ..., ad a_r),
the positive roots (those whose first nonzero value on the a basis is
positive), the simple roots, and the trace duals of the roots.  Every
positive system is W-conjugate to every other, so psi is determined up to W,
and Z = G e for e in g_psi, dim Z and every verdict do not depend on which
one this order picks (Knapp, *Lie Groups Beyond an Introduction*, ch. II
and VI).  Root classes and the highest root come from the routines of
:mod:`minorbit.rootsys`, computed once per datum.  The highest root, its
coroot element, and the normalization of the invariant form all come out as
real Gaussian rationals.

The datum checks the simple roots, Cent n = g_psi and the values on x_psi.
Cent n is solved against the simple root spaces only: they generate n
(Knapp, ch. VI), so their centralizer in n is Cent n, which holds g_psi as
psi is the highest root.  The rest holds by construction: the root spaces,
one of each +- pair solved and the other its sigma_u image, fill g, or
``joint_eigenspaces`` raises, so exactly one root of each pair has a positive
first nonzero value; theta is an automorphism and -1 on
a, so it maps g_lambda onto g_-lambda and preserves Cent_g(a) = m + Cent_p(a),
which is m + a as the model build checks Cent_p(a) = a; x_psi, the multiple
of the trace dual of psi with psi(x_psi) = 2, is trace-orthogonal to ker psi;
and c = 2 / tr(x_psi^2), positive as x_psi != 0 lies in p, gives
B(x_psi, x_psi) = 2, the same c for every datum of a model (psi is long).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import exactla
from ..exactla import ZERO, GaussianRational
from ..rootsys import RootSystemError, highest_root, root_classes
from .families import ModelError
from .model import Coords, LieAlgebraModel

Root = tuple[GaussianRational, ...]


@dataclass
class RestrictedRootDatum:
    model: LieAlgebraModel
    root_spaces: dict[Root, list[Coords]]
    positive_roots: list[Root]
    simple_roots: list[Root]
    psi: Root
    x_psi: Coords
    classes: dict[Root, str]  # length class of each root, see rootsys.root_classes
    n_basis: list[Coords] = field(default_factory=list)

    def class_mults(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for root, key in self.classes.items():
            m = len(self.root_spaces[root])
            if out.setdefault(key, m) != m:
                raise ModelError(
                    f"{self.model.form_id}: inconsistent multiplicity in class {key}"
                )
        return out

    def pairing_with_psi(self, root: Root) -> GaussianRational:
        """Value of the root on x_psi, an integer in -2..2."""
        return sum(r * self.x_psi[idx] for r, idx in zip(root, self.model.a_indices))


def restricted_root_datum(model: LieAlgebraModel) -> RestrictedRootDatum:
    _, root_spaces, positive, simple, dual = model.torus_roots(model.a_units, model.units)

    # the highest root, from the simple-root coefficients of the positive roots
    if len(simple) != model.dim_a or (inverse := exactla.inverse(
            [[s[i] for s in simple] for i in range(model.dim_a)])) is None:
        raise ModelError(f"{model.form_id}: simple roots are not a basis of a*")
    try:
        psi = highest_root({r: [sum((c * x for c, x in zip(row, r)), ZERO)
                                for row in inverse] for r in positive})
    except RootSystemError as exc:
        raise ModelError(f"{model.form_id}: {exc}") from exc

    # squared lengths and x_psi come from the trace duals of the roots; the
    # trace form on a is a block of the form on p, which is definite
    classes = root_classes(root_spaces, lambda r: sum(x * d for x, d in zip(r, dual[r])))
    # x_psi: the multiple of the trace-dual of psi with psi(x_psi) = 2
    factor = 2 / sum(p * d for p, d in zip(psi, dual[psi]))
    x_psi = [ZERO] * model.dim
    for coef, idx in zip(dual[psi], model.a_indices):
        x_psi[idx] = coef * factor
    # normalize the invariant form so that B(x_psi, x_psi) = 2
    model.c = 2 / model._tr_form(x_psi, x_psi)

    datum = RestrictedRootDatum(
        model=model,
        root_spaces=root_spaces,
        positive_roots=positive,
        simple_roots=simple,
        psi=psi,
        x_psi=x_psi,
        classes=classes,
        n_basis=[v for r in positive for v in root_spaces[r]],
    )
    _validate_datum(datum)
    return datum


def _validate_datum(datum: RestrictedRootDatum) -> None:
    model = datum.model
    # Cent n, the centralizer in n of the simple root spaces, is g_psi
    simple_spaces = [v for r in datum.simple_roots for v in datum.root_spaces[r]]
    cent_n = model.centralizer_in_span(simple_spaces, datum.n_basis)
    if not exactla.same_span(cent_n, datum.root_spaces[datum.psi]):
        raise ModelError(f"{model.form_id}: Cent n differs from the psi root space")
    # values of every root on x_psi lie in {-2,...,2}; only +-psi reach +-2
    for r in datum.root_spaces:
        val = datum.pairing_with_psi(r)
        if val.d != 1 or not -2 <= val <= 2:
            raise ModelError(f"{model.form_id}: root value {val} on x_psi out of range")
        if abs(val) == 2 and r not in (datum.psi, tuple(-x for x in datum.psi)):
            raise ModelError(f"{model.form_id}: non-extreme root has value +-2")


def eigenvalue_multiplicities(datum: RestrictedRootDatum) -> dict[int, int]:
    """Multiplicities of ad x_psi eigenvalues on g, computed from the datum."""
    m = {j: 0 for j in (-2, -1, 0, 1, 2)}
    for r, space in datum.root_spaces.items():
        m[int(datum.pairing_with_psi(r))] += len(space)
    m[0] += datum.model.dim_m + datum.model.dim_a
    return m


def kernel_ad_e_dimension(datum: RestrictedRootDatum, e: Coords) -> int:
    """dim of the centralizer of e in g, the model-side orbit-dimension oracle."""
    return len(datum.model.centralizer_in_span([e], datum.model.units))
