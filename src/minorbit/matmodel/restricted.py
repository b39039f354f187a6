"""Restricted root decomposition of a matrix model.

The root datum of the torus a on g comes from
:meth:`~.model.LieAlgebraModel.torus_roots`, the routine that also gives the
roots of k: the root spaces (exact joint eigenspaces of ad a_1, ..., ad a_r),
the positive and simple roots under the model's positivity key, and the trace
duals of the roots.  Root classes and the highest root come from the routines
of :mod:`minorbit.rootsys`, computed once per datum.  The highest root, its
coroot element, and the normalization of the invariant form all come out as
real Gaussian rationals.

The datum checks the zero space m + a, the split of the roots, the simple
roots, negation symmetry, Cent n = g_psi and the values on x_psi.  The rest
holds by construction: the root spaces fill g, or ``joint_eigenspaces``
raises; x_psi, the multiple of the trace dual of psi with psi(x_psi) = 2, is
trace-orthogonal to ker psi; and c = 2 / tr(x_psi^2), positive as x_psi != 0
lies in p, gives B(x_psi, x_psi) = 2.
"""

from __future__ import annotations

from collections import Counter
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

    def root_value(self, root: Root, a_coords: Coords) -> GaussianRational:
        """Evaluate the root functional on an element of a."""
        return sum(r * a_coords[idx] for r, idx in zip(root, self.model.a_indices))

    def class_mults(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for root, key in self.classes.items():
            m = len(self.root_spaces[root])
            if out.setdefault(key, m) != m:
                raise ModelError(
                    f"{self.model.form_id}: inconsistent multiplicity in class {key}"
                )
        return out

    def class_counts(self) -> dict[str, int]:
        return dict(Counter(self.classes.values()))

    def pairing_with_psi(self, root: Root) -> GaussianRational:
        """Value of the root on x_psi, an integer in -2..2."""
        return self.root_value(root, self.x_psi)


def restricted_root_datum(model: LieAlgebraModel) -> RestrictedRootDatum:
    zero_space, root_spaces, positive, simple, dual = model.torus_roots(
        model.a_units, model.units, key=model.positivity_key)
    if len(zero_space) != model.dim_m + model.dim_a:
        raise ModelError(f"{model.form_id}: zero weight space is not m + a")
    if 2 * len(positive) != len(root_spaces):
        raise ModelError(f"{model.form_id}: positivity did not split the roots")

    # the highest root, from the simple-root coefficients of the positive roots
    if not len(simple) == exactla.rank(simple) == model.dim_a:
        raise ModelError(f"{model.form_id}: simple roots are not a basis of a*")
    simple_cols = [[s[i] for s in simple] for i in range(model.dim_a)]
    try:
        psi = highest_root({r: exactla.solve(simple_cols, list(r)) for r in positive})
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
    c = 2 / model._tr_form(x_psi, x_psi)
    if model.c is None:
        model.c = c
    elif model.c != c:
        raise ModelError(f"{model.form_id}: inconsistent normalization {c} vs {model.c}")

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
    # negation symmetry of the root set with matching multiplicities
    for r in datum.root_spaces:
        neg = tuple(-x for x in r)
        if neg not in datum.root_spaces:
            raise ModelError(f"{model.form_id}: roots not closed under negation")
        if len(datum.root_spaces[r]) != len(datum.root_spaces[neg]):
            raise ModelError(f"{model.form_id}: asymmetric multiplicities")
    # the center of n is exactly the psi root space (computed independently)
    n_ops = [model.ad_matrix(v) for v in datum.n_basis]
    cent_n = model.kernel_in_span(n_ops, datum.n_basis)
    psi_space = datum.root_spaces[datum.psi]
    if len(cent_n) != len(psi_space) or not exactla.same_span(cent_n, psi_space):
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
    model = datum.model
    return len(model.kernel_in_span([model.ad_matrix(e)], model.units))
