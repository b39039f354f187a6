"""Distinguished sl2-triples and their Cayley transforms, verified exactly.

e is the first vector of the highest root space g_psi at H-norm 1; as
H(x, x) = c tr(x x^*) > 0 for x != 0, only an irrational norm stops that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..exactla import I, GaussianRational, exact_sqrt
from .families import ModelError
from .model import Coords, LieAlgebraModel
from .restricted import RestrictedRootDatum


HALF = GaussianRational(1, 0, 2)


@dataclass
class STriple:
    """(x, e, f) with [x,e] = 2e, [x,f] = -2f, [e,f] = x and f = -theta(e); the
    owner of the isotropy algebra of e, which the centralizer and ks checks read."""

    model: LieAlgebraModel
    x: Coords
    e: Coords
    f: Coords

    @cached_property
    def isotropy(self) -> list[Coords]:
        """Cent_k(e), solved on first use."""
        return self.model.centralizer_in_span([self.e], self.model.k_units)


@dataclass
class CayleyTriple:
    """Rotated triple (h, v, w) with h compact and v, w in the complexified p."""

    model: LieAlgebraModel
    h: Coords
    v: Coords
    w: Coords
    source: STriple


def make_s_triple(model: LieAlgebraModel, datum: RestrictedRootDatum) -> STriple:
    """The triple from the first vector of the psi root space, at H-norm 1."""
    e = datum.root_spaces[datum.psi][0]
    norm2 = model.H(e, e)
    root = exact_sqrt(norm2)
    if root is None:
        raise ModelError(f"{model.form_id}: psi-space vector has irrational norm {norm2}")
    e = [x / root for x in e]
    f = [-x for x in model.theta(e)]
    triple = STriple(model=model, x=list(datum.x_psi), e=e, f=f)
    problems = s_triple_violations(triple)
    if problems:
        raise ModelError(f"{model.form_id}: invalid S-triple: {problems}")
    return triple


def s_triple_violations(t: STriple) -> list[str]:
    model = t.model
    identities = [
        (model.bracket(t.x, t.e) == [2 * v for v in t.e], "[x,e] != 2e"),
        (model.bracket(t.x, t.f) == [-2 * v for v in t.f], "[x,f] != -2f"),
        (model.bracket(t.e, t.f) == t.x, "[e,f] != x"),
        (t.f == [-v for v in model.theta(t.e)], "f != -theta(e)"),
        (model.B(t.e, model.theta(t.e)) == -1, "B(e, theta e) != -1"),
    ]
    return [problem for holds, problem in identities if not holds]


def cayley_transform(striple: STriple) -> CayleyTriple:
    model = striple.model
    x, e, f = striple.x, striple.e, striple.f
    h = [I * (a - b) for a, b in zip(e, f)]
    v = [HALF * (I * xa + ea + fa) for xa, ea, fa in zip(x, e, f)]
    w = [HALF * (-(I * xa) + ea + fa) for xa, ea, fa in zip(x, e, f)]
    triple = CayleyTriple(model=model, h=h, v=v, w=w, source=striple)
    problems = cayley_violations(triple)
    if problems:
        raise ModelError(f"{model.form_id}: invalid Cayley triple: {problems}")
    return triple


def cayley_violations(ct: CayleyTriple) -> list[str]:
    model = ct.model
    h, v, w = ct.h, ct.v, ct.w
    # the round trip back to the source triple
    x_back = [-(I * (a - b)) for a, b in zip(v, w)]
    e_back = [HALF * (-(I * a) + b + c) for a, b, c in zip(h, v, w)]
    f_back = [HALF * ((I * a) + b + c) for a, b, c in zip(h, v, w)]
    identities = [
        (model.bracket(h, v) == [2 * a for a in v], "[h,v] != 2v"),
        (model.bracket(h, w) == [-2 * a for a in w], "[h,w] != -2w"),
        (model.bracket(v, w) == h, "[v,w] != h"),
        (x_back == ct.source.x, "round trip lost x"),
        (e_back == ct.source.e, "round trip lost e"),
        (f_back == ct.source.f, "round trip lost f"),
        (model.theta(h) == h, "h not in complexified k"),
        (model.theta(v) == [-a for a in v], "v not in complexified p"),
        (model.theta(w) == [-a for a in w], "w not in complexified p"),
        (model.B(v, w) == 1, "B(v,w) != 1"),
        (model.B(h, h) == 2, "B(h,h) != 2"),
        ([-a for a in model.sigma_u(v)] == w, "w != -sigma_u(v)"),
        (model.H(v, v) == 1, "{v,v} != 1"),
    ]
    return [problem for holds, problem in identities if not holds]


def compact_partner(ct: CayleyTriple) -> Coords:
    """The real compact element z = e + theta(e) = -i h."""
    return [a - b for a, b in zip(ct.source.e, ct.source.f)]
