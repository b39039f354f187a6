"""Distinguished sl2-triples and their Cayley transforms, verified exactly."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .. import exactla
from ..exactla import QI, exact_sqrt
from .families import ModelError
from .model import Coords, LieAlgebraModel
from .restricted import RestrictedRootDatum


@dataclass
class STriple:
    """(x, e, f) with [x,e] = 2e, [x,f] = -2f, [e,f] = x and f = -theta(e)."""

    model: LieAlgebraModel
    x: Coords
    e: Coords
    f: Coords


@dataclass
class CayleyTriple:
    """Rotated triple (h, v, w) with h compact and v, w in the complexified p."""

    model: LieAlgebraModel
    h: list[QI]
    v: list[QI]
    w: list[QI]
    source: STriple


def unit_vectors_in_psi_space(datum: RestrictedRootDatum) -> list[Coords]:
    """H-orthonormal basis of the highest root space, exactly normalized."""
    model = datum.model
    span = datum.root_spaces[datum.psi]
    ortho = exactla.orthogonalize(span, model.H)
    out = []
    for vec in ortho:
        norm2 = model.H(vec, vec)
        if norm2 <= 0:
            raise ModelError(f"{model.form_id}: Hilbert pairing not positive")
        root = exact_sqrt(Fraction(norm2))
        if root is None:
            raise ModelError(
                f"{model.form_id}: psi-space vector has irrational norm {norm2}"
            )
        out.append([x / root for x in vec])
    return out


def make_s_triple(
    model: LieAlgebraModel,
    datum: RestrictedRootDatum,
    rotated: bool = False,
) -> STriple:
    """Build the triple from the first unit vector of the psi root space.

    ``rotated=True`` replaces e by the rational rotation (3e0 + 4e1)/5 inside
    the root space (requires dim >= 2); derived invariants must not change.
    """
    units = unit_vectors_in_psi_space(datum)
    if rotated:
        if len(units) < 2:
            raise ModelError(f"{model.form_id}: rotation needs dim g_psi >= 2")
        e = [
            (Fraction(3, 5) * a) + (Fraction(4, 5) * b)
            for a, b in zip(units[0], units[1])
        ]
    else:
        e = units[0]
    f = [-x for x in model.theta(e)]
    triple = STriple(model=model, x=list(datum.x_psi), e=e, f=f)
    problems = s_triple_violations(triple)
    if problems:
        raise ModelError(f"{model.form_id}: invalid S-triple: {problems}")
    return triple


def s_triple_violations(t: STriple) -> list[str]:
    model = t.model
    out = []
    if model.bracket(t.x, t.e) != [2 * v for v in t.e]:
        out.append("[x,e] != 2e")
    if model.bracket(t.x, t.f) != [-2 * v for v in t.f]:
        out.append("[x,f] != -2f")
    if model.bracket(t.e, t.f) != t.x:
        out.append("[e,f] != x")
    if t.f != [-v for v in model.theta(t.e)]:
        out.append("f != -theta(e)")
    if model.B(t.e, model.theta(t.e)) != -1:
        out.append("B(e, theta e) != -1")
    return out


def _to_qi(coords: Coords) -> list[QI]:
    return [QI.of(x) for x in coords]


def cayley_transform(striple: STriple) -> CayleyTriple:
    model = striple.model
    i = QI(0, 1)
    x = _to_qi(striple.x)
    e = _to_qi(striple.e)
    f = _to_qi(striple.f)
    h = [i * (a - b) for a, b in zip(e, f)]
    half = QI(Fraction(1, 2))
    v = [half * (i * xa + ea + fa) for xa, ea, fa in zip(x, e, f)]
    w = [half * (-(i * xa) + ea + fa) for xa, ea, fa in zip(x, e, f)]
    triple = CayleyTriple(model=model, h=h, v=v, w=w, source=striple)
    problems = cayley_violations(triple)
    if problems:
        raise ModelError(f"{model.form_id}: invalid Cayley triple: {problems}")
    return triple


def cayley_violations(ct: CayleyTriple) -> list[str]:
    model = ct.model
    i = QI(0, 1)
    h, v, w = ct.h, ct.v, ct.w
    out = []
    if model.bracket(h, v) != [2 * a for a in v]:
        out.append("[h,v] != 2v")
    if model.bracket(h, w) != [QI(-2) * a for a in w]:
        out.append("[h,w] != -2w")
    if model.bracket(v, w) != h:
        out.append("[v,w] != h")
    # round trip back to the source triple
    x_back = [-(i * (a - b)) for a, b in zip(v, w)]
    e_back = [QI(Fraction(1, 2)) * (-(i * a) + b + c) for a, b, c in zip(h, v, w)]
    f_back = [QI(Fraction(1, 2)) * ((i * a) + b + c) for a, b, c in zip(h, v, w)]
    if x_back != _to_qi(ct.source.x):
        out.append("round trip lost x")
    if e_back != _to_qi(ct.source.e):
        out.append("round trip lost e")
    if f_back != _to_qi(ct.source.f):
        out.append("round trip lost f")
    if model.theta(h) != h:
        out.append("h not in complexified k")
    if model.theta(v) != [-a for a in v]:
        out.append("v not in complexified p")
    if model.theta(w) != [-a for a in w]:
        out.append("w not in complexified p")
    if model.B(v, w) != 1:
        out.append("B(v,w) != 1")
    if model.B(h, h) != 2:
        out.append("B(h,h) != 2")
    if [-a for a in model.sigma_u(v)] != w:
        out.append("w != -sigma_u(v)")
    if model.H(v, v) != 1:
        out.append("{v,v} != 1")
    return out


def compact_partner(ct: CayleyTriple) -> Coords:
    """The real compact element z = e + theta(e) = -i h."""
    return [a - b for a, b in zip(ct.source.e, ct.source.f)]
