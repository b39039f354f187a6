"""Catalog of real simple Lie algebras and the invariants derived from it.

A catalog entry records the restricted root system of a real form together
with its root-space multiplicities (Araki-style data).  Nothing here touches
matrices: the dimension of the minimal nilpotent coadjoint orbit, the induced
compact orbit, and the splitness flag all fall out of counting eigenvalues of
the distinguished coroot element on the restricted root spaces.  The matrix
models in :mod:`minorbit.matmodel` recompute the same numbers independently.
The names of K, X and J(X) are catalog text, printed and not checked.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from pathlib import Path

from .report import CheckItem
from .rootsys import (
    FAMILIES,
    RootSystem,
    RootSystemLabel,
    RootSystemError,
    build_root_system,
    coroot_pairing,
    dual_coxeter_number,
)

EXCEPTIONAL_TABLE_IDS = ("g2-split", "f4-split", "e6-split", "e7-split", "e8-split")


class CatalogError(ValueError):
    """A catalog entry violated the schema or a structural invariant."""

    def __init__(self, entry_id: str, message: str):
        self.entry_id = entry_id
        self.invariant = message
        super().__init__(f"catalog entry {entry_id!r}: {message}")


@dataclass(frozen=True)
class RealFormDescriptor:
    id: str
    gc_label: RootSystemLabel
    restricted_label: RootSystemLabel
    mults: dict[str, int]
    dim_m: int
    hermitian: bool
    k_name: str
    jordan_algebra: str | None = None
    notes: str = ""

    @property
    def restricted_system(self) -> RootSystem:
        return build_root_system(self.restricted_label)

    def mult_of(self, root) -> int:
        return self.mults[self.restricted_system.root_class(root)]

    @property
    def dim_g(self) -> int:
        rs = self.restricted_system
        return self.dim_m + rs.rank + sum(
            count * self.mults[key] for key, count in rs.class_counts().items())


def _parse_entry(raw: dict) -> RealFormDescriptor:
    if not isinstance(raw, dict):
        raise CatalogError("<entry>", f"entry must be a JSON object, got {raw!r}")
    entry_id = raw.get("id", "<missing id>")
    if not isinstance(entry_id, str) or not entry_id:
        raise CatalogError(str(entry_id), "id must be a non-empty string")
    # every descriptor field is a key, required unless it has a default
    keys = fields(RealFormDescriptor)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise CatalogError(entry_id, f"unknown keys {sorted(unknown)}")
    missing = {f.name for f in keys if f.default is MISSING} - set(raw)
    if missing:
        raise CatalogError(entry_id, f"missing keys {sorted(missing)}")
    try:
        gc = RootSystemLabel.parse(raw["gc_label"])
        restricted = RootSystemLabel.parse(raw["restricted_label"])
    except RootSystemError as exc:
        raise CatalogError(entry_id, str(exc)) from exc
    if gc.family == "BC":
        raise CatalogError(entry_id, "complexification label cannot be BC")
    mults = raw["mults"]
    if not isinstance(mults, dict) or not mults:
        raise CatalogError(entry_id, "mults must be a non-empty map")
    expected = set(build_root_system(restricted).class_counts())
    if set(mults) != expected:
        raise CatalogError(
            entry_id,
            f"mult keys {sorted(mults)} do not match {sorted(expected)} for {restricted}",
        )
    # type(...) is int, since bool is an int subclass and true is no count
    for key, val in mults.items():
        if type(val) is not int or val < 1:
            raise CatalogError(entry_id, f"mult {key!r} must be a positive integer")
    dim_m = raw["dim_m"]
    if type(dim_m) is not int or dim_m < 0:
        raise CatalogError(entry_id, "dim_m must be a nonnegative integer")
    if not isinstance(raw["hermitian"], bool):
        raise CatalogError(entry_id, "hermitian must be true or false")
    if not isinstance(raw["k_name"], str):
        raise CatalogError(entry_id, "k_name must be a string")
    jordan = raw.get("jordan_algebra")
    if jordan is not None and not isinstance(jordan, str):
        raise CatalogError(entry_id, "jordan_algebra must be a string or null")
    notes = raw.get("notes", "")
    if not isinstance(notes, str):
        raise CatalogError(entry_id, "notes must be a string")
    desc = RealFormDescriptor(
        id=entry_id,
        gc_label=gc,
        restricted_label=restricted,
        mults=dict(mults),
        dim_m=dim_m,
        hermitian=raw["hermitian"],
        k_name=raw["k_name"],
        jordan_algebra=jordan,
        notes=notes,
    )
    _validate(desc)
    return desc


def _validate(desc: RealFormDescriptor) -> None:
    # dim g_C is rank + |Phi|, and build_root_system enforces FAMILIES' |Phi|
    dim_gc = desc.gc_label.rank + FAMILIES[desc.gc_label.family][2](desc.gc_label.rank)
    if desc.dim_g != dim_gc:
        raise CatalogError(
            desc.id,
            f"dimension mismatch: dim_m + rank + sum(mults) = {desc.dim_g} "
            f"but dim of {desc.gc_label} is {dim_gc}",
        )
    rs = desc.restricted_system
    psi_mult = desc.mult_of(rs.highest_root)
    if desc.hermitian and psi_mult != 1:
        raise CatalogError(
            desc.id,
            f"hermitian entry must have mult(psi) = 1, got {psi_mult}",
        )


def default_catalog_path() -> Path:
    """The catalog shipped in the package, which ``load_catalog()`` parses."""
    return Path(__file__).with_name("data") / "catalog.json"


def catalog_key(source: str | Path | None) -> str | None:
    """Cache key of a catalog source; None is the shipped catalog."""
    return None if source is None else str(source)


def load_catalog(source: str | Path | None = None) -> tuple[RealFormDescriptor, ...]:
    """The validated entries of a catalog document (the shipped one by
    default), parsed once per source key and shared: do not mutate."""
    return _parse_catalog(catalog_key(source))


@lru_cache(maxsize=None)
def _parse_catalog(key: str | None) -> tuple[RealFormDescriptor, ...]:
    path = Path(key) if key is not None else default_catalog_path()
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise CatalogError("<document>", "top level must be a list of entries")
    if not raw:
        raise CatalogError("<document>", "catalog has no entries")
    entries = tuple(_parse_entry(item) for item in raw)
    seen: set[str] = set()
    for e in entries:
        if e.id in seen:
            raise CatalogError(e.id, "duplicate id")
        seen.add(e.id)
    return entries


def find_descriptor(form_id: str, source: str | Path | None = None) -> RealFormDescriptor:
    """The entry ``form_id`` of a catalog; CatalogError if it has none."""
    for entry in load_catalog(source):
        if entry.id == form_id:
            return entry
    raise CatalogError(form_id, "unknown form id")


@dataclass(frozen=True)
class DerivedInvariants:
    d: int
    m: dict[int, int]  # ad x_psi eigenvalue -> multiplicity, j in -2..2
    dim_Z: int
    dim_X: int
    omin_split: bool
    h_vee: int


def derive_invariants(desc: RealFormDescriptor) -> DerivedInvariants:
    """Eigenvalue multiplicities of the highest-coroot element and orbit dims."""
    rs = desc.restricted_system
    psi = rs.highest_root
    m = {j: 0 for j in (-2, -1, 0, 1, 2)}
    for beta in rs.all_roots:
        j = coroot_pairing(rs, beta, psi)
        if j not in m:
            raise CatalogError(desc.id, f"pairing {j} outside -2..2 for root {beta}")
        m[j] += desc.mults[rs.root_class(beta)]
    m[0] += desc.dim_m + rs.rank
    d = desc.mult_of(psi)
    # m sums the terms of desc.dim_g; dim of the centralizer of the
    # nilpositive element is m0 + m1, which the matrix-model lane recomputes
    # as the kernel of ad e.
    dim_Z = desc.dim_g - (m[0] + m[1])
    return DerivedInvariants(
        d=d,
        m=m,
        dim_Z=dim_Z,
        dim_X=dim_Z - 2,
        omin_split=(d == 1),
        h_vee=dual_coxeter_number(build_root_system(desc.gc_label)),
    )


def cross_checks(inv: DerivedInvariants) -> list[CheckItem]:
    """Identities that compare two separate counts of the derived invariants."""
    checks = [
        CheckItem.verdict(
            "eigenvalue_symmetry",
            all(inv.m[j] == inv.m[-j] for j in (1, 2)),
            f"m={inv.m}",
        ),
        CheckItem.verdict(
            "top_eigenspace_is_d", inv.m[2] == inv.d, f"m2={inv.m[2]} d={inv.d}"
        ),
    ]
    if inv.omin_split:
        checks.append(CheckItem.verdict(
            "minimal_orbit_dim",
            inv.dim_Z == 2 * inv.h_vee - 2,
            f"dim_Z={inv.dim_Z} vs 2h^v-2={2 * inv.h_vee - 2}",
        ))
    else:
        checks.append(CheckItem("minimal_orbit_dim", "skipped", "not omin-split"))
    return checks


@dataclass
class TableRow:
    gc_type: str
    k_name: str
    x_name: str
    dim_X: int
    jordan_algebra: str
    dim_jordan: int


def exceptional_table(catalog: tuple[RealFormDescriptor, ...]) -> list[TableRow]:
    """The split exceptional forms' rows, with computed compact-orbit dimensions.

    dim X is derived from the restricted root data.  K, the X column (the
    entry's ``notes``) and J(X) are catalog text, and dim J(X) is dim X / 2
    by definition: none of them is checked.
    """
    entries = {e.id: e for e in catalog}
    rows = []
    for entry_id in EXCEPTIONAL_TABLE_IDS:
        if entry_id not in entries:
            raise CatalogError(entry_id, "required exceptional entry missing")
        desc = entries[entry_id]
        inv = derive_invariants(desc)
        if inv.dim_X % 2:
            raise CatalogError(entry_id, f"dim_X={inv.dim_X} is odd")
        rows.append(
            TableRow(
                gc_type=str(desc.gc_label),
                k_name=desc.k_name,
                x_name=desc.notes,
                dim_X=inv.dim_X,
                jordan_algebra=desc.jordan_algebra or "",
                dim_jordan=inv.dim_X // 2,
            )
        )
    return rows
