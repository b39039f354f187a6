import dataclasses
import json
import re
from importlib import resources

import pytest

from minorbit.realform import (
    CatalogError,
    EXCEPTIONAL_DIM_X,
    cross_checks,
    default_catalog_path,
    derive_invariants,
    load_catalog,
    table_checks,
)
from minorbit.rootsys import coroot_pairing


def entry_dict(**overrides):
    base = {
        "id": "su21",
        "gc_label": "A2",
        "restricted_label": "BC1",
        "mults": {"e_i": 2, "2e_i": 1},
        "dim_m": 1,
        "hermitian": True,
        "k_name": "U(2)",
        "jordan_algebra": None,
        "notes": "",
    }
    base.update(overrides)
    return base


def write_catalog(tmp_path, entries):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def test_shipped_catalog_loads(catalog):
    assert len(catalog) >= 12
    ids = [e.id for e in catalog]
    assert len(set(ids)) == len(ids)


def test_default_catalog_path_names_the_packaged_catalog(monkeypatch):
    """The path is the package resource data/catalog.json, and it is the one
    file that the shipped catalog, load_catalog(), is parsed from."""
    from minorbit import realform

    path = default_catalog_path()
    packaged = resources.files("minorbit").joinpath("data/catalog.json")
    assert path.is_file() and path.samefile(str(packaged))
    read = []
    original = type(path).read_text

    def recorded(self, *args, **kwargs):
        read.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(type(path), "read_text", recorded)
    # the uncached parse of the default source
    assert realform._parse_catalog.__wrapped__(None) == load_catalog()
    assert read == [path]


def test_su21_dimension_arithmetic(catalog_map):
    desc = catalog_map["su21"]
    # dim_m + rank + sum over roots of the multiplicities: 1 + 1 + 2*(2+1) = 8
    assert desc.dim_g == 1 + 1 + 2 * (2 + 1) == 8


def test_rejects_hermitian_multiplicity_even_when_dims_fit(tmp_path):
    # su(4,2)-like data marked hermitian with mult(psi) = 4 must be refused
    bad = entry_dict(
        id="bad",
        gc_label="A3",
        restricted_label="A1",
        mults={"long": 4},
        dim_m=6,
        hermitian=True,
    )
    path = write_catalog(tmp_path, [bad])
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "mult(psi)" in str(err.value)


def test_rejects_dimension_mismatch(tmp_path):
    bad = entry_dict(dim_m=3)
    path = write_catalog(tmp_path, [bad])
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "dimension mismatch" in str(err.value)


def test_rejects_unknown_keys_and_duplicates(tmp_path):
    path = write_catalog(tmp_path, [entry_dict(extra_field=1)])
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "unknown keys" in str(err.value)
    path = write_catalog(tmp_path, [entry_dict(), entry_dict()])
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert "duplicate" in str(err.value)


def test_missing_and_optional_keys(tmp_path):
    """A descriptor field without a default is a required key; the two
    with a default may be left out."""
    without_dim_m = entry_dict()
    del without_dim_m["dim_m"]
    with pytest.raises(CatalogError, match=r"missing keys \['dim_m'\]"):
        load_catalog(write_catalog(tmp_path, [without_dim_m]))
    minimal = entry_dict()
    for key in ("jordan_algebra", "notes"):
        del minimal[key]
    (desc,) = load_catalog(write_catalog(tmp_path, [minimal]))
    assert (desc.jordan_algebra, desc.notes) == (None, "")


@pytest.mark.parametrize("entry", [1, None, "sl2R"])
def test_rejects_an_entry_that_is_not_an_object(tmp_path, entry):
    path = write_catalog(tmp_path, [entry])
    with pytest.raises(CatalogError, match="must be a JSON object"):
        load_catalog(path)


def test_rejects_wrong_mult_keys(tmp_path):
    path = write_catalog(tmp_path, [entry_dict(mults={"short": 2, "long": 1})])
    with pytest.raises(CatalogError):
        load_catalog(path)


def test_sl2R_invariants(catalog_map):
    inv = derive_invariants(catalog_map["sl2R"])
    assert inv.d == 1
    assert [inv.m[j] for j in (-2, -1, 0, 1, 2)] == [1, 0, 1, 0, 1]
    assert (inv.dim_Z, inv.dim_X) == (2, 0)
    assert inv.omin_split
    assert inv.dim_Z == 2 * inv.h_vee - 2


def test_su21_invariants(catalog_map):
    inv = derive_invariants(catalog_map["su21"])
    assert inv.d == 1
    assert inv.m[0] == 2 and inv.m[1] == 2
    assert (inv.dim_Z, inv.dim_X) == (4, 2)
    assert inv.omin_split and inv.h_vee == 3


def test_sl3H_invariants(catalog_map):
    inv = derive_invariants(catalog_map["sl3H"])
    assert inv.d == 4
    assert not inv.omin_split
    assert (inv.dim_Z, inv.dim_X) == (16, 14)


def test_all_entries_pass_cross_checks(catalog):
    for desc in catalog:
        inv = derive_invariants(desc)
        assert sum(inv.m.values()) == desc.dim_g
        assert all(inv.m[j] == inv.m[-j] for j in (1, 2))
        failures = [c for c in cross_checks(inv) if c.failed]
        assert not failures, (desc.id, failures)


def test_split_entries_are_omin_split(catalog):
    split = [e for e in catalog if set(e.mults.values()) == {1}]
    assert split, "catalog must contain split entries"
    for desc in split:
        assert derive_invariants(desc).omin_split, desc.id


def test_hermitian_entries_have_d1(catalog):
    for desc in catalog:
        if desc.hermitian:
            assert derive_invariants(desc).d == 1, desc.id


def test_omin_split_dimension_formulas(catalog):
    for desc in catalog:
        inv = derive_invariants(desc)
        if inv.omin_split:
            assert inv.dim_Z == 2 * inv.h_vee - 2, desc.id
            assert inv.dim_X == 2 * inv.h_vee - 4, desc.id


def test_positive_system_reversal_is_invisible(catalog):
    """The invariants paired against -psi, the highest root of the negated
    positive system, equal those that derive_invariants pairs against psi."""
    for desc in catalog:
        a = derive_invariants(desc)
        rs = desc.restricted_system
        psi = tuple(-x for x in rs.highest_root)
        m = {j: 0 for j in (-2, -1, 0, 1, 2)}
        for beta in rs.all_roots:
            m[coroot_pairing(rs, beta, psi)] += desc.mult_of(beta)
        m[0] += desc.dim_m + rs.rank
        d = desc.mult_of(psi)
        dim_Z = desc.dim_g - (m[0] + m[1])
        assert (a.d, a.m, a.dim_Z, a.dim_X, a.omin_split) == (
            d,
            m,
            dim_Z,
            dim_Z - 2,
            d == 1,
        )


def test_sl3H_cross_checks_skip_dimension_formulas(catalog_map):
    checks = {c.name: c for c in cross_checks(derive_invariants(catalog_map["sl3H"]))}
    assert checks["minimal_orbit_dim"].status == "skipped"
    assert not any(c.failed for c in checks.values())


@pytest.mark.parametrize("change, failing", [
    (lambda inv: {"m": {**inv.m, 1: inv.m[1] + 1}}, "eigenvalue_symmetry"),
    (lambda inv: {"d": 2}, "top_eigenspace_is_d"),
    (lambda inv: {"dim_Z": inv.dim_Z + 2}, "minimal_orbit_dim"),
], ids=["asymmetric-m", "d2", "dim_Z+2"])
def test_each_cross_check_can_fail(catalog_map, change, failing):
    """One changed invariant of su32 fails exactly the line that reads it."""
    inv = derive_invariants(catalog_map["su32"])
    assert not any(c.failed for c in cross_checks(inv))
    checks = cross_checks(dataclasses.replace(inv, **change(inv)))
    assert [c.name for c in checks if c.failed] == [failing]


def table_values(rows, key):
    """The integer ``key=`` of each ``table`` row's detail."""
    return [int(re.search(rf"{re.escape(key)}=(\d+)", r.detail)[1]) for r in rows]


def test_exceptional_table_values(catalog):
    *rows, dim_X_row = table_checks(catalog)
    assert all(c.status == "pass" for c in (*rows, dim_X_row))
    dims = table_values(rows, "dim_X")
    assert dims == [4, 14, 20, 32, 56] == list(EXCEPTIONAL_DIM_X.values())
    assert table_values(rows, "dim_J(X)") == [2, 7, 10, 16, 28]
    g2 = rows[0]
    assert g2.name == "table[G2]"
    assert g2.detail.startswith("K=SU(2) x SU(2) X=P1(C) x P1(C) dim_X=4 ")
    assert dims[3] == 32
    assert dims[1] == 14 == 2 * 9 - 4


def test_exceptional_table_requires_all_entries(catalog):
    partial = [e for e in catalog if e.id != "e7-split"]
    with pytest.raises(CatalogError) as err:
        table_checks(partial)
    assert "e7-split" in str(err.value)


def test_exceptional_ids_present(catalog_map):
    for form_id in EXCEPTIONAL_DIM_X:
        assert form_id in catalog_map


@pytest.mark.parametrize(
    "override, message",
    [
        ({"hermitian": "false"}, "hermitian must be true or false"),
        ({"hermitian": 1}, "hermitian must be true or false"),
        ({"k_name": 7}, "k_name must be a string"),
        ({"dim_m": True}, "dim_m must be a nonnegative integer"),
        ({"mults": {"e_i": 2, "2e_i": True}}, "mult '2e_i' must be a positive integer"),
        ({"gc_label": 7}, "cannot parse label 7"),
        ({"restricted_label": ["A1"]}, "cannot parse label ['A1']"),
        ({"notes": 5}, "notes must be a string"),
        ({"jordan_algebra": 3}, "jordan_algebra must be a string or null"),
        ({"gc_label": "A+2"}, "cannot parse label 'A+2'"),
        ({"restricted_label": "BC1 "}, "cannot parse label 'BC1 '"),
        ({"gc_label": "A01"}, "cannot parse label 'A01'"),
        ({"k_root_label": "A1"}, "unknown keys ['k_root_label']"),
    ],
)
def test_rejects_mistyped_fields(tmp_path, override, message):
    path = write_catalog(tmp_path, [entry_dict(**override)])
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert message in str(err.value)
