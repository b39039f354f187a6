import math
from fractions import Fraction

import pytest

from minorbit.rootsys import (
    RootSystemError,
    RootSystemLabel,
    Weight,
    build_root_system,
    coroot_pairing,
    dominant_representative,
    dual_coxeter_number,
)

ALL_LABELS = [
    "A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4",
    "E6", "E7", "E8", "F4", "G2", "BC1", "BC2",
]

REDUCED_LABELS = [t for t in ALL_LABELS if not t.startswith("BC")]


def rs(text):
    return build_root_system(RootSystemLabel.parse(text))


# --- independent oracle: closure of the simple roots under reflections ------

def reflect(beta, alpha):
    num = 2 * sum(a * b for a, b in zip(beta, alpha))
    den = sum(a * a for a in alpha)
    assert num % den == 0
    c = num // den
    return tuple(b - c * a for b, a in zip(beta, alpha))


def reflection_closure(simple_roots):
    roots = set(simple_roots)
    while True:
        new = set()
        for beta in roots:
            for alpha in roots:
                new.add(reflect(beta, alpha))
        if new <= roots:
            return roots
        roots |= new


@pytest.mark.parametrize("text", REDUCED_LABELS)
def test_roots_match_reflection_closure(text):
    system = rs(text)
    closure = reflection_closure(system.simple_roots)
    assert closure == set(system.all_roots)


def test_classical_counts_and_positives():
    assert len(rs("A1").all_roots) == 2
    g2 = rs("G2")
    assert len(g2.all_roots) == 12
    assert len(g2.positive_roots) == 6
    assert len(rs("F4").all_roots) == 48
    assert len(rs("E8").all_roots) == 240


def test_bc1_roots():
    system = rs("BC1")
    assert set(system.all_roots) == {(1,), (-1,), (2,), (-2,)}


def test_dimension_identity_against_known_dims():
    known = {"A1": 3, "A2": 8, "A3": 15, "A4": 24, "B2": 10, "B3": 21,
             "C3": 21, "D4": 28, "G2": 14, "F4": 52, "E6": 78, "E7": 133,
             "E8": 248}
    for text, dim in known.items():
        system = rs(text)
        assert system.rank + len(system.all_roots) == dim


def test_cartan_matrices():
    assert rs("A1").cartan_matrix == ((2,),)
    assert rs("A2").cartan_matrix == ((2, -1), (-1, 2))
    g2 = rs("G2").cartan_matrix
    assert {g2[0][1], g2[1][0]} == {-1, -3}
    for text in ALL_LABELS:
        cm = rs(text).cartan_matrix
        for i, row in enumerate(cm):
            assert row[i] == 2
            for j, x in enumerate(row):
                if i != j:
                    assert x in (0, -1, -2, -3)


def test_rank_bounds_enforced():
    with pytest.raises(RootSystemError):
        RootSystemLabel("C", 2)
    with pytest.raises(RootSystemError):
        RootSystemLabel("D", 3)
    with pytest.raises(RootSystemError):
        RootSystemLabel("E", 9)
    with pytest.raises(RootSystemError):
        RootSystemLabel("G", 3)
    with pytest.raises(RootSystemError):
        RootSystemLabel("A", 0)


def test_negation_closure_everywhere():
    for text in ALL_LABELS:
        system = rs(text)
        roots = set(system.all_roots)
        assert {tuple(-x for x in r) for r in roots} == roots


def test_dual_coxeter_numbers():
    expected = {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "B2": 3, "B3": 5,
                "C3": 4, "D4": 6, "G2": 4, "F4": 9, "E6": 12, "E7": 18,
                "E8": 30}
    for text, h in expected.items():
        assert dual_coxeter_number(rs(text)) == h


def test_dual_coxeter_rejects_bc():
    with pytest.raises(RootSystemError):
        dual_coxeter_number(rs("BC1"))


def test_coroot_pairing_basics():
    a2 = rs("A2")
    for alpha in a2.all_roots:
        assert coroot_pairing(a2, alpha, alpha) == 2
    psi = a2.highest_root
    assert coroot_pairing(a2, a2.simple_roots[0], psi) == 1
    bc1 = rs("BC1")
    assert coroot_pairing(bc1, (1,), (2,)) == 1
    with pytest.raises(RootSystemError):
        coroot_pairing(a2, (5, 0, 0), psi)


def test_coroot_pairing_ranges():
    for text in REDUCED_LABELS:
        system = rs(text)
        psi = system.highest_root
        values = set()
        for beta in system.all_roots:
            for alpha in system.all_roots:
                values.add(coroot_pairing(system, beta, alpha))
        assert values <= set(range(-3, 4))
        for beta in system.all_roots:
            v = coroot_pairing(system, beta, psi)
            assert -2 <= v <= 2
            if abs(v) == 2:
                assert beta in (psi, tuple(-x for x in psi))


# --- dominant representatives ------------------------------------------------

def brute_force_orbit(system, weight):
    """Weyl orbit by BFS over simple reflections in weight coordinates."""
    cartan = system.cartan_matrix
    seen = {weight}
    frontier = [weight]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(system.rank):
                r = tuple(w[j] - w[i] * cartan[i][j] for j in range(system.rank))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def test_dominant_rank1():
    a1 = rs("A1")
    assert dominant_representative(a1, Weight((-3,))).coords == (3,)
    assert dominant_representative(a1, Weight((5,))).coords == (5,)


def test_dominant_matches_brute_force_orbit():
    a2 = rs("A2")
    for coords in [(-1, 0), (2, -3), (-4, -5), (0, 0), (7, 1)]:
        orbit = brute_force_orbit(a2, coords)
        dominant = [w for w in orbit if all(c >= 0 for c in w)]
        assert len(dominant) == 1
        assert dominant_representative(a2, Weight(coords)).coords == dominant[0]


def test_dominant_idempotent_and_symmetric():
    for text in ["A2", "B2", "G2", "A3"]:
        system = rs(text)
        grid = range(-3, 4)
        for c0 in grid:
            for c1 in grid:
                coords = (c0, c1) + (0,) * (system.rank - 2)
                w = Weight(coords)
                dom = dominant_representative(system, w)
                assert dominant_representative(system, dom) == dom
                other = dominant_representative(
                    system, -dominant_representative(system, -w)
                )
                assert dominant_representative(system, other) == dom


def test_dominant_reduces_minus_rho_in_exactly_phi_plus_steps():
    """-rho pairs negatively with every positive root, so its reduction takes
    all |Phi+| reflections the bound allows, E8's 120 included."""
    labels = REDUCED_LABELS + [
        f"{family}{rank}"
        for family, low in (("A", 5), ("B", 4), ("C", 4), ("D", 5))
        for rank in range(low, 9)
    ]
    for text in labels:
        system = rs(text)
        rho = Weight((1,) * system.rank)
        assert dominant_representative(system, -rho) == rho, text
    assert len(rs("E8").positive_roots) == 120


def test_dominant_rejects_bad_input():
    with pytest.raises(RootSystemError):
        dominant_representative(rs("BC1"), Weight((1,)))
    with pytest.raises(RootSystemError):
        dominant_representative(rs("A2"), Weight((1,)))


def test_highest_root_examples():
    assert rs("A2").highest_root == (1, 0, -1)
    assert rs("B2").highest_root == (1, 1)
    # the highest root is dominant against every simple root
    for text in REDUCED_LABELS:
        system = rs(text)
        psi = system.highest_root
        for alpha in system.simple_roots:
            assert coroot_pairing(system, psi, alpha) >= 0


def test_root_classes():
    b2 = rs("B2")
    assert b2.class_counts() == {"short": 4, "long": 4}
    assert b2.root_class((1, 0)) == "short"
    assert b2.root_class((1, 1)) == "long"
    bc2 = rs("BC2")
    assert bc2.class_counts() == {"e_i": 4, "2e_i": 4, "e_i±e_j": 4}
    a2 = rs("A2")
    assert a2.class_counts() == {"long": 6}


# --- stored simple-root coefficients ----------------------------------------

COEFF_LABELS = (
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 7)]
    + [f"C{r}" for r in range(3, 7)] + [f"D{r}" for r in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "G2"] + [f"BC{r}" for r in range(1, 5)]
)


def reference_solve(simple_roots, v):
    """Fractions c with sum_i c_i simple_i == v by Gauss-Jordan, or None."""
    rank = len(simple_roots)
    rows = [[Fraction(s[r]) for s in simple_roots] + [Fraction(v[r])]
            for r in range(len(v))]
    for col in range(rank):
        p = next(i for i in range(col, len(rows)) if rows[i][col])
        rows[col], rows[p] = rows[p], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(len(rows)):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    if any(row[-1] for row in rows[rank:]):
        return None
    return tuple(row[-1] for row in rows[:rank])


def fundamental_weight_multiples(system):
    """(m, m * omega_i, m * c) with m * omega_i integral, omega_i = sum_k c_k alpha_k."""
    rank = system.rank
    out = []
    for i in range(rank):
        # <omega_i, alpha_j coroot> = sum_k c_k cartan[k][j] = delta_ij
        coeffs = reference_solve(system.cartan_matrix, [int(i == j) for j in range(rank)])
        ambient = [sum(c * s[r] for c, s in zip(coeffs, system.simple_roots))
                   for r in range(len(system.simple_roots[0]))]
        m = math.lcm(*(x.denominator for x in ambient))
        out.append((m, tuple(int(m * x) for x in ambient), tuple(m * c for c in coeffs)))
    return out


@pytest.mark.parametrize("text", COEFF_LABELS)
def test_stored_coefficients_are_integers_of_one_sign(text):
    system = rs(text)
    assert set(system.coefficients) == set(system.all_roots)
    positive = set(system.positive_roots)
    for root, coeffs in system.coefficients.items():
        assert len(coeffs) == system.rank
        assert all(type(c) is int for c in coeffs)
        if root in positive:
            assert all(c >= 0 for c in coeffs) and any(coeffs)
        else:
            assert all(c <= 0 for c in coeffs) and any(coeffs)


@pytest.mark.parametrize("text", COEFF_LABELS)
def test_stored_coefficients_rebuild_roots_and_match_reference(text):
    system = rs(text)
    for root, coeffs in system.coefficients.items():
        rebuilt = tuple(
            sum(c * s[r] for c, s in zip(coeffs, system.simple_roots))
            for r in range(len(root))
        )
        assert rebuilt == root
        reference = reference_solve(system.simple_roots, root)
        assert coeffs == reference
        assert system.simple_coefficients(root) == reference
        assert system.simple_coefficients(list(root)) == reference
        assert system.height(root) == sum(reference)


@pytest.mark.parametrize("text", [t for t in COEFF_LABELS if not t.startswith("BC")])
def test_highest_root_height_is_coxeter_number_minus_one(text):
    system = rs(text)
    psi = system.highest_root
    assert system.height(psi) == len(system.all_roots) // system.rank - 1
    assert all(system.height(b) < system.height(psi)
               for b in system.positive_roots if b != psi)


@pytest.mark.parametrize("text", COEFF_LABELS)
def test_lattice_vectors_get_reference_fractions(text):
    system = rs(text)
    for i, (m, v, expected) in enumerate(fundamental_weight_multiples(system)):
        for j, alpha in enumerate(system.simple_roots):
            pairing = Fraction(2 * sum(a * b for a, b in zip(v, alpha)),
                               sum(a * a for a in alpha))
            assert pairing == (m if i == j else 0)
        assert reference_solve(system.simple_roots, v) == expected
        assert system.simple_coefficients(v) == expected
        assert all(type(c) is Fraction for c in system.simple_coefficients(v))
    n = len(system.simple_roots[0])
    for k in range(n):
        unit = tuple(int(j == k) for j in range(n))
        reference = reference_solve(system.simple_roots, unit)
        if reference is None:
            with pytest.raises(RootSystemError):
                system.simple_coefficients(unit)
        else:
            assert system.simple_coefficients(unit) == reference


def test_simple_coefficients_examples():
    assert rs("D4").simple_coefficients((1, 0, 0, 0)) == (
        1, 1, Fraction(1, 2), Fraction(1, 2))
    assert rs("C3").simple_coefficients((0, 0, 1)) == (0, 0, Fraction(1, 2))
    a2 = rs("A2")
    for off_span in [(1, 0, 0), (0, 0, 1), (1, 1, 1)]:
        with pytest.raises(RootSystemError, match="not in the root lattice span"):
            a2.simple_coefficients(off_span)
    with pytest.raises(RootSystemError):
        a2.simple_coefficients((1, -1))
    assert a2.simple_coefficients((2, -1, -1)) == (2, 1)


def test_root_with_non_integral_coefficients_is_rejected(monkeypatch):
    from minorbit import rootsys

    classical = rootsys._classical_roots
    c3 = RootSystemLabel("C", 3)
    # C3's simple roots with B3's roots: the short root e_3 is alpha_3 / 2
    mixed = (classical(c3)[0], classical(RootSystemLabel("B", 3))[1])
    monkeypatch.setattr(rootsys, "_classical_roots", lambda label: mixed)
    with pytest.raises(RootSystemError, match="non-integral simple-root coefficients"):
        build_root_system.__wrapped__(c3)
