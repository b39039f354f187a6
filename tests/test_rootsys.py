import math
from itertools import permutations
from fractions import Fraction

import pytest

from minorbit.realform import find_descriptor, load_catalog
from minorbit.rootsys import (
    RootSystemError,
    RootSystemLabel,
    build_root_system,
    coroot_pairing,
    dominant,
    dual_coxeter_number,
    highest_root,
    indecomposable,
)

ALL_LABELS = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C3", "C4", "C5", "C6", "C7", "C8",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2", "BC1", "BC2", "BC3", "BC4",
]

REDUCED_LABELS = [t for t in ALL_LABELS if not t.startswith("BC")]


def rs(text):
    return build_root_system(RootSystemLabel.parse(text))


# --- independent oracle: closure of the simple roots under reflections ------

def pairing(beta, alpha):
    num = 2 * sum(a * b for a, b in zip(beta, alpha))
    den = sum(a * a for a in alpha)
    assert num % den == 0
    return num // den


def reflect(beta, alpha):
    c = pairing(beta, alpha)
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


def every_reflection_closure(system):
    """Root -> simple-root coefficients: the simple roots (and 2 alpha_r for
    BC) closed under every simple reflection, applied to every root found,
    a reflection that fixes the root included."""
    simple = system.simple_roots
    unit = [tuple(int(i == j) for j in range(len(simple))) for i in range(len(simple))]
    found = dict(zip(simple, unit))
    if system.label.family == "BC":
        found[tuple(2 * x for x in simple[-1])] = tuple(2 * c for c in unit[-1])
    frontier = list(found)
    while frontier:
        nxt = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                image = reflect(beta, alpha)
                if image not in found:
                    coeffs = found[beta]
                    c = coeffs[i] - pairing(beta, alpha)
                    found[image] = coeffs[:i] + (c,) + coeffs[i + 1:]
                    nxt.append(image)
        frontier = nxt
    return found


def test_catalog_root_systems_match_every_reflection_closure():
    """Every gc and restricted root system of the shipped catalog: the roots
    and their coefficients are those of the closure that tries every simple
    reflection on every root."""
    labels = {d.gc_label for d in load_catalog()} | {d.restricted_label for d in load_catalog()}
    assert {"E8", "BC2"} <= {str(label) for label in labels}
    for label in sorted(labels, key=str):
        system = build_root_system(label)
        closure = every_reflection_closure(system)
        assert system.all_roots == tuple(sorted(closure)), label
        assert system.coefficients == closure, label


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


# family -> (least rank, the greatest rank as the message prints it)
RANK_BOUNDS = {"A": (1, "inf"), "B": (2, "inf"), "C": (3, "inf"), "D": (4, "inf"),
               "E": (6, 8), "F": (4, 4), "G": (2, 2), "BC": (1, "inf")}


def test_rank_bounds_enforced():
    """Each family's least rank builds; one rank below it, and E9 and G3,
    are rejected with the family's bounds in the message."""
    for family, (lo, hi) in RANK_BOUNDS.items():
        assert build_root_system(RootSystemLabel.parse(f"{family}{lo}")).rank == lo
        with pytest.raises(RootSystemError) as err:
            RootSystemLabel(family, lo - 1)
        assert str(err.value) == f"{family}{lo - 1}: rank must be in [{lo}, {hi}]"
    for text, bounds in (("E5", "[6, 8]"), ("E9", "[6, 8]"), ("F3", "[4, 4]"),
                         ("G3", "[2, 2]")):
        with pytest.raises(RootSystemError) as err:
            RootSystemLabel.parse(text)
        assert str(err.value) == f"{text}: rank must be in {bounds}"


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

def inner(u, v):
    """The ambient inner product of the integer realizations."""
    return sum(a * b for a, b in zip(u, v))


def dom(system, weight):
    """Dominant representative of an ambient-coordinate weight."""
    return dominant(weight, system.simple_roots, inner, len(system.positive_roots))


def brute_force_orbit(system, weight):
    """Weyl orbit by BFS over simple reflections in ambient coordinates."""
    seen = {tuple(Fraction(x) for x in weight)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for a in system.simple_roots:
                c = Fraction(2 * inner(w, a), inner(a, a))
                r = tuple(x - c * y for x, y in zip(w, a))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def test_dominant_rank1():
    a1 = rs("A1")
    assert dom(a1, (-3, 3)) == (3, -3)
    assert dom(a1, (5, 0)) == (5, 0)


def test_dominant_matches_brute_force_orbit():
    a2 = rs("A2")
    for weight in [(0, 1, -1), (2, -3, 1), (-4, -5, 9), (0, 0, 0), (7, 1, -8)]:
        orbit = brute_force_orbit(a2, weight)
        # the Weyl group of A2 permutes the three coordinates
        assert orbit == {tuple(Fraction(x) for x in p) for p in permutations(weight)}
        chamber = [
            w for w in orbit if all(inner(w, a) >= 0 for a in a2.simple_roots)
        ]
        assert len(chamber) == 1
        assert dom(a2, weight) == chamber[0]


def test_dominant_idempotent_and_symmetric():
    for text in ["A2", "B2", "G2", "A3"]:
        system = rs(text)
        ambient = len(system.simple_roots[0])
        grid = range(-3, 4)
        for c0 in grid:
            for c1 in grid:
                w = (c0, c1) + (0,) * (ambient - 2)
                d = dom(system, w)
                assert dom(system, d) == d
                other = dom(system, [-x for x in dom(system, [-x for x in w])])
                assert dom(system, other) == d


def test_dominant_reduces_minus_rho_in_exactly_phi_plus_steps():
    """-rho pairs negatively with every positive root, so its reduction takes
    all |Phi+| reflections the bound allows, E8's 120 included."""
    for text in REDUCED_LABELS:
        system = rs(text)
        two_rho = [sum(col) for col in zip(*system.positive_roots)]
        assert dom(system, [-x for x in two_rho]) == tuple(two_rho), text
        positive = len(system.positive_roots)
        with pytest.raises(RootSystemError):
            dominant(
                [-x for x in two_rho], system.simple_roots, inner, positive - 1
            )
    assert len(rs("E8").positive_roots) == 120


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
    assert rs("BC1").class_counts() == {"e_i": 2, "2e_i": 2}
    assert rs("BC3").class_counts() == {"e_i": 6, "2e_i": 6, "e_i±e_j": 12}
    assert rs("C3").class_counts() == {"short": 12, "long": 6}
    assert rs("F4").class_counts() == {"short": 24, "long": 24}
    assert rs("G2").class_counts() == {"short": 6, "long": 6}


def test_root_class_rejects_vectors_that_are_not_roots():
    for text, vector in (("B2", (5, 0)), ("B2", (0, 0)), ("BC2", (7, 3))):
        with pytest.raises(RootSystemError, match="not a root"):
            rs(text).root_class(vector)
    with pytest.raises(RootSystemError, match="not a root"):
        find_descriptor("su21").mult_of((3,))


def test_highest_root_needs_a_dominating_root():
    # A1 x A1: neither positive root dominates the other
    with pytest.raises(RootSystemError):
        highest_root({(1, 0): (1, 0), (0, 1): (0, 1)})


def test_indecomposable_positive_roots_are_the_simple_roots():
    for text in ALL_LABELS:
        system = rs(text)
        assert set(indecomposable(system.positive_roots)) == set(system.simple_roots)


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


@pytest.mark.parametrize("text", [t for t in COEFF_LABELS if not t.startswith("BC")])
def test_highest_root_height_is_coxeter_number_minus_one(text):
    system = rs(text)
    psi = system.highest_root
    height = {b: sum(system.coefficients[b]) for b in system.positive_roots}
    assert height[psi] == len(system.all_roots) // system.rank - 1
    assert all(height[b] < height[psi] for b in system.positive_roots if b != psi)


@pytest.mark.parametrize("text", COEFF_LABELS)
def test_lattice_vectors_get_reference_fractions(text):
    """The fundamental weights, solved from the stored Cartan matrix, pair with
    the simple coroots as the identity: the Cartan matrix is the pairing
    matrix of the stored simple roots, row i column j = <alpha_i, alpha_j-dual>."""
    system = rs(text)
    for i, (m, v, expected) in enumerate(fundamental_weight_multiples(system)):
        for j, alpha in enumerate(system.simple_roots):
            pairing = Fraction(2 * sum(a * b for a, b in zip(v, alpha)),
                               sum(a * a for a in alpha))
            assert pairing == (m if i == j else 0)
        assert reference_solve(system.simple_roots, v) == expected


@pytest.mark.parametrize(
    "simple, message",
    [
        # alpha_1 and alpha_1 + alpha_2 span A2 but are not a base of it
        ([(1, -1, 0), (1, 0, -1)], "bad Cartan entry 1"),
        # A1 x A1: a valid Cartan matrix with 4 roots, not A2's 6
        ([(1, -1, 0), (1, 1, 0)], "generated 4 roots, expected 6"),
        # 2 (alpha_1, alpha_2) / (alpha_2, alpha_2) = 2/5
        ([(1, 0, 0), (1, 2, 0)], "is not an integer"),
    ],
    ids=["non_simple_basis", "orthogonal_pair", "non_crystallographic"],
)
def test_bad_simple_roots_are_rejected(monkeypatch, simple, message):
    from minorbit import rootsys

    monkeypatch.setattr(rootsys, "_simple_roots", lambda label: simple)
    with pytest.raises(RootSystemError, match=message):
        build_root_system.__wrapped__(RootSystemLabel("A", 2))


# --- label parsing ------------------------------------------------------------

@pytest.mark.parametrize("text", ["A1", "A10", "BC1", "BC7", "E8", "G2"])
def test_labels_round_trip(text):
    assert str(RootSystemLabel.parse(text)) == text


@pytest.mark.parametrize(
    "text",
    ["A+1", "A1 ", " A1", "A1\n", "A 1", "A1_0", "A01", "BC01", "A\u0661", "E\uff18"],
)
def test_labels_with_a_loose_rank_are_rejected(text):
    with pytest.raises(RootSystemError, match="cannot parse label"):
        RootSystemLabel.parse(text)
