from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resrings.classical import (
    BinaryCubic,
    TernaryQuadricPair,
    ldf_equivalence_check,
    ldf_table,
    pfaffian4,
    pfaffian_shape_check,
    quartic_identities_check,
    signed_pfaffians,
)
from resrings.configs import random_points_config
from resrings.errors import InputError
from resrings.resolution import build_resolution, validate
from resrings.ringalg import discriminant, verify_table
from resrings.symcore import Polynomial, PolyMatrix

small_ints = st.integers(-6, 6)


def test_ldf_table_anchor_xcubed_minus_one():
    # f = x^3 - y^3: omega^2 = theta, omega theta = 1, theta^2 = omega
    T = ldf_table(BinaryCubic.of(1, 0, 0, -1))
    assert T.c0_at(1, 1) == 0 and T.c_at(1, 1, 1) == 0 and T.c_at(1, 1, 2) == 1
    assert T.c0_at(1, 2) == 1 and T.c_at(1, 2, 1) == 0 and T.c_at(1, 2, 2) == 0
    assert T.c0_at(2, 2) == 0 and T.c_at(2, 2, 1) == 1 and T.c_at(2, 2, 2) == 0


def test_ldf_table_anchor_disc_minus_23():
    # a=1, b=0, c=-1, d=-1: omega^2 = 1 + theta, omega theta = 1, theta^2 = omega - theta
    f = BinaryCubic.of(1, 0, -1, -1)
    T = ldf_table(f)
    assert T.c0_at(1, 1) == 1 and T.c_at(1, 1, 1) == 0 and T.c_at(1, 1, 2) == 1
    assert T.c0_at(1, 2) == 1 and T.c_at(1, 2, 1) == 0 and T.c_at(1, 2, 2) == 0
    assert T.c0_at(2, 2) == 0 and T.c_at(2, 2, 1) == 1 and T.c_at(2, 2, 2) == -1
    assert f.discriminant() == -23
    assert discriminant(T) == -23


@settings(max_examples=80, deadline=None)
@given(small_ints, small_ints, small_ints, small_ints)
def test_ldf_always_associative(a, b, c, d):
    # rings of rank 3 exist for every form, including degenerate ones
    T = ldf_table(BinaryCubic.of(a, b, c, d))
    assert verify_table(T).passed("associative")


@settings(max_examples=40, deadline=None)
@given(small_ints, small_ints, small_ints, small_ints)
def test_ldf_discriminant_preserved(a, b, c, d):
    f = BinaryCubic.of(a, b, c, d)
    if f.discriminant() == 0:
        return
    rep = ldf_equivalence_check(f)
    assert rep.passed("relations") and rep.passed("discriminant")


def test_ldf_equivalence_rejects_repeated_roots():
    with pytest.raises(InputError):
        ldf_equivalence_check(BinaryCubic.of(0, 0, 0, 1))


# ---------------------------------------------------------------------------
# quartic pencils


def _example_pair():
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    return TernaryQuadricPair(x1 * (x2 - x3), x2 * (x1 - x3))


def test_quartic_pair_resolution_valid():
    F = _example_pair().resolution()
    assert validate(F).ok


def test_quartic_identities_example():
    rep = quartic_identities_check(_example_pair().resolution())
    assert rep.ok and len(rep.checks) > 100


def test_quartic_identities_random(rng):
    for _ in range(3):
        F = build_resolution(random_points_config(4, rng))
        assert quartic_identities_check(F).ok


def test_quartic_perturbed_fails_validation():
    pair = _example_pair()
    F = pair.resolution()
    maps = list(F.maps)
    entries = [list(row) for row in maps[0].entries]
    entries[0][0] = entries[0][0] + Polynomial.variable(3, 1) * Polynomial.variable(3, 1)
    maps[0] = PolyMatrix(entries)
    from resrings.resolution import GradedFreeResolution

    broken = GradedFreeResolution(4, F.ranks, F.twists, maps, F.scale)
    assert not validate(broken).ok


def test_quartic_pair_type_errors():
    x1 = Polynomial.variable(3, 1)
    with pytest.raises(InputError):
        TernaryQuadricPair(x1, x1 * x1)  # A not quadratic


# ---------------------------------------------------------------------------
# quintic pfaffians


def _random_alternating(rng):
    entries = [[Polynomial.zero(4) for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            p = Polynomial(
                4,
                {
                    tuple(1 if t == s else 0 for t in range(4)): Fraction(rng.randint(-3, 3))
                    for s in range(4)
                },
            )
            entries[i][j] = p
            entries[j][i] = -p
    return PolyMatrix(entries)


def test_pfaffian4_formula():
    vals = {}
    names = {}
    idx = 0
    entries = [[Polynomial.zero(6) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            e = [0] * 6
            e[idx] = 1
            p = Polynomial(6, {tuple(e): Fraction(1)})
            names[(i, j)] = p
            entries[i][j] = p
            entries[j][i] = -p
            idx += 1
    M = PolyMatrix(entries)
    expected = (
        names[(0, 1)] * names[(2, 3)]
        - names[(0, 2)] * names[(1, 3)]
        + names[(0, 3)] * names[(1, 2)]
    )
    assert pfaffian4(M) == expected


def test_pfaffian_laplace_identity(rng):
    # P . Phi = 0 for every alternating matrix, not only exact ones
    for _ in range(5):
        Phi = _random_alternating(rng)
        P = signed_pfaffians(Phi)
        assert (PolyMatrix([P]) * Phi).is_zero()
        assert (Phi * PolyMatrix([[p] for p in P])).is_zero()


def test_pfaffian_shape_check_valid(rng):
    for _ in range(20):
        Phi = _random_alternating(rng)
        rep, table = pfaffian_shape_check(Phi)
        if rep.ok:
            assert table is not None
            assert verify_table(table).ok
            break
    else:
        pytest.fail("no valid random alternating matrix found")


def test_pfaffian_zero_row_fails():
    entries = [[Polynomial.zero(4) for _ in range(5)] for _ in range(5)]
    x = [Polynomial.variable(4, v) for v in (1, 2, 3, 4)]
    # rows 0 and 1 entangled, row 4 left zero
    pairs = {(0, 1): x[0], (0, 2): x[1], (1, 2): x[2], (2, 3): x[3], (1, 3): x[0], (0, 3): x[2]}
    for (i, j), p in pairs.items():
        entries[i][j] = p
        entries[j][i] = -p
    Phi = PolyMatrix(entries)
    rep, _ = pfaffian_shape_check(Phi)
    assert not rep.ok


def test_pfaffian_rejects_non_alternating():
    x1 = Polynomial.variable(4, 1)
    entries = [[x1 for _ in range(5)] for _ in range(5)]
    with pytest.raises(InputError):
        pfaffian_shape_check(PolyMatrix(entries))
