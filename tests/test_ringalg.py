from fractions import Fraction

import pytest

from resrings.brackets import OmegaTensor, omega
from resrings.classical import BinaryCubic
from resrings.configs import (
    coordinate_ring_table,
    from_etale,
    random_points_config,
    standard_config,
)
from resrings.errors import InconsistencyError, InputError
from resrings.resolution import build_resolution, integerize
from resrings.ringalg import (
    MultiplicationTable,
    ShearTransform,
    _bhargava_rescale,
    discriminant,
    integral_orders,
    isomorphic_up_to_scalar,
    normalize,
    shear,
    structure_constants,
    table1_check,
    verify_table,
)
from resrings.symcore import Polynomial, QMatrix


def normalized_standard_omega(n, std_res):
    """Omega of the standard configuration rescaled to n x_i^2 - 2 x_i sum."""
    Om = omega(std_res(n))
    i0 = next(iter(Om.forms[0].terms))
    xs = [Polynomial.variable(n - 1, j) for j in range(1, n)]
    target = n * xs[0] * xs[0] - 2 * xs[0] * sum(xs[1:], xs[0])
    ratio = Om.forms[0].terms[i0] / target.terms[i0]
    return Om.scale(1 / ratio)


def test_structure_constants_standard_hessian(std_res):
    for n in (4, 5, 6):
        Om = normalized_standard_omega(n, std_res)
        T = structure_constants(Om, "hessian")
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    assert T.c_at(i, i, i) == 2 * n - 4
                    assert T.c0_at(i, i) == 4 * (n - 1)
                else:
                    assert T.c_at(i, j, i) == -2
                    assert T.c0_at(i, j) == -4
        assert verify_table(T).ok


def test_structure_constants_n3_system():
    # the (1/6)-Hessian constants of a cubic's resolution solve the classical system
    f = BinaryCubic.of(2, 3, -1, 5)
    T = structure_constants(omega(f.resolution()), "bhargava")
    a, b, c, d = f.a, f.b, f.c, f.d
    assert T.c_at(1, 1, 2) == a
    assert T.c_at(1, 1, 1) - 2 * T.c_at(1, 2, 2) == -b
    assert T.c_at(2, 2, 2) - 2 * T.c_at(1, 2, 1) == c
    assert T.c_at(2, 2, 1) == -d


def test_structure_constants_trace_zero(rng):
    for n in (4, 5):
        F = build_resolution(random_points_config(n, rng))
        T = structure_constants(omega(F), "hessian")
        for k in range(1, n):
            assert T.basis_trace(k) == 0


def _bhargava_table_from_hessians(Om):
    """The (1/2n)-scale table computed directly: scaled Hessians, c0 from the recovery sum."""
    n, m = Om.n, Om.n - 1
    s = Fraction(1, 2 * n)
    c = [[[s * Om.hessian_entry(k, i, j) for k in range(1, n)] for j in range(1, n)] for i in range(1, n)]
    c0 = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        k = 1 if i == 0 else 0
        for j in range(i, m):
            c0[i][j] = c0[j][i] = sum(
                (c[j][k][r] * c[r][i][k] - c[i][j][r] * c[r][k][k] for r in range(m)), Fraction(0)
            )
    return MultiplicationTable(n, c0, c, basis_note="trace-zero", scale="bhargava")


@pytest.mark.parametrize("make", [lambda: standard_config(4), lambda: standard_config(5),
                                  lambda: from_etale("t^5-t-1"), lambda: from_etale("t^6-t-1")],
                         ids=["std4", "std5", "t^5-t-1", "t^6-t-1"])
def test_bhargava_table_is_the_rescaled_hessian_table(make):
    F_int, _ = integerize(build_resolution(make()))
    Om = omega(F_int)
    direct = _bhargava_table_from_hessians(Om)
    assert structure_constants(Om, "bhargava").to_json() == direct.to_json()
    res = integral_orders(F_int)
    assert _bhargava_rescale(res.B).to_json() == direct.to_json()
    assert res.Bprime == normalize(direct, "cyclic")[0]


def test_structure_constants_scale_relation(std_res):
    Om = omega(std_res(5))
    Th = structure_constants(Om, "hessian")
    Tb = structure_constants(Om, "bhargava")
    mu = isomorphic_up_to_scalar(Tb, Th)
    assert mu == Fraction(1, 10)
    with pytest.raises(InputError):
        structure_constants(Om, "other")


def test_scaling_covariance(std_res):
    Om = omega(std_res(4))
    mu = Fraction(3)
    T1 = structure_constants(Om, "hessian")
    T2 = structure_constants(Om.scale(mu), "hessian")
    assert isomorphic_up_to_scalar(T2, T1) == mu
    assert verify_table(T2).ok


def test_verify_table_detects_perturbation(std_res):
    T = coordinate_ring_table(standard_config(4))
    c = [[list(vec) for vec in row] for row in T.c]
    c[0][1][0] += 1
    c[1][0][0] += 1
    broken = MultiplicationTable(4, T.c0, c)
    rep = verify_table(broken)
    assert not rep.associative
    assert rep.witness


@pytest.mark.parametrize("make", [lambda: standard_config(4), lambda: standard_config(5),
                                  lambda: from_etale("t^5-t-1")], ids=["std4", "std5", "t^5-t-1"])
def test_verify_table_detects_each_c0_perturbation(make):
    # associativity alone must catch a wrong c0_ij: there is no separate c0 check
    T = coordinate_ring_table(make())
    m = T.n - 1
    for i in range(m):
        for j in range(i, m):
            c0 = [list(row) for row in T.c0]
            c0[i][j] += 1
            if i != j:
                c0[j][i] += 1
            rep = verify_table(MultiplicationTable(T.n, c0, T.c))
            assert not rep.associative, (i, j)
            assert rep.witness


def _full_scan_witness(T):
    """The first failing triple of associativity over all n^3 basis triples."""
    n = T.n
    basis = [tuple(Fraction(int(r == s)) for r in range(n)) for s in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = T.mult(T.mult(basis[i], basis[j]), basis[k])
                right = T.mult(basis[i], T.mult(basis[j], basis[k]))
                if left != right:
                    return f"associativity fails at triple ({i},{j},{k})"
    return None


@pytest.mark.parametrize("make", [lambda: standard_config(5), lambda: from_etale("t^5-t-1")],
                         ids=["std5", "t^5-t-1"])
def test_verify_table_witness_matches_full_scan(make):
    # the scan skips triples with the unit and triples (i,j,k) with i >= k
    T = coordinate_ring_table(make())
    m = T.n - 1
    tables = []
    for i in range(m):
        for j in range(i, m):
            c0 = [list(row) for row in T.c0]
            c0[i][j] += 1
            c0[j][i] = c0[i][j]
            tables.append(MultiplicationTable(T.n, c0, T.c))
            for k in range(m):
                c = [[list(vec) for vec in row] for row in T.c]
                c[i][j][k] += 1
                c[j][i][k] = c[i][j][k]
                tables.append(MultiplicationTable(T.n, T.c0, c))
    assert len(tables) == m * (m + 1) // 2 * (m + 1)
    for table in tables:
        rep = verify_table(table)
        expected = _full_scan_witness(table)
        assert rep.associative == (expected is None)
        if expected is not None:
            assert rep.witness == expected


def test_structure_constants_rejects_inconsistent_omega(std_res):
    # x1*x2 in Omega_1 makes the c0 values read from different auxiliary indices disagree
    Om = omega(std_res(5))
    x1, x2 = Polynomial.variable(4, 1), Polynomial.variable(4, 2)
    bad = OmegaTensor(5, (Om.forms[0] + x1 * x2,) + Om.forms[1:])
    with pytest.raises(InputError):
        structure_constants(bad, "hessian")


def test_verify_table_passes_constructions(rng):
    assert verify_table(coordinate_ring_table(standard_config(5))).ok
    F = build_resolution(random_points_config(4, rng))
    assert verify_table(structure_constants(omega(F), "hessian")).ok


# ---------------------------------------------------------------------------
# shears


def test_zero_shear_identity(std_res):
    T = coordinate_ring_table(standard_config(4))
    s = ShearTransform((Fraction(0),) * 3)
    assert shear(T, s) == T


def test_shear_round_trip(std_res, rng):
    T = coordinate_ring_table(standard_config(5))
    lams = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
    s = ShearTransform(lams)
    assert shear(shear(T, s), s.inverse()) == T


def test_shear_preserves_table1_combinations(std_res, rng):
    T = coordinate_ring_table(standard_config(5))
    lams = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
    S = shear(T, ShearTransform(lams))  # raises internally if a combination moves
    n = 5
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                if len({i, j, k}) != 3:
                    continue
                assert S.c_at(i, j, k) == T.c_at(i, j, k)
                assert S.c_at(i, i, j) == T.c_at(i, i, j)
                assert S.c_at(i, j, j) - S.c_at(i, k, k) == T.c_at(i, j, j) - T.c_at(i, k, k)


def test_shear_preserves_associativity_and_disc(std_res, rng):
    T = coordinate_ring_table(standard_config(4))
    lams = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
    S = shear(T, ShearTransform(lams))
    assert verify_table(S).associative
    assert discriminant(S) == discriminant(T)


# ---------------------------------------------------------------------------
# normalization conventions


def test_normalize_cyclic(std_res):
    T = structure_constants(normalized_standard_omega(5, std_res), "hessian")
    N, s = normalize(T, "cyclic")
    n = 5
    for i in range(1, n - 1):
        assert N.c_at(i, i + 1, i + 1) == 0
    assert N.c_at(n - 1, 1, 1) == 0
    assert verify_table(N).associative


def test_normalize_pairwise_odd_only(std_res):
    T = structure_constants(normalized_standard_omega(5, std_res), "hessian")
    N, _ = normalize(T, "pairwise")
    assert N.c_at(1, 2, 1) == 0 and N.c_at(1, 2, 2) == 0
    assert N.c_at(3, 4, 3) == 0 and N.c_at(3, 4, 4) == 0
    T6 = structure_constants(omega(std_res(6)), "hessian")
    with pytest.raises(InputError):
        normalize(T6, "pairwise")


def test_normalize_trace_zero_is_noop_on_structure_tables(std_res):
    T = structure_constants(omega(std_res(5)), "hessian")
    N, s = normalize(T, "trace_zero")
    assert all(v == 0 for v in s.lambdas)
    assert N == T


# ---------------------------------------------------------------------------
# table 1 / theorem 10.1


def test_table1_standard(std_res):
    for n in (5, 6):
        rep = table1_check(std_res(n))
        assert rep.ok, rep.failures[:3]


def test_table1_random(rng):
    rep = table1_check(build_resolution(random_points_config(5, rng)))
    assert rep.ok, rep.failures[:3]


def test_table1_invariant_under_interior_change(std_res, rng):
    # recomputing omega after an interior basis change leaves the identities intact
    from resrings.resolution import GradedFreeResolution
    from resrings.symcore import Polynomial, PolyMatrix

    F = std_res(5)
    while True:
        U = QMatrix([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
        if U.det() != 0:
            break
    Uinv = U.inverse()
    maps = list(F.maps)
    phi = maps[1]
    maps[1] = PolyMatrix(
        [
            [
                sum((phi.entries[i][k] * U.entries[k][j] for k in range(phi.cols)), Polynomial.zero(4))
                for j in range(phi.cols)
            ]
            for i in range(phi.rows)
        ]
    )
    nxt = maps[2]
    maps[2] = PolyMatrix(
        [
            [
                sum((nxt.entries[k][j] * Uinv.entries[i][k] for k in range(nxt.rows)), Polynomial.zero(4))
                for j in range(nxt.cols)
            ]
            for i in range(nxt.rows)
        ]
    )
    changed = GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)
    rep = table1_check(changed)
    assert rep.ok, rep.failures[:3]


def test_table1_needs_n5():
    with pytest.raises(InputError):
        table1_check(build_resolution(standard_config(4)))


# ---------------------------------------------------------------------------
# orders and discriminants


def test_integral_orders_standard(std_res):
    for n in (4, 5):
        F_int, _ = integerize(std_res(n))
        res = integral_orders(F_int)
        assert res.B.is_integral() and res.Bprime.is_integral()
        assert res.ratio == Fraction(2 * n) ** (2 * (n - 1))


def test_integral_orders_standard5_ratio_value(std_res):
    F_int, _ = integerize(std_res(5))
    assert integral_orders(F_int).ratio == 10**8


def test_integral_orders_etale():
    F_int, _ = integerize(build_resolution(from_etale("t^4-t-1")))
    res = integral_orders(F_int)
    assert verify_table(res.Bprime).associative
    assert res.Bprime.is_integral()
    assert res.ratio == 8**6


def test_integral_orders_rejects_fractional(std_res):
    F = std_res(4)  # generic builder output carries denominators
    has_denominator = any(
        v.denominator != 1
        for phi in F.maps
        for row in phi.entries
        for p in row
        for v in p.terms.values()
    )
    if has_denominator:
        with pytest.raises(InputError):
            integral_orders(F)


def test_discriminant_split_q4_regression():
    # oracle: Gram determinant of (1, 4e_j - 1) in Q^4 computed directly
    one = (1, 1, 1, 1)
    alphas = [tuple(4 * int(i == j) - 1 for i in range(4)) for j in range(3)]
    basis = [one] + alphas
    gram = QMatrix(
        [
            [sum(a * b for a, b in zip(u, v)) for v in basis]
            for u in basis
        ]
    )
    oracle = gram.det()
    assert oracle == 4096
    T = coordinate_ring_table(standard_config(4))
    assert discriminant(T) == oracle


def test_discriminant_shear_invariant(std_res, rng):
    T = coordinate_ring_table(standard_config(5))
    lams = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
    assert discriminant(shear(T, ShearTransform(lams))) == discriminant(T)


def test_discriminant_ldf_anchor():
    from resrings.classical import ldf_table

    assert discriminant(ldf_table(BinaryCubic.of(1, 0, -1, -1))) == -23


# ---------------------------------------------------------------------------
# scalar isomorphism


def test_isomorphic_self(std_res):
    T = coordinate_ring_table(standard_config(4))
    assert isomorphic_up_to_scalar(T, T) == 1


def test_isomorphic_detects_difference(std_res):
    T = coordinate_ring_table(standard_config(4))
    c = [[list(vec) for vec in row] for row in T.c]
    c[0][0][0] += 1
    other = MultiplicationTable(4, T.c0, c)
    assert isomorphic_up_to_scalar(T, other) is None


def test_end_to_end_isomorphism(std_res, rng):
    for n in (4, 5):
        c = standard_config(n)
        T1 = structure_constants(omega(std_res(n)), "hessian")
        T2 = coordinate_ring_table(c)
        assert isomorphic_up_to_scalar(T1, T2) is not None
    c = random_points_config(6, rng)
    F = build_resolution(c)
    assert isomorphic_up_to_scalar(
        structure_constants(omega(F), "hessian"), coordinate_ring_table(c)
    ) is not None


def test_table_json_round_trip(std_res):
    T = coordinate_ring_table(standard_config(4))
    assert MultiplicationTable.from_json(T.to_json()) == T
