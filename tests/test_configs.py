import random
from fractions import Fraction

import pytest

from resrings.configs import (
    MAX_N,
    Configuration,
    coordinate_ring_table,
    evaluation_matrix,
    from_etale,
    general_position_check,
    parse_monic_integer_poly,
    points_config,
    random_points_config,
    standard_config,
    trace_data,
    transform_between,
)
from resrings.errors import InputError
from resrings.ringalg import isomorphic_up_to_scalar, verify_table
from resrings.symcore import Polynomial, QMatrix, nullspace


def test_standard_config_examples():
    c = standard_config(4)
    assert c.points == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
    )
    assert standard_config(3).points == ((1, 0), (0, 1), (1, 1))
    assert general_position_check(standard_config(5)) == (True, None)
    with pytest.raises(InputError):
        standard_config(2)


def test_general_position_witness():
    bad = points_config([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    ok, witness = general_position_check(bad)
    assert not ok
    assert witness == (0, 1, 2)  # the three points on x3 = 0

    repeated = points_config([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ok, witness = general_position_check(repeated)
    assert not ok


def test_point_normalization():
    c = points_config([(2, 4, 0), (0, 3, 0), (0, 0, -5), (7, 7, 7)])
    assert c.points[0] == (1, 2, 0)
    assert c.points[2] == (0, 0, 1)
    with pytest.raises(InputError):
        points_config([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


# ---------------------------------------------------------------------------
# etale inputs


def _companion_trace_oracle(coeffs):
    """Tr(t^k) on Q[t]/(f) via explicit matrix powers (independent oracle)."""
    n = len(coeffs) - 1
    C = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = Fraction(1)
    for i in range(n):
        C[i][n - 1] = Fraction(-coeffs[i])
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(n):
        traces.append(sum(M[i][i] for i in range(n)))
        M = [
            [sum(M[i][k] * C[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return traces


def test_from_etale_trace_zero_basis():
    cfg = from_etale("t^3-t-1")
    # oracle: alpha_j = t^j - Tr(t^j)/n with traces from companion powers
    traces = _companion_trace_oracle([-1, -1, 0, 1])
    assert traces == [3, 0, 2]
    assert cfg.alphas[0] == (0, 1, 0)  # alpha_1 = t
    assert cfg.alphas[1] == (Fraction(-2, 3), 0, 1)  # alpha_2 = t^2 - 2/3
    # every alpha_j must be traceless against the oracle
    for alpha in cfg.alphas:
        assert sum(a * t for a, t in zip(alpha, traces)) == 0


def test_from_etale_rejects_non_squarefree():
    with pytest.raises(InputError):
        from_etale([0, 0, 1, 1])  # t^3 + t^2 = t^2 (t + 1)
    with pytest.raises(InputError):
        from_etale("t^2-1")  # degree too small
    with pytest.raises(InputError):
        from_etale([1, 0, 0, 2])  # not monic


def test_split_quartic_equivalent_to_standard():
    # f = (t-1)(t-2)(t-3)(t-4); evaluating the trace-zero basis at the roots
    # gives four points projectively equivalent to the standard four
    cfg = from_etale([24, -50, 35, -10, 1])
    roots = (1, 2, 3, 4)
    pts = []
    for r in roots:
        pts.append([sum(a * Fraction(r) ** k for k, a in enumerate(alpha)) for alpha in cfg.alphas])
    split = points_config(pts)
    g = transform_between(split, standard_config(4))
    for p, q in zip(split.points, standard_config(4).points):
        image = g.apply(p)
        lead = next(v for v in image if v)
        assert tuple(v / lead for v in image) == q


@pytest.mark.parametrize("n", [2, MAX_N + 1])
def test_size_limit_is_checked_before_building(n):
    assert standard_config(MAX_N).n == MAX_N
    for build in (lambda: standard_config(n), lambda: points_config([[1] * (n - 1)] * n),
                  lambda: from_etale([-1, -1] + [0] * (n - 2) + [1]), lambda: from_etale(f"t^{n}-t-1"),
                  lambda: random_points_config(n, random.Random(0))):
        with pytest.raises(InputError, match="MAX_N"):
            build()


def test_parse_monic_integer_poly():
    assert parse_monic_integer_poly("t^4-t-1") == [-1, -1, 0, 0, 1]
    assert parse_monic_integer_poly("t^3 + 2t^2 - 7") == [-7, 0, 2, 1]
    with pytest.raises(InputError):
        parse_monic_integer_poly("x^2+1junk+")


# ---------------------------------------------------------------------------
# evaluation matrices


def test_evaluation_matrix_standard4():
    c = standard_config(4)
    M = evaluation_matrix(c, 2)
    ker = nullspace(M)
    assert len(ker) == 2
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    A = x1 * (x2 - x3)
    B = x2 * (x1 - x3)
    span = QMatrix([A.coefficient_vector(2), B.coefficient_vector(2)]).rref()[0]
    got = QMatrix([list(v) for v in ker]).rref()[0]
    assert span == got


def test_evaluation_matrix_degree_one_full_rank():
    for n in (4, 5, 6):
        M = evaluation_matrix(standard_config(n), 1)
        assert len(nullspace(M)) == 0


def test_evaluation_matrix_betti_dimension(rng):
    for n in (4, 5, 6):
        c = random_points_config(n, rng)
        ker = nullspace(evaluation_matrix(c, 2))
        assert len(ker) == n * (n - 3) // 2  # b_1


def test_evaluation_matrix_ideal_dimensions_higher_degree(rng):
    # dim I(X)_d = dim S^d V - n for d >= 2 under general position
    from math import comb

    for n in (4, 5):
        c = random_points_config(n, rng)
        for d in (2, 3):
            ker = nullspace(evaluation_matrix(c, d))
            assert len(ker) == comb(n - 2 + d, d) - n


def test_evaluation_matrix_etale_dimensions():
    cfg = from_etale("t^5-t-1")
    assert len(nullspace(evaluation_matrix(cfg, 1))) == 0
    assert len(nullspace(evaluation_matrix(cfg, 2))) == 5


# ---------------------------------------------------------------------------
# transforms


def test_transform_between_identity():
    c = standard_config(5)
    g = transform_between(c, c)
    assert g == QMatrix.identity(4)


def test_transform_between_swap(rng):
    src = standard_config(4)
    pts = list(src.points)
    pts[0], pts[1] = pts[1], pts[0]
    dst = points_config(pts)
    g = transform_between(src, dst)
    for p, q in zip(src.points, dst.points):
        image = g.apply(p)
        lead = next(v for v in image if v)
        assert tuple(v / lead for v in image) == q


def test_transform_between_rejects_degenerate():
    src = standard_config(4)
    with pytest.raises(InputError):
        transform_between(src, points_config([(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_transform_round_trip_is_scalar(rng):
    a = random_points_config(4, rng)
    b = random_points_config(4, rng)
    g = transform_between(a, b) * transform_between(b, a)
    scalar = g.entries[0][0]
    assert scalar != 0
    assert g == QMatrix.identity(3).scale(scalar)


# ---------------------------------------------------------------------------
# coordinate ring tables


def test_coordinate_ring_table_standard_display():
    for n in (4, 5, 6):
        T = coordinate_ring_table(standard_config(n))
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    assert T.c0_at(i, i) == n - 1
                    assert T.c_at(i, i, i) == n - 2
                    assert all(T.c_at(i, i, k) == 0 for k in range(1, n) if k != i)
                else:
                    assert T.c0_at(i, j) == -1
                    assert T.c_at(i, j, i) == -1 and T.c_at(i, j, j) == -1
                    assert all(T.c_at(i, j, k) == 0 for k in range(1, n) if k not in (i, j))


def test_coordinate_ring_table_verifies(rng):
    for n in (4, 5):
        assert verify_table(coordinate_ring_table(random_points_config(n, rng))).ok
    assert verify_table(coordinate_ring_table(from_etale("t^4-t-1"))).ok


def test_etale_lambda_is_one():
    # canonical trace-zero basis means the unit itself scales the embedding
    from resrings.configs import _algebra_of, _unit_and_basis

    cfg = from_etale("t^4-2t-1")
    alg = _algebra_of(cfg)
    basis = _unit_and_basis(alg)
    assert basis[0] == alg.one
    # basis vectors 1..n-1 are lambda * alpha_j with lambda = 1
    assert basis[1:] == list(cfg.alphas)


def test_split_round_trip_isomorphic(rng):
    # random split etale algebra: points-embedding and etale presentation
    # produce tables that agree up to the basis scalar
    roots = []
    while len(roots) < 4:
        r = rng.randint(-8, 8)
        if r not in roots:
            roots.append(r)
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    cfg = from_etale(coeffs)
    pts = []
    for r in roots:
        pts.append([sum(a * Fraction(r) ** k for k, a in enumerate(alpha)) for alpha in cfg.alphas])
    T_points = coordinate_ring_table(points_config(pts))
    T_etale = coordinate_ring_table(cfg)
    assert isomorphic_up_to_scalar(T_points, T_etale) is not None


def test_trace_data_nondegenerate():
    td = trace_data(standard_config(5))
    assert td.gram.rows == 5 and td.nondegenerate
    assert td.gram == td.gram.transpose()
    td = trace_data(from_etale("t^3-t-1"))
    assert td.nondegenerate


def test_config_json_round_trip():
    c = standard_config(4)
    assert Configuration.from_json(c.to_json()) == c
    e = from_etale("t^5-t-1")
    assert Configuration.from_json(e.to_json()) == e
    with pytest.raises(InputError):
        Configuration.from_json({"kind": "nope", "n": 4})
