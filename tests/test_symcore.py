from fractions import Fraction
from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resrings.errors import InputError
from resrings.symcore import (
    Polynomial,
    PolyMatrix,
    QMatrix,
    linear_substitution,
    monomials_of_degree,
    nullspace,
    partial_derivative,
    rational_from_json,
    rational_to_json,
)

# ---------------------------------------------------------------------------
# strategies

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def polynomials(num_vars=3, max_degree=3, max_terms=5):
    exps = st.tuples(*(st.integers(0, max_degree) for _ in range(num_vars)))
    return st.dictionaries(exps, rationals, max_size=max_terms).map(
        lambda d: Polynomial(num_vars, d)
    )


# ---------------------------------------------------------------------------
# rationals and monomial order


def test_rational_json_forms():
    assert rational_to_json(Fraction(3, 4)) == "3/4"
    assert rational_to_json(Fraction(-7)) == "-7"
    assert rational_from_json("3/4") == Fraction(3, 4)
    assert rational_from_json("-7") == Fraction(-7)
    with pytest.raises(InputError):
        rational_from_json("x")


def test_monomial_order_degree_two():
    assert monomials_of_degree(3, 2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )


def test_monomial_count():
    from math import comb

    for nv in (2, 3, 4):
        for d in (1, 2, 3, 4):
            assert len(monomials_of_degree(nv, d)) == comb(nv + d - 1, d)


# ---------------------------------------------------------------------------
# polynomial ring axioms


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), st.integers(1, 3))
def test_leibniz_rule(p, q, j):
    lhs = (p * q).derivative(j)
    rhs = p.derivative(j) * q + p * q.derivative(j)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.data())
def test_euler_identity(d, data):
    mons = monomials_of_degree(3, d)
    coeffs = data.draw(st.lists(rationals, min_size=len(mons), max_size=len(mons)))
    p = Polynomial.from_coefficient_vector(3, d, coeffs)
    total = Polynomial.zero(3)
    for j in (1, 2, 3):
        total = total + Polynomial.variable(3, j) * p.derivative(j)
    assert total == p * d


def test_power_rule_examples():
    x1 = Polynomial.variable(3, 1)
    x2 = Polynomial.variable(3, 2)
    p = x1 * x2 * x2
    assert p.derivative(2) == 2 * x1 * x2
    assert Polynomial.constant(3, 5).derivative(1).is_zero()


def test_homogeneity_checks():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert (x1 * x2).is_homogeneous(2)
    assert not (x1 + x1 * x2).is_homogeneous()
    assert Polynomial.zero(2).is_homogeneous(7)


# ---------------------------------------------------------------------------
# partial derivative of matrices (the spec examples)


def test_partial_derivative_matrix_example():
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    M = PolyMatrix([[x1 * (x2 - x3), x2 * (x1 - x3)]])
    D = partial_derivative(M, 1)
    assert D.entries[0][0] == x2 - x3
    assert D.entries[0][1] == x2


def test_partial_derivative_constant_matrix():
    M = PolyMatrix([[Polynomial.constant(2, 4), Polynomial.constant(2, -1)]])
    assert partial_derivative(M, 1).is_zero()


def test_partial_derivative_range_error():
    M = PolyMatrix([[Polynomial.variable(2, 1)]])
    with pytest.raises(InputError):
        partial_derivative(M, 3)


# ---------------------------------------------------------------------------
# linear substitution


def test_substitution_identity_and_diag():
    x1 = Polynomial.variable(2, 1)
    assert linear_substitution(x1, QMatrix.identity(2)) == x1
    g = QMatrix([[2, 0], [0, 3]])
    assert linear_substitution(x1, g) == 2 * x1


def test_substitution_swap_symmetry():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    g = QMatrix([[0, 1], [1, 0]])
    assert linear_substitution(x1 * x2, g) == x1 * x2


def test_substitution_dimension_error():
    with pytest.raises(InputError):
        linear_substitution(Polynomial.variable(3, 1), QMatrix.identity(2))


@settings(max_examples=30, deadline=None)
@given(polynomials(num_vars=2, max_degree=2), st.data())
def test_substitution_composition_law(p, data):
    ints = st.integers(-3, 3)
    g = QMatrix([[data.draw(ints) for _ in range(2)] for _ in range(2)])
    h = QMatrix([[data.draw(ints) for _ in range(2)] for _ in range(2)])
    lhs = linear_substitution(linear_substitution(p, h), g)
    rhs = linear_substitution(p, g * h)
    assert lhs == rhs


def test_substitution_invertible_round_trip(rng):
    p = Polynomial(3, {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-3)})
    while True:
        g = QMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        if g.det() != 0:
            break
    assert linear_substitution(linear_substitution(p, g), g.inverse()) == p


def test_substitution_preserves_homogeneous_degree(rng):
    p = Polynomial(3, {(2, 1, 0): Fraction(1), (0, 2, 1): Fraction(4)})
    g = QMatrix([[1, 2, 0], [0, 1, 5], [3, 0, 1]])
    q = linear_substitution(p, g)
    assert q.is_homogeneous(3)


# ---------------------------------------------------------------------------
# exact linear algebra


def test_nullspace_spec_examples():
    assert nullspace(QMatrix([[1, 1]])) == [(Fraction(-1), Fraction(1))]
    assert nullspace(QMatrix.identity(3)) == []
    assert len(nullspace(QMatrix.zero(2, 3))) == 3


def test_rref_idempotent(rng):
    M = QMatrix([[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)])
    R1, piv1 = M.rref()
    R2, piv2 = R1.rref()
    assert R1 == R2 and piv1 == piv2


def test_rank_nullity(rng):
    for _ in range(10):
        M = QMatrix(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(6)] for _ in range(4)]
        )
        assert M.rank() + len(nullspace(M)) == M.cols
        for v in nullspace(M):
            assert all(x == 0 for x in M.apply(v))


def test_rank_invariant_under_permutation(rng):
    rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
    M = QMatrix(rows)
    perm = list(range(4))
    rng.shuffle(perm)
    P = QMatrix([[int(perm[i] == j) for j in range(4)] for i in range(4)])
    assert M.rank() == (P * M).rank() == (M * P).rank()


def test_det_multiplicative(rng):
    for _ in range(10):
        A = QMatrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        B = QMatrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        assert (A * B).det() == A.det() * B.det()


def test_inverse_and_solve(rng):
    A = QMatrix([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    assert A * A.inverse() == QMatrix.identity(3)
    rhs = QMatrix([[1], [0], [2]])
    x = A.solve(rhs)
    assert A * x == rhs
    with pytest.raises(InputError):
        QMatrix([[1, 1], [1, 1]]).inverse()


def _nullspace_from_rref(red, pivots, ncols):
    """Reference kernel: the canonical basis read off a Fraction rref."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            if p < f:
                v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return basis


def test_modular_nullspace_matches_exact(rng, monkeypatch):
    from resrings import _modnull

    primes = []
    rref_mod_p = _modnull._rref_mod_p

    def counted(rows, p):
        primes.append(p)
        return rref_mod_p(rows, p)

    monkeypatch.setattr(_modnull, "_rref_mod_p", counted)

    matrices = [
        QMatrix([[Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(12)] for _ in range(8)])
        for _ in range(5)
    ]
    # the 6x6 minors of entries near 10^40 need more than 30 primes
    big = QMatrix([[rng.randint(-10**40, 10**40) for _ in range(8)] for _ in range(6)])
    matrices += [
        big,
        QMatrix.zero(3, 5),
        QMatrix([[1, 2, 0], [0, 1, 3], [4, 0, 1], [2, 2, 2]]),  # full column rank
        QMatrix([[0, Fraction(3, 7), -2, 5]]),
    ]
    for M in matrices:
        primes.clear()
        red, piv = M.rref()
        assert _modnull.modular_nullspace(M) == _nullspace_from_rref(red, piv, M.cols)
        if M is big:
            assert len(primes) > 30
    assert _modnull.modular_nullspace(matrices[-2]) == []


def test_rational_reconstruction_past_float_range():
    # 40 primes near 2^30 make a modulus above 2^1024, beyond any float
    from resrings._modnull import _is_prime, _rat_reconstruct

    primes = list(islice(filter(_is_prime, range((1 << 30) - 1, 1 << 29, -2)), 40))
    m = prod(primes)
    assert m > 1 << 1100
    assert _rat_reconstruct(-7 * pow(3, -1, m) % m, m) == Fraction(-7, 3)


def test_polymatrix_product_grading():
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    A = PolyMatrix([[x1, x2 + x3]])
    B = PolyMatrix([[x2 * x3], [x1 * x1]])
    prod = A * B
    assert prod.rows == prod.cols == 1
    assert prod.entries[0][0].is_homogeneous(3)
    with pytest.raises(InputError):
        B * B


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_polymatrix_product_is_the_sum_of_entry_products(data):
    rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    small = polynomials(max_degree=2, max_terms=4)
    A = PolyMatrix([[data.draw(small) for _ in range(inner)] for _ in range(rows)])
    B = PolyMatrix([[data.draw(small) for _ in range(cols)] for _ in range(inner)])
    expected = [
        [sum((A.entries[i][k] * B.entries[k][j] for k in range(inner)), Polynomial.zero(3)) for j in range(cols)]
        for i in range(rows)
    ]
    product = A * B
    assert product.entries == tuple(map(tuple, expected))
    assert all(c for row in product.entries for p in row for c in p.terms.values())


def test_json_round_trips(rng):
    p = Polynomial(3, {(1, 0, 2): Fraction(3, 7), (0, 1, 0): Fraction(-2)})
    assert Polynomial.from_json(p.to_json()) == p
    M = PolyMatrix([[p, p * p], [Polynomial.zero(3), p + 1]])
    assert PolyMatrix.from_json(M.to_json()) == M
    Q = QMatrix([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert QMatrix.from_json(Q.to_json()) == Q
