import itertools
import random
from fractions import Fraction

import pytest

from resrings.brackets import (
    OmegaTensor,
    a_form,
    brace,
    bracket,
    double_bracket,
    epsilon_ij,
    epsilon_ijk,
    gl_act,
    omega,
    perm_sign,
)
from resrings.classical import BinaryCubic
from resrings.configs import from_etale, random_points_config, standard_config, transform_between
from resrings.errors import InputError
from resrings.resolution import GradedFreeResolution, build_resolution
from resrings.symcore import Polynomial, PolyMatrix, QMatrix, partial_derivative


def example_2_4_resolution():
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    A = x1 * (x2 - x3)
    B = x2 * (x1 - x3)
    return GradedFreeResolution(
        4, (1, 2, 1), (0, 2, 4), [PolyMatrix([[A, B]]), PolyMatrix([[B], [-A]])]
    )


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1
    assert perm_sign((1, 1, 2)) == 0


def test_epsilon_signs():
    assert epsilon_ij(5, 1, 2) == 1
    assert epsilon_ij(5, 2, 1) == -1
    assert epsilon_ijk(5, 1, 2, 3) == 1
    assert epsilon_ijk(5, 2, 1, 3) == -1
    assert epsilon_ijk(6, 3, 1, 2) == 1


# ---------------------------------------------------------------------------
# brackets


def test_bracket_n3_is_partial_derivative():
    f = BinaryCubic.of(2, -1, 3, 5)
    F = f.resolution()
    fx = f.polynomial().derivative(1)
    assert bracket(F, (1,)) == fx
    assert bracket(F, (2,)) == f.polynomial().derivative(2)


def test_bracket_example_2_4():
    F = example_2_4_resolution()
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    assert bracket(F, (1, 2)) == x3 * (x3 - x1 - x2)
    assert bracket(F, (2, 1)) == -bracket(F, (1, 2))


def test_bracket_rejects_bad_words():
    F = example_2_4_resolution()
    with pytest.raises(InputError):
        bracket(F, (1,))
    with pytest.raises(InputError):
        bracket(F, (1, 5))


def test_double_bracket_n4_doubles():
    F = example_2_4_resolution()
    for w in ((1, 2), (3, 1), (2, 2)):
        assert double_bracket(F, w) == 2 * bracket(F, w)


def test_double_bracket_repeat_vanishes(std_res):
    F = std_res(5)
    assert double_bracket(F, (1, 1, 2)).is_zero()
    assert double_bracket(F, (3, 2, 3)).is_zero()


def test_double_bracket_swap_negates(std_res, rng):
    F = std_res(6)
    for _ in range(10):
        w = [rng.randint(1, 5) for _ in range(4)]
        i, j = rng.sample(range(4), 2)
        swapped = list(w)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert double_bracket(F, tuple(swapped)) == -double_bracket(F, tuple(w))


# ---------------------------------------------------------------------------
# omega


def test_omega_n3_closed_forms():
    f = BinaryCubic.of(1, 2, -3, 4)
    Om = omega(f.resolution())
    a, b, c, d = f.a, f.b, f.c, f.d
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert Om.forms[0] == -(b * x1 * x1 + 2 * c * x1 * x2 + 3 * d * x2 * x2)
    assert Om.forms[1] == 3 * a * x1 * x1 + 2 * b * x1 * x2 + c * x2 * x2


def test_omega_example_2_4():
    Om = omega(example_2_4_resolution())
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    assert Om.forms[2] == 2 * x3 * (x1 + x2 - x3)


def test_omega_standard_proportional(std_res):
    for n in (3, 4, 5, 6):
        Om = omega(std_res(n))
        m = n - 1
        xs = [Polynomial.variable(m, j) for j in range(1, n)]
        total = sum(xs[1:], xs[0])
        ratios = set()
        for i in range(m):
            target = n * xs[i] * xs[i] - 2 * xs[i] * total
            assert set(target.terms) == set(Om.forms[i].terms)
            ratios |= {Om.forms[i].terms[e] / c for e, c in target.terms.items()}
        assert len(ratios) == 1 and 0 not in ratios


def test_gl_action_group_law(rng):
    Om = omega(example_2_4_resolution())
    for _ in range(5):
        while True:
            g = QMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            h = QMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if g.det() != 0 and h.det() != 0:
                break
        assert gl_act(g, gl_act(h, Om)) == gl_act(g * h, Om)


def test_omega_tensor_json_round_trip():
    Om = omega(example_2_4_resolution())
    assert OmegaTensor.from_json(Om.to_json()) == Om


# ---------------------------------------------------------------------------
# basis independence (the defined-up-to-scalar remark)


def test_omega_invariant_under_interior_basis_change(std_res, rng):
    F = std_res(5)
    Om = omega(F)
    for module in (1, 2):  # change basis of F_1 or F_2
        while True:
            U = QMatrix([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
            if U.det() != 0:
                break
        Uinv = U.inverse()
        maps = list(F.maps)
        # phi_module -> phi_module U, phi_{module+1} -> U^{-1} phi_{module+1}
        phi = maps[module - 1]
        maps[module - 1] = PolyMatrix(
            [
                [
                    sum(
                        (phi.entries[i][k] * U.entries[k][j] for k in range(phi.cols)),
                        Polynomial.zero(4),
                    )
                    for j in range(phi.cols)
                ]
                for i in range(phi.rows)
            ]
        )
        nxt = maps[module]
        maps[module] = PolyMatrix(
            [
                [
                    sum(
                        (nxt.entries[k][j] * Uinv.entries[i][k] for k in range(nxt.rows)),
                        Polynomial.zero(4),
                    )
                    for j in range(nxt.cols)
                ]
                for i in range(nxt.rows)
            ]
        )
        changed = GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)
        assert omega(changed) == Om


def test_omega_scales_with_last_map(std_res):
    F = std_res(5)
    mu = Fraction(3, 7)
    maps = list(F.maps)
    maps[-1] = maps[-1].scale(mu)
    scaled = GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)
    assert omega(scaled) == omega(F).scale(mu)


# ---------------------------------------------------------------------------
# braces


def test_brace_example_standard4(std_res):
    # with the hand-built Example 2.4 basis: {1,2,1,3} = P(1,2).Q(1,3) = 1
    F = example_2_4_resolution()
    assert brace(F, (1, 2, 1, 3)) == 1
    # squares of variables never appear in the four-point pencil
    assert brace(F, (1, 1, 2, 3)) == 0
    assert brace(F, (2, 2, 1, 3)) == 0


def test_brace_head_and_tail_symmetric(std_res, rng):
    F = std_res(5)
    for _ in range(20):
        w = [rng.randint(1, 4) for _ in range(5)]
        swapped_head = [w[1], w[0]] + w[2:]
        swapped_tail = w[:3] + [w[4], w[3]]
        v = brace(F, tuple(w))
        assert brace(F, tuple(swapped_head)) == v
        assert brace(F, tuple(swapped_tail)) == v


def test_brace_needs_n_at_least_4():
    f = BinaryCubic.of(1, 0, -1, -1)
    with pytest.raises(InputError):
        brace(f.resolution(), (1, 2, 1))


# ---------------------------------------------------------------------------
# the representative-independent two-brace combination


def test_a_form_regression_n5(std_res):
    F = std_res(5)
    assert a_form(F, 1, 2, (3, 4)) == -1
    assert a_form(F, 2, 4, (1, 3)) == 1
    assert a_form(F, 3, 1, (2, 4)) == -1


def test_a_form_representative_independent(std_res, rng):
    F = std_res(6)
    for _ in range(10):
        i, j = rng.sample(range(1, 6), 2)
        comp = [v for v in range(1, 6) if v not in (i, j)]
        w1 = comp[:]
        rng.shuffle(w1)
        w2 = comp[:]
        rng.shuffle(w2)
        assert a_form(F, i, j, tuple(w1)) == a_form(F, i, j, tuple(w2))


def test_a_form_swap_last_two(std_res):
    F = std_res(6)
    w = (2, 4, 5)
    swapped = (2, 5, 4)
    assert a_form(F, 1, 3, w) == a_form(F, 1, 3, swapped)


def test_a_form_rejects_bad_word(std_res):
    with pytest.raises(InputError):
        a_form(std_res(5), 1, 2, (3, 3))


# ---------------------------------------------------------------------------
# the section-10 indicator identities at the single-bracket level


def _sign_between(source, target):
    """Sign of the permutation taking the word `source` to the word `target`."""
    src = list(source)
    perm = []
    used = [False] * len(src)
    for t in target:
        for pos, v in enumerate(src):
            if v == t and not used[pos]:
                used[pos] = True
                perm.append(pos)
                break
    return perm_sign(perm) if len(perm) == len(src) else 0


def _dd(p, u, v):
    return p.derivative(u).derivative(v).constant_term()


@pytest.mark.parametrize("n", [5, 6, 7])
def test_indicator_identity_mixed(std_res, n):
    F = std_res(n)
    rng = random.Random(n * 101)
    for _ in range(12):
        i, j, k = rng.sample(range(1, n), 3)
        word = [v for v in range(1, n) if v != k]
        rng.shuffle(word)
        rest = tuple(v for v in range(1, n) if v not in (i, j, k))
        target = (i,) + rest + (j,)
        sign = _sign_between(word, target)
        ind = 2 + (i in (word[0], word[-1])) + (j in (word[0], word[-1]))
        lhs = _dd(bracket(F, tuple(word)), i, j)
        rhs = sign * ind * brace(F, (i, i) + rest + (j, j))
        assert lhs == rhs, (n, word, i, j, k)
        # and the double-bracket version carries the clean 2n factor
        lhs2 = _dd(double_bracket(F, tuple(word)), i, j)
        assert lhs2 == sign * 2 * n * brace(F, (i, i) + rest + (j, j))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_indicator_identity_square(std_res, n):
    F = std_res(n)
    rng = random.Random(n * 103)
    for _ in range(12):
        i, j = rng.sample(range(1, n), 2)
        word = [v for v in range(1, n) if v != j]
        rng.shuffle(word)
        rest = tuple(v for v in range(1, n) if v not in (i, j))
        sign = _sign_between(word, (i,) + rest)
        ind = 2 * (1 + (i in (word[0], word[-1])))
        lhs = _dd(bracket(F, tuple(word)), i, i)
        assert lhs == sign * ind * brace(F, (i, i) + rest + (i,))
        lhs2 = _dd(double_bracket(F, tuple(word)), i, i)
        assert lhs2 == sign * 2 * n * brace(F, (i, i) + rest + (i,))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_indicator_identity_split_pair(std_res, n):
    F = std_res(n)
    rng = random.Random(n * 107)
    for _ in range(12):
        i, j, k = rng.sample(range(1, n), 3)
        block = [v for v in range(1, n) if v not in (j, k)]
        rng.shuffle(block)
        r = rng.randint(0, len(block))
        s = len(block) - r
        a_part, b_part = block[:r], block[r:]
        rest = tuple(v for v in range(1, n) if v not in (i, j, k))
        sign = _sign_between(tuple(block), (i,) + rest)
        members = set()
        if r:
            members.add(a_part[0])
        if s:
            members.add(b_part[-1])
        ind = 2 + (i in members) + (r * s == 0)
        word_k = tuple(a_part) + (k,) + tuple(b_part)
        word_j = tuple(a_part) + (j,) + tuple(b_part)
        lhs = _dd(bracket(F, word_k), i, j) + _dd(bracket(F, word_j), i, k)
        rhs = sign * ((-1) ** s) * ind * brace(F, (i, i) + rest + (j, k))
        assert lhs == rhs, (n, a_part, b_part, i, j, k)
        lhs2 = _dd(double_bracket(F, word_k), i, j) + _dd(double_bracket(F, word_j), i, k)
        assert lhs2 == sign * ((-1) ** s) * 2 * n * brace(F, (i, i) + rest + (j, k))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_indicator_identity_a_form(std_res, n):
    F = std_res(n)
    rng = random.Random(n * 109)
    for _ in range(12):
        i, j = rng.sample(range(1, n), 2)
        block = [v for v in range(1, n) if v not in (i, j)]
        rng.shuffle(block)
        r = rng.randint(0, len(block))
        s = len(block) - r
        a_part, b_part = block[:r], block[r:]
        rest = tuple(v for v in range(1, n) if v not in (i, j))
        sign = _sign_between(tuple(block), rest)
        word_j = tuple(a_part) + (j,) + tuple(b_part)
        word_i = tuple(a_part) + (i,) + tuple(b_part)
        A = a_form(F, i, j, rest)
        lhs = _dd(bracket(F, word_j), i, i) + 2 * _dd(bracket(F, word_i), i, j)
        rhs = sign * ((-1) ** r) * 2 * (1 + (r * s == 0)) * A
        assert lhs == rhs, (n, a_part, b_part, i, j)
        lhs2 = _dd(double_bracket(F, word_j), i, i) + 2 * _dd(double_bracket(F, word_i), i, j)
        assert lhs2 == sign * ((-1) ** r) * 2 * n * A


# ---------------------------------------------------------------------------
# the integer contractions against the Fraction folds they replaced


def _reference_calculus(F):
    """bracket and brace as Fraction folds through dense derivative matrices."""
    derivs = [[partial_derivative(phi, v) for v in range(1, F.n)] for phi in F.maps]
    zero = (0,) * (F.n - 1)
    consts = [
        [QMatrix([[p.coefficient(zero) for p in row] for row in derivs[r - 1][v - 1].entries])
         for v in range(1, F.n)]
        for r in range(2, F.n - 2)
    ]

    def bracket_ref(w):
        row = list(derivs[0][w[0] - 1].entries[0])
        for r in range(2, F.n - 2):
            M = consts[r - 2][w[r - 1] - 1]
            row = [sum((row[i] * M.entries[i][j] for i in range(M.rows) if M.entries[i][j]),
                       Polynomial.zero(F.n - 1)) for j in range(M.cols)]
        col = derivs[F.n - 3][w[-1] - 1]
        return sum((p * col.entries[i][0] for i, p in enumerate(row)), Polynomial.zero(F.n - 1))

    def quadratic_rows(phi, i, j):
        e = [0] * phi.num_vars
        e[i - 1] += 1
        e[j - 1] += 1
        return [p.coefficient(e) for row in phi.entries for p in row]

    def brace_ref(w):
        row = QMatrix([quadratic_rows(F.maps[0], w[0], w[1])])
        for t, a in enumerate(w[2:F.n - 2]):
            row = row * consts[t][a - 1]
        Q = quadratic_rows(F.maps[-1], w[-2], w[-1])
        return sum((p * q for p, q in zip(row.entries[0], Q)), Fraction(0))

    return bracket_ref, brace_ref


def _table1_words(n):
    """The brace words table1_check reads, and the bracket words of its omega."""
    braces = []
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            braces.append((i, i) + tuple(v for v in range(1, n) if v not in (i, j)) + (i,))
            for k in range(1, n):
                if len({i, j, k}) == 3:
                    rest = tuple(v for v in range(1, n) if v not in (i, j, k))
                    braces += [(i, i) + rest + (j, j), (i, i) + rest + (j, k), (i, j) + rest + (k, i)]
    brackets = []
    for j in range(1, n):
        w = tuple(v for v in range(1, n) if v != j)
        brackets += [w[s:] + w[:s] for s in range(n - 2)]
    return braces, brackets


@pytest.mark.parametrize("make", [lambda: standard_config(6), lambda: from_etale("t^7-t-1")],
                         ids=["std6", "t^7-t-1"])
def test_contractions_equal_the_fraction_folds(make):
    F = build_resolution(make())
    bracket_ref, brace_ref = _reference_calculus(F)
    brace_words, bracket_words = _table1_words(F.n)
    assert len(brace_words) == (F.n - 1) * (F.n - 2) * (1 + 3 * (F.n - 3))
    for w in brace_words:
        assert brace(F, w) == brace_ref(w), w
    for w in bracket_words:
        assert bracket(F, w) == bracket_ref(w), w


def test_contractions_n4_equal_the_fraction_folds(std_res):
    for F in (example_2_4_resolution(), std_res(4), build_resolution(from_etale("t^4-t-1"))):
        bracket_ref, brace_ref = _reference_calculus(F)
        for w in itertools.product(range(1, 4), repeat=2):
            assert bracket(F, w) == bracket_ref(w)
        for w in itertools.product(range(1, 4), repeat=4):
            assert brace(F, w) == brace_ref(w)


def test_calculus_rejects_inhomogeneous_maps(std_res):
    F = std_res(5)
    maps = list(F.maps)
    maps[1] = PolyMatrix([[p + 1 if (i, j) == (0, 0) else p for j, p in enumerate(row)]
                          for i, row in enumerate(maps[1].entries)])
    bad = GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)
    with pytest.raises(InputError, match="homogeneous"):
        omega(bad)


# ---------------------------------------------------------------------------
# equivariance: omega of a configuration is the transported standard omega


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_omega_is_transported_from_the_standard_configuration(std_res, n):
    c = random_points_config(n, random.Random(f"equivariance:{n}"))
    h = transform_between(standard_config(n), c)
    moved = gl_act(h.inverse().transpose(), omega(std_res(n)))
    Om = omega(build_resolution(c))
    ratios = {a / b for f, g in zip(Om.forms, moved.forms) for a, b in
              ((f.terms.get(e, 0), g.terms.get(e, 0)) for e in set(f.terms) | set(g.terms))
              if b}
    assert len(ratios) == 1 and 0 not in ratios
    assert Om == moved.scale(ratios.pop())
