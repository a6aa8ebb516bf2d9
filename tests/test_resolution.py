import random
from fractions import Fraction

import pytest

from resrings.brackets import gl_act, omega
from resrings.configs import random_points_config, standard_config, from_etale
from resrings.errors import InputError
from resrings.resolution import (
    GradedFreeResolution,
    _complex_check,
    _exactness_check,
    _first_nonzero_entry,
    _grading_check,
    _syzygy_system,
    betti_numbers,
    build_resolution,
    integerize,
    resolution_ranks,
    resolution_twists,
    self_duality_check,
    transform_resolution,
    validate,
)
from resrings.symcore import (
    Polynomial,
    PolyMatrix,
    QMatrix,
    SparseRows,
    linear_substitution,
    monomials_of_degree,
    nullspace,
)


def test_betti_formula_values():
    assert resolution_ranks(4) == (1, 2, 1)
    assert resolution_ranks(5) == (1, 5, 5, 1)
    assert resolution_ranks(6) == (1, 9, 16, 9, 1)  # derived from b_i = n C(n-2,i) - C(n,i+1)
    assert resolution_ranks(7) == (1, 14, 35, 35, 14, 1)
    assert resolution_twists(5) == (0, 2, 3, 5)
    assert resolution_twists(3) == (0, 3)


def test_betti_palindromic():
    for n in range(4, 10):
        b = betti_numbers(n)
        assert b == b[::-1]
        assert b[0] == n * (n - 3) // 2


def test_build_standard4_matches_pencil(std_res):
    F = std_res(4)
    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    A = x1 * (x2 - x3)
    B = x2 * (x1 - x3)
    span = QMatrix([A.coefficient_vector(2), B.coefficient_vector(2)]).rref()[0]
    built = QMatrix([p.coefficient_vector(2) for p in F.maps[0].entries[0]]).rref()[0]
    assert span == built
    # phi_2 is proportional to (B, -A) rewritten in the built basis: check the
    # defining property instead: phi_1 phi_2 = 0 with a primitive integer column
    prod = F.maps[0] * F.maps[1]
    assert prod.is_zero()
    # the last column is the Koszul syzygy of the two generators, up to scalar
    G1, G2 = F.maps[0].entries[0]
    col = [F.maps[1].entries[i][0] for i in range(2)]
    assert col[0] * G1 == -col[1] * G2
    ratios = {c / d for c, d in ((col[0].terms[e], G2.terms[e]) for e in G2.terms)}
    assert len(ratios) == 1
    coeffs = [c for p in col for c in p.terms.values()]
    assert all(c.denominator == 1 for c in coeffs)
    from math import gcd

    g = 0
    for c in coeffs:
        g = gcd(g, c.numerator)
    assert g == 1


def test_build_shapes(std_res):
    assert std_res(5).ranks == (1, 5, 5, 1)
    assert std_res(6).ranks == (1, 9, 16, 9, 1)
    assert std_res(3).maps[0].rows == 1


def test_build_rejects_degenerate():
    from resrings.configs import points_config

    bad = points_config([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    with pytest.raises(InputError):
        build_resolution(bad)


def test_validate_passes_builder_output(rng):
    for n in (3, 4, 5):
        F = build_resolution(random_points_config(n, rng)) if n > 3 else build_resolution(standard_config(3))
        rep = validate(F)
        assert rep.ok, rep.first_failure()


def test_validate_detects_sign_flip(std_res):
    F = std_res(5)
    maps = list(F.maps)
    phi2 = maps[1]
    entries = [list(row) for row in phi2.entries]
    entries[0][0] = -entries[0][0]
    if entries[0][0].is_zero():
        entries[0][1] = -entries[0][1]
    maps[1] = PolyMatrix(entries)
    broken = GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)
    rep = validate(broken)
    failed = {name for name, ok, _ in rep.checks if not ok}
    assert "complex" in failed


def test_validate_detects_constant_term(std_res):
    F = std_res(4)
    maps = list(F.maps)
    entries = [list(row) for row in maps[0].entries]
    entries[0][0] = entries[0][0] + 1
    maps[0] = PolyMatrix(entries)
    broken = GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)
    rep = validate(broken)
    failed = {name for name, ok, _ in rep.checks if not ok}
    assert "minimality" in failed


def test_build_needs_no_fraction_elimination(monkeypatch):
    # coordinates up to 1000 need more than 30 primes on the 135x80 system;
    # the modular nullspace must finish without QMatrix.rref
    def refuse(self):
        raise AssertionError("QMatrix.rref called")

    monkeypatch.setattr(QMatrix, "rref", refuse)
    F = build_resolution(random_points_config(6, random.Random(7), bound=1000))
    assert F.ranks == resolution_ranks(6)


def test_determinism(rng):
    c = random_points_config(5, rng)
    assert build_resolution(c) == build_resolution(c)
    assert build_resolution(standard_config(6)) == build_resolution(standard_config(6))


# ---------------------------------------------------------------------------
# transforms


def test_transform_identity(std_res):
    F = std_res(5)
    out = transform_resolution(F, QMatrix.identity(4), standard_config(5))
    assert out.resolution == F
    assert out.configuration == standard_config(5)


def test_transform_round_trip(rng):
    F = build_resolution(random_points_config(4, rng))
    while True:
        g = QMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        if g.det() != 0:
            break
    back = transform_resolution(transform_resolution(F, g).resolution, g.inverse()).resolution
    assert back == F


def test_transform_validates_and_tracks_points(rng):
    c = random_points_config(5, rng)
    F = build_resolution(c)
    while True:
        g = QMatrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
        if g.det() != 0:
            break
    out = transform_resolution(F, g, c)
    assert validate(out.resolution).ok
    assert out.configuration is not None
    # the identified configuration really is g^{-T} applied to the points
    inv_t = g.inverse().transpose()
    for p, q in zip(c.points, out.configuration.points):
        image = inv_t.apply(p)
        lead = next(v for v in image if v)
        assert tuple(v / lead for v in image) == q


def test_transform_diagonal_omega_law(std_res):
    # diagonal case of the coordinate-change law:
    # new Omega_j = det(g) / lambda_j * (old Omega_j evaluated at x')
    F = std_res(5)
    lams = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5))
    g = QMatrix([[lams[i] if i == j else 0 for j in range(4)] for i in range(4)])
    det = Fraction(1)
    for v in lams:
        det *= v
    Om = omega(F)
    Om_new = omega(transform_resolution(F, g).resolution)
    for j in range(4):
        expected = linear_substitution(Om.forms[j], g) * (det / lams[j])
        assert Om_new.forms[j] == expected


def test_transform_unipotent_omega_law(std_res):
    # for g = I + t E_21: new Omega_j = Omega_j(x') - delta_{j1} t Omega_2(x')
    F = std_res(5)
    t = Fraction(3)
    g_entries = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    g_entries[1][0] = t
    g = QMatrix(g_entries)
    Om = omega(F)
    Om_new = omega(transform_resolution(F, g).resolution)
    for j in range(4):
        expected = linear_substitution(Om.forms[j], g)
        if j == 0:
            expected = expected - linear_substitution(Om.forms[1], g) * t
        assert Om_new.forms[j] == expected


def test_transform_general_omega_tensor_law(rng, std_res):
    # Omega' = det(g) (g . Omega) for arbitrary invertible g
    F = std_res(4)
    for _ in range(5):
        while True:
            g = QMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if g.det() != 0:
                break
        lhs = omega(transform_resolution(F, g).resolution)
        rhs = gl_act(g, omega(F)).scale(g.det())
        assert lhs == rhs


def test_transform_rejects_singular(std_res):
    with pytest.raises(InputError):
        transform_resolution(std_res(4), QMatrix.zero(3, 3))


# ---------------------------------------------------------------------------
# duality and integrality


def test_self_duality_standard(std_res):
    for n in (5, 6):
        rep = self_duality_check(std_res(n))
        assert rep.ok, rep.first_failure()


def test_self_duality_random(rng):
    rep = self_duality_check(build_resolution(random_points_config(5, rng)))
    assert rep.ok


def test_self_duality_rejects_wrong_shape(std_res):
    # a non-Gorenstein-shaped complex: break the last map so ranks mismatch
    F = std_res(5)
    maps = list(F.maps)[:-1] + [PolyMatrix([[Polynomial.zero(4)] for _ in range(5)])]
    broken = GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)
    rep = self_duality_check(broken)
    assert not rep.ok


def test_integerize(rng):
    for cfg in (random_points_config(4, rng), from_etale("t^4-t-1")):
        F = build_resolution(cfg)
        F_int, diagonals = integerize(F)
        for phi in F_int.maps:
            for row in phi.entries:
                for p in row:
                    assert all(v.denominator == 1 for v in p.terms.values())
        assert validate(F_int).ok
        assert len(diagonals) == len(F.maps)


def test_resolution_json_round_trip(std_res):
    F = std_res(5)
    assert GradedFreeResolution.from_json(F.to_json()) == F
    assert GradedFreeResolution.from_json(F.to_json()).scale == F.scale


# ---------------------------------------------------------------------------
# the one-prime exactness certificate


def _exactness_by_nullspace(F):
    """Kernel dimensions from the full certified nullspace at every step."""
    graded, detail = _grading_check(F)
    if not graded:
        return False, f"skipped, grading failed first ({detail})"
    for r in range(1, F.n - 2):
        delta = F.twists[r + 1] - F.twists[r]
        dim = len(nullspace(_syzygy_system(F.maps[r - 1], F.map_degree(r), delta)))
        if dim != F.ranks[r + 1]:
            return False, f"kernel of map {r} in degree {F.twists[r + 1]} has dimension {dim}, expected {F.ranks[r + 1]}"
    return True, ""


def _certificate_verdict(F, monkeypatch):
    """(ok, detail) of _exactness_check and the number of full nullspaces it ran."""
    from resrings import resolution

    calls = []

    def counted(system):
        calls.append(system.rows)
        return nullspace(system)

    monkeypatch.setattr(resolution, "nullspace", counted)
    verdict = _exactness_check(F, _complex_check(F)[0])
    monkeypatch.undo()
    return verdict, len(calls)


def _with_map(F, r, entries):
    maps = list(F.maps)
    maps[r] = PolyMatrix(entries)
    return GradedFreeResolution(F.n, F.ranks, F.twists, maps, F.scale)


def test_exactness_certificate_on_builder_output(std_res, monkeypatch):
    inputs = [std_res(n) for n in (4, 5, 6, 7)]
    inputs += [build_resolution(random_points_config(n, random.Random(seed))) for n, seed in ((5, 11), (6, 12))]
    for F in inputs:
        verdict, full = _certificate_verdict(F, monkeypatch)
        assert verdict == _exactness_by_nullspace(F) == (True, "")
        assert full == 0  # one prime settled every step


def test_exactness_certificate_falls_back_on_dependent_witness(std_res, monkeypatch):
    # phi_2 with its second column equal to the first, and phi_3 = 0 so that
    # the maps still form a complex: phi_2 is a dependent witness for the
    # syzygies of phi_1, which keep their dimension; the syzygies of phi_2
    # then grow, and the zero column of phi_3 is a dependent witness too
    F = std_res(5)
    entries = [list(row) for row in F.maps[1].entries]
    for row in entries:
        row[1] = row[0]
    G = _with_map(_with_map(F, 1, entries), 2, [[Polynomial.zero(4)] for _ in range(5)])
    assert _complex_check(G)[0]
    verdict, full = _certificate_verdict(G, monkeypatch)
    assert verdict == _exactness_by_nullspace(G)
    assert verdict[1].startswith("kernel of map 2 ")  # map 1 passed
    assert full == 2


def test_exactness_certificate_reports_wrong_dimension(std_res, monkeypatch):
    # one perturbed coefficient of phi_2 shrinks the syzygies of phi_2
    F = std_res(6)
    entries = [list(row) for row in F.maps[1].entries]
    entries[0][0] = entries[0][0] + Polynomial.variable(5, 1)
    G = _with_map(F, 1, entries)
    verdict, full = _certificate_verdict(G, monkeypatch)
    assert verdict == _exactness_by_nullspace(G)
    assert not verdict[0] and "has dimension" in verdict[1]
    assert full == 2


def test_exactness_certificate_skips_ungraded(std_res, monkeypatch):
    F = std_res(5)
    entries = [list(row) for row in F.maps[1].entries]
    entries[0][0] = entries[0][0] + Polynomial.variable(4, 1) ** 2
    G = _with_map(F, 1, entries)
    verdict, full = _certificate_verdict(G, monkeypatch)
    assert verdict == _exactness_by_nullspace(G)
    assert not verdict[0] and verdict[1].startswith("skipped, grading failed first")
    assert full == 0


def test_exactness_certificate_after_failed_complex_check(std_res, monkeypatch):
    # the sign-flip fixture of test_validate_detects_sign_flip
    F = std_res(5)
    entries = [list(row) for row in F.maps[1].entries]
    entries[0][0] = -entries[0][0]
    if entries[0][0].is_zero():
        entries[0][1] = -entries[0][1]
    G = _with_map(F, 1, entries)
    assert not _complex_check(G)[0]
    verdict, full = _certificate_verdict(G, monkeypatch)
    assert verdict == _exactness_by_nullspace(G)
    assert full >= 1


# ---------------------------------------------------------------------------
# the complex check read off the syzygy systems


def _complex_check_by_product(F):
    """The complex check as it was before it read S_r W_r: multiply the
    Fraction polynomial matrices and scan each product in row-major order.
    Entries are summed one at a time, so the scan stops at the first
    nonzero entry, with the verdict of scanning the whole product."""
    for r in range(len(F.maps) - 1):
        A, B = F.maps[r], F.maps[r + 1]
        for i in range(A.rows):
            for j in range(B.cols):
                entry = sum((A.entries[i][k] * B.entries[k][j] for k in range(A.cols)), Polynomial.zero(A.num_vars))
                if not entry.is_zero():
                    return False, f"(map {r + 1})(map {r + 2}) has nonzero entry at ({i},{j})"
    return True, ""


def _perturbed(F, r, i, j, exps, coeff):
    entries = [list(row) for row in F.maps[r].entries]
    entries[i][j] = entries[i][j] + Polynomial(F.n - 1, {exps: coeff})
    return _with_map(F, r, entries)


@pytest.mark.parametrize("n, r, sample", [(5, 1, None), (5, 0, None), (5, 2, None), (6, 2, 120)],
                         ids=["n=5 phi_2", "n=5 phi_1", "n=5 phi_3", "n=6 phi_3 sampled"])
def test_complex_check_matches_the_product_on_single_terms(std_res, n, r, sample):
    # one term added to phi_{r+1} on a standard resolution: at every entry
    # and every monomial of its degree, or at a seeded sample of them
    F = std_res(n)
    phi = F.maps[r]
    cases = [(i, j, exps) for i in range(phi.rows) for j in range(phi.cols)
             for exps in monomials_of_degree(n - 1, F.map_degree(r + 1))]
    if sample:
        cases = random.Random(n).sample(cases, sample)
    failures = set()
    for i, j, exps in cases:
        G = _perturbed(F, r, i, j, exps, Fraction(1))
        ok, detail = _complex_check(G)
        assert (ok, detail) == _complex_check_by_product(G)
        assert not ok
        failures.add(detail)
    assert len(failures) > 1


def test_first_nonzero_entry_scans_products_in_row_major_order():
    # S W^T with entry i covering rows 2i and 2i+1 of S: the smallest
    # column is taken over the whole block, not from its first nonzero row
    witness = SparseRows(2, [{1: Fraction(1)}, {0: Fraction(1)}])
    system = SparseRows(2, [{0: Fraction(1)}, {1: Fraction(1)}, {}, {}])
    assert _first_nonzero_entry(system, witness, 2) == (0, 0)
    system = SparseRows(2, [{}, {}, {0: Fraction(1)}, {1: Fraction(3)}])
    assert _first_nonzero_entry(system, witness, 2) == (1, 0)
    system = SparseRows(2, [{}, {}, {0: Fraction(1)}, {}])
    assert _first_nonzero_entry(system, witness, 2) == (1, 1)
    system = SparseRows(2, [{0: Fraction(2), 1: Fraction(-1)}, {}])
    assert _first_nonzero_entry(system, SparseRows(2, [{0: Fraction(1), 1: Fraction(2)}]), 1) is None


@pytest.mark.parametrize("config", [
    lambda: random_points_config(6, random.Random(6)),
    lambda: random_points_config(7, random.Random(7)),
    lambda: from_etale("t^6-t-1"),
], ids=["points 6", "points 7", "t^6-t-1"])
def test_complex_check_matches_the_product_on_perturbed_maps(config):
    F = build_resolution(config())
    assert _complex_check(F) == _complex_check_by_product(F) == (True, "")
    rng = random.Random(F.n)
    for r, phi in enumerate(F.maps):
        for _ in range(1 if F.n == 7 else 3):  # the reference product is slow at n=7
            exps = rng.choice(monomials_of_degree(F.n - 1, F.map_degree(r + 1)))
            G = _perturbed(F, r, rng.randrange(phi.rows), rng.randrange(phi.cols), exps,
                           Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5])))
            verdict = _complex_check(G)
            assert verdict == _complex_check_by_product(G)
            assert not verdict[0]


def test_validate_multiplies_no_polynomial_matrices(std_res, monkeypatch):
    from resrings import resolution

    def refuse(self, other):
        raise AssertionError("PolyMatrix.__mul__ called")

    monkeypatch.setattr(PolyMatrix, "__mul__", refuse)
    for F in (std_res(5), build_resolution(random_points_config(6, random.Random(3))), build_resolution(from_etale("t^5-t-1"))):
        assert validate(F).ok
        assert self_duality_check(F).ok

    calls = []

    def counted(*args):
        calls.append(args)
        return _syzygy_system(*args)

    monkeypatch.setattr(resolution, "_syzygy_system", counted)
    assert validate(std_res(7)).ok
    assert len(calls) == 4  # one system per product phi_r phi_{r+1}, shared by both checks


def test_validate_skips_the_complex_check_when_ungraded(std_res):
    F = std_res(5)
    entries = [list(row) for row in F.maps[1].entries]
    entries[0][0] = entries[0][0] + Polynomial.variable(4, 1) ** 2
    checks = {name: (ok, detail) for name, ok, detail in validate(_with_map(F, 1, entries)).checks}
    grading_detail = checks["grading"][1]
    assert not checks["grading"][0]
    skipped = (False, f"skipped, grading failed first ({grading_detail})")
    assert checks["complex"] == checks["exactness"] == skipped


def test_resolution_hash_is_computed_once(std_res, monkeypatch):
    F = GradedFreeResolution.from_json(std_res(6).to_json())
    calls = []
    polynomial_hash = Polynomial.__hash__

    def counted(self):
        calls.append(self)
        return polynomial_hash(self)

    monkeypatch.setattr(Polynomial, "__hash__", counted)
    first = hash(F)
    assert calls
    calls.clear()
    assert hash(F) == first
    assert not calls
    assert hash(GradedFreeResolution.from_json(F.to_json())) == first
