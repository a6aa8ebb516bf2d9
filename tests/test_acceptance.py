"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  All expected values are either derived from independent oracles
in the module-level tests or checked against closed-form constants.
"""

import itertools
import random
import time
from fractions import Fraction

from resrings.brackets import bracket, gl_act, omega, perm_sign
from resrings.classical import BinaryCubic, ldf_equivalence_check, quartic_identities_check
from resrings.configs import (
    coordinate_ring_table,
    from_etale,
    random_points_config,
)
from resrings.resolution import (
    betti_numbers,
    build_resolution,
    transform_resolution,
)
from resrings.ringalg import isomorphic_up_to_scalar, structure_constants, verify_table
from resrings.suites import (
    standard_resolution,
    suite_koszul,
    suite_orders,
    suite_symmetries,
    suite_table1,
)
from resrings.symcore import Polynomial, QMatrix

SEED = 20260810


def report(criterion: str, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_betti_shapes():
    """20 seeded random configurations per n in 4..7: exact Betti numbers,
    complex property, minimality; timed."""
    rng = random.Random(SEED)
    t_small = 0.0
    t_total = 0.0
    for n in (4, 5, 6, 7):
        expected = (1,) + betti_numbers(n) + (1,)
        t0 = time.time()
        for _ in range(20):
            cfg = random_points_config(n, rng)
            F = build_resolution(cfg)
            assert F.ranks == expected
            for r in range(len(F.maps) - 1):
                assert (F.maps[r] * F.maps[r + 1]).is_zero()
            for phi in F.maps:
                for row in phi.entries:
                    for p in row:
                        assert p.constant_term() == 0
        dt = time.time() - t0
        t_total += dt
        if n <= 6:
            t_small += dt
    assert t_small < 60, f"n<=6 took {t_small:.1f}s, budget 60s"
    assert t_total < 600, f"all n took {t_total:.1f}s, budget 600s"
    report("1 (Betti shapes)", f"n<=6 in {t_small:.1f}s, n<=7 in {t_total:.1f}s")


def test_criterion_2_standard_omega():
    """Omega of the standard configuration is exactly proportional to
    n x_i^2 - 2 x_i sum(x_j), one constant for all i, for n in 3..8."""
    for n in range(3, 9):
        F = standard_resolution(n)
        Om = omega(F)
        m = n - 1
        xs = [Polynomial.variable(m, j) for j in range(1, n)]
        total = sum(xs[1:], xs[0])
        ratios = set()
        for i in range(m):
            target = n * xs[i] * xs[i] - 2 * xs[i] * total
            assert set(target.terms) == set(Om.forms[i].terms), (n, i)
            ratios |= {Om.forms[i].terms[e] / c for e, c in target.terms.items()}
        assert len(ratios) == 1 and 0 not in ratios, (n, ratios)
        if n == 3:
            # the closed cubic forms: Omega_1 = -(b x^2 + 2c xy + 3d y^2), etc.
            cubic = F.maps[0].entries[0][0]
            a, b = cubic.coefficient((3, 0)), cubic.coefficient((2, 1))
            c, d = cubic.coefficient((1, 2)), cubic.coefficient((0, 3))
            x1, x2 = xs
            assert Om.forms[0] == -(b * x1 * x1 + 2 * c * x1 * x2 + 3 * d * x2 * x2)
            assert Om.forms[1] == 3 * a * x1 * x1 + 2 * b * x1 * x2 + c * x2 * x2
    report("2 (standard omega)", "n = 3..8, single exact constant")


def test_criterion_3_key_lemma():
    """Every bracket of the standard resolution on a permutation word equals
    sign * lambda * (x_b - x_{a_1} - x_{a_{n-2}}) x_b with one lambda."""
    consts = {}
    for n in (4, 5, 6, 7, 8):
        F = standard_resolution(n)
        m = n - 1
        xs = [Polynomial.variable(m, j) for j in range(1, n)]
        if n <= 7:
            words = list(itertools.permutations(range(1, n)))
        else:
            rng = random.Random(SEED + n)
            pool = list(range(1, n))
            words = []
            for _ in range(200):
                rng.shuffle(pool)
                words.append(tuple(pool))
        ratios = set()
        for wordb in words:
            word, b = wordb[:-1], wordb[-1]
            target = (xs[b - 1] - xs[word[0] - 1] - xs[word[-1] - 1]) * xs[b - 1]
            br = bracket(F, word)
            assert set(br.terms) == set(target.terms), (n, wordb)
            rs = {br.terms[e] / c for e, c in target.terms.items()}
            assert len(rs) == 1, (n, wordb)
            ratios.add(rs.pop() / perm_sign(wordb))
        assert len(ratios) == 1 and 0 not in ratios, (n, ratios)
        consts[n] = ratios.pop()
    report("3 (key lemma)", f"sign constants by n: { {k: str(v) for k, v in consts.items()} }")


def test_criterion_4_symmetry_suite():
    """100 seeded cases per identity per n in 5..7, all exact."""
    rep = suite_symmetries(ns=(5, 6, 7), seed=SEED, cases=100)
    assert rep.ok, rep.failures[:5]
    report("4 (symmetry suite)", f"{len(rep.checks)} cases")


def test_criterion_5_theorem_10_1():
    """All four epsilon-signed identities on every distinct triple, standard
    and random configurations, n in 5..7."""
    rep = suite_table1(ns=(5, 6, 7), seed=SEED, cases=1)
    assert rep.ok, rep.failures[:3]
    report("5 (Theorem 10.1)", f"{len(rep.checks)} resolutions")


def test_criterion_6_quartic_identities():
    """The four n=4 bracket/brace equations plus both antisymmetries, on the
    four-point pencil and on 20 random quadruples."""
    from resrings.symcore import PolyMatrix
    from resrings.resolution import GradedFreeResolution

    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    A, B = x1 * (x2 - x3), x2 * (x1 - x3)
    example = GradedFreeResolution(
        4, (1, 2, 1), (0, 2, 4), [PolyMatrix([[A, B]]), PolyMatrix([[B], [-A]])]
    )
    rep = quartic_identities_check(example)
    assert rep.ok, rep.failures[:3]
    rng = random.Random(SEED + 6)
    for _ in range(20):
        cfg = random_points_config(4, rng)
        rep = quartic_identities_check(build_resolution(cfg))
        assert rep.ok, rep.failures[:3]
    report("6 (n=4 identities)", "pencil + 20 random quadruples")


def test_criterion_7_end_to_end():
    """structure_constants(hessian) passes the full table verification and
    matches the coordinate ring up to scalar; random and etale inputs."""
    rng = random.Random(SEED + 7)
    cases = []
    for n in (4, 5, 6):
        cases.extend((f"n={n} random", random_points_config(n, rng)) for _ in range(5))
    cases.extend((f"n=7 random", random_points_config(7, rng)) for _ in range(3))
    cases.append(("etale t^4-t-1", from_etale("t^4-t-1")))
    cases.append(("etale t^5-t-1", from_etale("t^5-t-1")))
    for label, cfg in cases:
        F = build_resolution(cfg)
        T1 = structure_constants(omega(F), "hessian")
        rep = verify_table(T1)
        assert rep.ok, (label, rep.witness)
        mu = isomorphic_up_to_scalar(T1, coordinate_ring_table(cfg))
        assert mu is not None and mu != 0, label
    report("7 (end-to-end)", f"{len(cases)} inputs")


def test_criterion_8_change_of_coordinates():
    """Omega' = det(g) (g . Omega) for 50 seeded g per n in 4..6, with the
    diagonal, permutation and unipotent families represented."""
    rng = random.Random(SEED + 8)
    for n in (4, 5, 6):
        F = standard_resolution(n)
        Om = omega(F)
        m = n - 1
        gs = []
        while len(gs) < 15:  # diagonal
            diag = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
            if all(diag):
                gs.append(QMatrix([[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]))
        perms = list(itertools.permutations(range(m)))
        for _ in range(15):  # permutation
            p = perms[rng.randrange(len(perms))]
            gs.append(QMatrix([[int(p[j] == i) for j in range(m)] for i in range(m)]))
        while len(gs) < 45:  # unipotent
            i, j = rng.sample(range(m), 2)
            entries = [[Fraction(int(r == s)) for s in range(m)] for r in range(m)]
            entries[i][j] = Fraction(rng.randint(1, 5))
            gs.append(QMatrix(entries))
        while len(gs) < 50:  # general invertible
            g = QMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
            if g.det() != 0:
                gs.append(g)
        for g in gs:
            lhs = omega(transform_resolution(F, g).resolution)
            rhs = gl_act(g, Om).scale(g.det())
            assert lhs == rhs, (n, g)
    report("8 (change of coordinates)", "50 group elements per n in 4..6")


def test_criterion_9_koszul():
    """Chain-map lifts exist and are unique; symbol relations hold; the
    assembled final syzygy is killed by phi_{n-3} and matches phi_{n-2}."""
    rep = suite_koszul(ns=(5, 6))
    assert rep.ok, rep.failures[:5]
    report("9 (Koszul suite)", f"{len(rep.checks)} checks")


def test_criterion_10_classical_cubics():
    """50 seeded integer cubics with nonzero discriminant; anchor -23."""
    anchor_form = BinaryCubic.of(1, 0, -1, -1)
    anchor = ldf_equivalence_check(anchor_form)
    assert anchor.ok and anchor_form.discriminant() == -23
    rng = random.Random(SEED + 10)
    done = 0
    while done < 50:
        f = BinaryCubic.of(*(rng.randint(-9, 9) for _ in range(4)))
        if f.discriminant() == 0:
            continue
        done += 1
        rep = ldf_equivalence_check(f)
        assert rep.passed("relations") and rep.passed("discriminant"), (f,)
    report("10 (classical n=3)", "50 cubics + anchor -23")


def test_criterion_11_orders():
    """Integral orders from integral resolutions (standard n = 4, 5 and
    t^4-t-1, t^5-t-1): B and B' integral and associative,
    disc(B) = (2n)^(2(n-1)) disc(B'), that is 262144 at n=4 and 10^8 at n=5."""
    rep = suite_orders()
    assert rep.ok, rep.failures[:5]
    report("11 (orders)", "ratios 262144 (n=4) and 10^8 (n=5), exact")
