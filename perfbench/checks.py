"""Property checks on the outputs of every workload.

Each check tests a property the method guarantees and recomputes it here
with its own arithmetic; nothing is compared against stored copies.  A
failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

import numpy as np


class CheckError(AssertionError):
    """An output of the program violates a guaranteed property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# resolutions


def expected_ranks(n: int) -> tuple[int, ...]:
    """(1, b_1, ..., b_{n-3}, 1) with b_i = n*C(n-2, i) - C(n, i+1)."""
    return (1,) + tuple(n * comb(n - 2, i) - comb(n, i + 1) for i in range(1, n - 2)) + (1,)


def expected_twists(n: int) -> tuple[int, ...]:
    return (0,) + tuple(range(2, n - 1)) + (n,)


def monomials(m: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d exponent vectors in m variables, graded-lex with x1 first."""
    if m == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in monomials(m - 1, d - e)]


def _flat_columns(phi, degree: int) -> list[list[Fraction]]:
    """Each column of a map as one coefficient vector: a block of degree-d
    coefficients per row, the layout the kernel computation reads off."""
    mons = monomials(phi.num_vars, degree)
    columns = []
    for c in range(phi.cols):
        vec = []
        for r in range(phi.rows):
            terms = phi.entries[r][c].terms
            require(all(sum(e) == degree for e in terms), f"entry ({r},{c}) is not a form of degree {degree}")
            vec.extend(terms.get(mu, Fraction(0)) for mu in mons)
        columns.append(vec)
    return columns


def _require_canonical(vectors: list[list[Fraction]], what: str) -> None:
    """Reduced echelon form of a kernel basis: each vector ends in a 1 at its
    own free position, the free positions increase, and every vector is 0 at
    the free positions of the others."""
    free = []
    for idx, v in enumerate(vectors):
        support = [i for i, x in enumerate(v) if x]
        require(bool(support), f"{what}: kernel vector {idx} is zero")
        require(v[support[-1]] == 1, f"{what}: kernel vector {idx} does not end in 1")
        free.append(support[-1])
    require(all(a < b for a, b in zip(free, free[1:])), f"{what}: free positions are not increasing")
    for idx, v in enumerate(vectors):
        for other in free:
            require(other == free[idx] or not v[other], f"{what}: kernel vector {idx} is not reduced")


def _require_primitive(vec: list[Fraction], what: str) -> None:
    require(all(x.denominator == 1 for x in vec), f"{what}: not an integer column")
    g = 0
    for x in vec:
        g = gcd(g, x.numerator)
    require(g == 1, f"{what}: column is not primitive (content {g})")
    lead = next(x for x in vec if x)
    require(lead > 0, f"{what}: leading coefficient is not positive")


def _scaled_to_integers(polys) -> list[dict]:
    """The polynomials times the lcm of their denominators, as int term dicts."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return [{e: int(c * den) for e, c in p.terms.items()} for p in polys]


def _require_composition_zero(A, B, r: int) -> None:
    """phi_r * phi_{r+1} == 0; scaling rows of A and columns of B by nonzero
    constants does not change which entries of the product vanish."""
    rows = [_scaled_to_integers(row) for row in A.entries]
    cols = [_scaled_to_integers(col) for col in zip(*B.entries)]
    for i, row in enumerate(rows):
        for k, col in enumerate(cols):
            acc: dict[tuple[int, ...], int] = {}
            for p, q in zip(row, col):
                if not p or not q:
                    continue
                for e1, c1 in p.items():
                    for e2, c2 in q.items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
            require(not any(acc.values()), f"phi_{r} phi_{r + 1} is nonzero at ({i},{k})")


def _etale_mul(u: list[Fraction], v: list[Fraction], f: tuple[int, ...]) -> list[Fraction]:
    """Product in Q[t]/(f), f monic, coefficient lists ascending in t."""
    n = len(f) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                prod[i + j] += a * b
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            for j in range(n + 1):
                prod[i - n + j] -= c * f[j]
    return prod[:n]


def _require_phi1_vanishes(cfg, phi1) -> None:
    if cfg.kind == "points":
        for idx, pt in enumerate(cfg.points):
            for j, p in enumerate(phi1.entries[0]):
                value = Fraction(0)
                for e, c in p.terms.items():
                    term = c
                    for x, k in zip(pt, e):
                        term *= x**k
                    value += term
                require(value == 0, f"entry {j} of phi_1 does not vanish at point {idx}")
        return
    alphas = [list(a) for a in cfg.alphas]
    for j, p in enumerate(phi1.entries[0]):
        total = [Fraction(0)] * cfg.n
        for e, c in p.terms.items():
            idx = [i for i, k in enumerate(e) for _ in range(k)]
            require(len(idx) == 2, f"entry {j} of phi_1 is not a quadric")
            prod = _etale_mul(alphas[idx[0]], alphas[idx[1]], cfg.f)
            total = [t + c * x for t, x in zip(total, prod)]
        require(not any(total), f"entry {j} of phi_1 does not vanish on Q[t]/(f)")


def check_resolution(cfg, F, report) -> None:
    """Ranks, vanishing of phi_1, the complex property, canonical kernel
    bases, the primitive last column, and the library's own validation."""
    n = cfg.n
    ranks = expected_ranks(n)
    require(F.n == n, f"resolution has n={F.n}, expected {n}")
    require(F.ranks == ranks, f"ranks {F.ranks} != {ranks}")
    require(F.twists == expected_twists(n), f"twists {F.twists} != {expected_twists(n)}")
    require(len(F.maps) == len(ranks) - 1, "wrong number of differentials")
    for r, phi in enumerate(F.maps, start=1):
        require((phi.rows, phi.cols) == (ranks[r - 1], ranks[r]), f"phi_{r} has the wrong shape")
    _require_phi1_vanishes(cfg, F.maps[0])
    for r in range(1, len(F.maps)):
        _require_composition_zero(F.maps[r - 1], F.maps[r], r)
    for r, phi in enumerate(F.maps, start=1):
        vectors = _flat_columns(phi, F.twists[r] - F.twists[r - 1])
        if r < len(F.maps):
            _require_canonical(vectors, f"phi_{r}")
        else:
            _require_primitive(vectors[0], f"phi_{r}")
    require(report.ok, f"validate reports a failure: {report.first_failure()}")


# ---------------------------------------------------------------------------
# multiplication tables


def _mult(T, u, v) -> list[Fraction]:
    """Product of coefficient vectors over the basis 1, alpha_1, ..., alpha_{n-1}."""
    m = T.n - 1
    out = [u[0] * v[0]] + [u[0] * v[k + 1] + v[0] * u[k + 1] for k in range(m)]
    for i in range(m):
        for j in range(m):
            f = u[i + 1] * v[j + 1]
            if f:
                out[0] += f * T.c0[i][j]
                for k in range(m):
                    out[k + 1] += f * T.c[i][j][k]
    return out


def _basis(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]


def check_table(T, n: int, what: str) -> None:
    """Commutative and associative on every basis triple."""
    require(T.n == n, f"{what}: table has n={T.n}, expected {n}")
    m = n - 1
    for i in range(m):
        for j in range(m):
            require(T.c0[i][j] == T.c0[j][i] and T.c[i][j] == T.c[j][i], f"{what}: not commutative at ({i},{j})")
    e = _basis(n)
    products = [[_mult(T, e[i], e[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = _mult(T, products[i][j], e[k])
                right = _mult(T, e[i], products[j][k])
                require(left == right, f"{what}: not associative at ({i},{j},{k})")


def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    size = len(m)
    det = Fraction(1)
    for c in range(size):
        piv = next((i for i in range(c, size) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, size):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def trace_discriminant(T) -> Fraction:
    """det of the trace form Tr(b_i b_j), with Tr the trace of multiplication."""
    e = _basis(T.n)

    def trace(x):
        return sum((_mult(T, x, e[k])[k] for k in range(T.n)), Fraction(0))

    return _det([[trace(_mult(T, e[i], e[j])) for j in range(T.n)] for i in range(T.n)])


def poly_discriminant(f: tuple[int, ...]) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f, coefficients ascending."""
    n = len(f) - 1
    fd = [k * f[k] for k in range(1, n + 1)]
    hi_f, hi_d = list(reversed(f)), list(reversed(fd))
    size = 2 * n - 1
    rows = []
    for s in range(n - 1):
        rows.append([Fraction(0)] * s + [Fraction(c) for c in hi_f] + [Fraction(0)] * (size - s - n - 1))
    for s in range(n):
        rows.append([Fraction(0)] * s + [Fraction(c) for c in hi_d] + [Fraction(0)] * (size - s - n))
    return (-1) ** (n * (n - 1) // 2) * _det(rows)


def _is_rational_square(q: Fraction) -> bool:
    return q > 0 and isqrt(q.numerator) ** 2 == q.numerator and isqrt(q.denominator) ** 2 == q.denominator


def _charpoly(M: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients c_0..c_n (ascending, c_n = 1) of det(xI - M), Faddeev-LeVerrier."""
    n = len(M)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    Mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        Mk = [[sum((M[i][t] * Mk[t][j] for t in range(n)), Fraction(0)) + (coeffs[n - k + 1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        trace_mk = sum((M[i][t] * Mk[t][i] for i in range(n) for t in range(n)), Fraction(0))
        coeffs[n - k] = -trace_mk / k
    return coeffs


def _integer_roots(g: list[int], estimates) -> set[int]:
    """Integer roots of a monic integer polynomial (ascending coefficients),
    refined from floating-point estimates by integer Newton steps and
    confirmed by exact evaluation."""

    def value(x):
        acc = 0
        for c in reversed(g):
            acc = acc * x + c
        return acc

    def slope(x):
        acc = 0
        for k in range(len(g) - 1, 0, -1):
            acc = acc * x + k * g[k]
        return acc

    roots = set()
    for approx in estimates:
        x = int(round(approx))
        for _ in range(100):
            v = value(x)
            if v == 0:
                roots.add(x)
                break
            d = slope(x)
            step = round(Fraction(v, d)) if d else 0
            if step == 0:
                break
            x -= step
    return roots


def _squarefree(g: list[int]) -> bool:
    """gcd(g, g') is constant, by exact Euclid over Q."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a = trim([Fraction(c) for c in g])
    b = trim([Fraction(k * g[k]) for k in range(1, len(g))])
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= f * c
            r.pop()
            trim(r)
        a, b = b, r
    return len(a) == 1


def check_split(T, rng: random.Random, what: str) -> None:
    """For the ring of n rational points: the characteristic polynomial of a
    seeded random element that generates the ring has n distinct rational roots."""
    n = T.n
    e = _basis(n)
    for _ in range(20):
        u = [Fraction(rng.randint(-50, 50)) for _ in range(n)]
        cols = [_mult(T, u, e[j]) for j in range(n)]
        coeffs = _charpoly([[cols[j][i] for j in range(n)] for i in range(n)])
        # y = L x with L clearing every denominator turns it monic integral,
        # so its rational roots are the integer roots of g
        L = lcm(*(c.denominator for c in coeffs))
        g = [int(coeffs[k] * L ** (n - k)) for k in range(n + 1)]
        if not _squarefree(g):
            continue
        estimates = [z.real * L for z in np.roots([float(c) for c in reversed(coeffs)])]
        roots = _integer_roots(g, estimates)
        require(len(roots) == n, f"{what}: characteristic polynomial has {len(roots)} rational roots, expected {n}")
        return
    raise CheckError(f"{what}: no seeded element with a squarefree characteristic polynomial")


def check_rings(cfg, T, report, orders, rng: random.Random) -> None:
    """The hessian table, its verification report and the orders B, B'."""
    n = cfg.n
    check_table(T, n, "table")
    require(report.ok, f"verify_table reports a failure: {report.witness}")
    if cfg.kind == "points":
        check_split(T, rng, "table")
    else:
        ratio = trace_discriminant(T) / poly_discriminant(cfg.f)
        require(_is_rational_square(ratio), f"disc(table)/disc(f) = {ratio} is not a nonzero rational square")
    for name, order in (("B", orders.B), ("B'", orders.Bprime)):
        integral = all(v.denominator == 1 for row in order.c0 for v in row) and all(
            v.denominator == 1 for row in order.c for vec in row for v in vec
        )
        require(integral, f"{name} is not integral")
        check_table(order, n, name)
    d_B, d_Bp = trace_discriminant(orders.B), trace_discriminant(orders.Bprime)
    require((d_B, d_Bp) == (orders.disc_B, orders.disc_Bprime), "reported order discriminants are wrong")
    require(d_Bp != 0 and d_B / d_Bp == Fraction(2 * n) ** (2 * (n - 1)),
            f"disc(B)/disc(B') != (2n)^(2(n-1)) for n={n}")


# ---------------------------------------------------------------------------
# Table 1 identities


def check_table1(n: int, report) -> None:
    triples = (n - 1) * (n - 2) * (n - 3)
    require(report.n == n, f"table1 report is for n={report.n}, expected {n}")
    require(report.triples_checked == triples, f"table1 checked {report.triples_checked} triples, expected {triples}")
    require(not report.failures, f"table1 failures: {'; '.join(report.failures[:3])}")
