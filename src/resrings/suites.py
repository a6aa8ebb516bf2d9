"""Named verification suites driven by the CLI and reused by the tests.

Every suite runs exact identities on seeded inputs and returns a
:class:`~resrings.errors.Report` with one check per case; a failure of any
case means a guaranteed identity broke, which callers treat as an internal
inconsistency, never as bad input.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations, permutations

from .brackets import a_form, brace, bracket, double_bracket, omega, perm_sign
from .classical import (
    BinaryCubic,
    TernaryQuadricPair,
    ldf_equivalence_check,
    pfaffian_shape_check,
    quartic_identities_check,
)
from .configs import (
    Configuration,
    coordinate_ring_table,
    from_etale,
    random_points_config,
    standard_config,
)
from .errors import InputError, Report
from .koszul import final_syzygy, koszul_complex, lift_chain_map, pair_symbol_even
from .resolution import build_resolution, integerize, validate
from .ringalg import (
    integral_orders,
    isomorphic_up_to_scalar,
    structure_constants,
    table1_check,
    verify_table,
)
from .symcore import Polynomial, PolyMatrix, partial_derivative

__all__ = ["run_suite", "SUITE_NAMES", "standard_resolution"]

SUITE_NAMES = ("symmetries", "koszul", "table1", "endtoend", "classical", "orders")


def _suite(cases):
    """Collect the ``(label, ok, detail)`` cases a suite yields into a Report,
    keeping the detail of failed cases only."""

    @wraps(cases)
    def run(*args, **kwargs) -> Report:
        return Report(tuple((label, bool(ok), "" if ok else detail)
                            for label, ok, detail in cases(*args, **kwargs)))

    return run


@lru_cache(maxsize=None)
def standard_resolution(n: int):
    """Cached resolution of the standard configuration."""
    return build_resolution(standard_config(n))


def _random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, n - 1) for _ in range(length))


def _random_distinct(rng: random.Random, n: int, count: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n), count))


# ---------------------------------------------------------------------------
# symmetries (section 6 and section 10 lemmas)


@_suite
def suite_symmetries(ns=(5, 6, 7), seed: int = 0, cases: int = 100):
    for n in ns:
        F = standard_resolution(n)
        m = n - 2
        rng = random.Random((seed, n).__hash__())
        reversal_sign = 1 if m % 4 in (0, 1) else -1

        for case in range(cases):
            w = _random_word(rng, n, m)

            if m >= 4:
                r = rng.randint(2, m - 2)  # 1-based slot; swap positions r, r+1
                swapped = list(w)
                swapped[r - 1], swapped[r] = swapped[r], swapped[r - 1]
                yield (f"n={n} interior swap #{case}",
                       bracket(F, w) == -bracket(F, tuple(swapped)),
                       f"word {w} slot {r}")

            yield (f"n={n} reversal #{case}",
                   bracket(F, w) == reversal_sign * bracket(F, w[::-1]),
                   f"word {w}")

            yield (f"n={n} end swap #{case}",
                   bracket(F, w) + bracket(F, (w[-1],) + w[1:-1] + (w[0],)) == 0,
                   f"word {w}")

            a, b = _random_distinct(rng, n, 2)
            c, d = _random_distinct(rng, n, 2)
            mid = _random_word(rng, n, m - 4) if m >= 4 else ()
            if m >= 4:
                total = (
                    bracket(F, (a, b) + mid + (c, d))
                    + bracket(F, (b, a) + mid + (c, d))
                    + bracket(F, (a, b) + mid + (d, c))
                    + bracket(F, (b, a) + mid + (d, c))
                )
                yield f"n={n} four-term #{case}", total == 0, f"{(a, b, mid, c, d)}"

            tau = list(range(m))
            rng.shuffle(tau)
            sign = perm_sign(tau)
            permuted = tuple(w[tau[t]] for t in range(m))
            yield (f"n={n} double-bracket alternation #{case}",
                   double_bracket(F, permuted) == sign * double_bracket(F, w),
                   f"word {w} tau {tau}")

            # brace symmetries
            bw = _random_word(rng, n, n)
            tau = list(range(n - 4))
            rng.shuffle(tau)
            sign = perm_sign(tau)
            permuted_b = bw[:2] + tuple(bw[2 + tau[t]] for t in range(n - 4)) + bw[-2:]
            yield (f"n={n} brace interior alternation #{case}",
                   brace(F, permuted_b) == sign * brace(F, bw),
                   f"word {bw}")

            yield (f"n={n} brace head-tail #{case}",
                   brace(F, bw) == -brace(F, bw[-2:] + bw[2:-2] + bw[:2]),
                   f"word {bw}")

            i = rng.randint(1, n - 1)
            block = [i] + [rng.randint(1, n - 1) for _ in range(n - 4)]
            rng.shuffle(block)
            tail = (rng.randint(1, n - 1), rng.randint(1, n - 1))
            tau = list(range(n - 3))
            rng.shuffle(tau)
            sign = perm_sign(tau)
            base = (i,) + tuple(block) + tail
            permuted_a = (i,) + tuple(block[tau[t]] for t in range(n - 3)) + tail
            yield (f"n={n} brace anchored alternation #{case}",
                   brace(F, permuted_a) == sign * brace(F, base),
                   f"word {base}")

            i, j, k = _random_distinct(rng, n, 3)
            rest = _random_word(rng, n, n - 3)
            total = (
                brace(F, (i, j, k) + rest)
                + brace(F, (j, k, i) + rest)
                + brace(F, (k, i, j) + rest)
            )
            yield f"n={n} brace triple #{case}", total == 0, f"{(i, j, k, rest)}"
            total_rev = (
                brace(F, rest[::-1] + (k, j, i))
                + brace(F, rest[::-1] + (i, k, j))
                + brace(F, rest[::-1] + (j, i, k))
            )
            yield f"n={n} brace triple reversed #{case}", total_rev == 0, f"{(i, j, k, rest)}"

            i, j = _random_distinct(rng, n, 2)
            comp = tuple(v for v in range(1, n) if v not in (i, j))
            w1 = list(comp)
            rng.shuffle(w1)
            w2 = list(comp)
            rng.shuffle(w2)
            yield (f"n={n} A(i,j) representative independence #{case}",
                   a_form(F, i, j, tuple(w1)) == a_form(F, i, j, tuple(w2)),
                   f"{(i, j, w1, w2)}")


# ---------------------------------------------------------------------------
# koszul (section 9)


@_suite
def suite_koszul(ns=(5, 6)):
    for n in ns:
        F = standard_resolution(n)
        chain_maps = {}
        pairs = [(j, k) for j in range(1, n) for k in range(1, n) if j != k]
        for (j, k) in pairs:
            K = koszul_complex(n, j, k)
            for m in range(len(K.diffs) - 1):
                yield (f"n={n} J=({j},{k}) d{m + 1} d{m + 2} = 0",
                       (K.diffs[m] * K.diffs[m + 1]).is_zero(), "")
            try:
                chain_maps[(j, k)] = lift_chain_map(K, F)
                yield f"n={n} J=({j},{k}) lift exists and unique", True, ""
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                yield f"n={n} J=({j},{k}) lift exists and unique", False, str(exc)

        indices = list(range(1, n))
        x = [Polynomial.variable(n - 1, v) for v in range(1, n)]

        def sym(wedge, j, k):
            return chain_maps[(j, k)].symbol(wedge)

        for m in range(1, n - 2):
            for wedge in combinations(indices, m):
                rest = [v for v in indices if v not in wedge]
                for j, k in permutations(rest, 2):
                    if j > k:
                        continue
                    s1, s2 = sym(wedge, j, k), sym(wedge, k, j)
                    yield (f"n={n} two-term {wedge}x({j},{k})",
                           all(a + b == 0 for a, b in zip(s1, s2)), "")
                    yield f"n={n} nonzero {wedge}x({j},{k})", any(s1), ""
                for j, k, l in permutations(rest, 3):
                    if not (j < k < l):
                        continue
                    total_ok = all(
                        a + b + c == 0
                        for a, b, c in zip(sym(wedge, j, k), sym(wedge, k, l), sym(wedge, l, j))
                    )
                    yield f"n={n} three-term {wedge}x({j},{k},{l})", total_ok, ""
                # differential identity
                if m >= 2 and len(rest) >= 2:
                    j, k = rest[0], rest[1]
                    s = sym(wedge, j, k)
                    phi = F.maps[m - 1]
                    img = [
                        sum((phi.entries[i][r] * s[r] for r in range(len(s))),
                            Polynomial.zero(n - 1))
                        for i in range(phi.rows)
                    ]
                    expect = [Polynomial.zero(n - 1) for _ in range(phi.rows)]
                    for ell, idx in enumerate(wedge, start=1):
                        sub = sym(tuple(v for v in wedge if v != idx), j, k)
                        for r, coeff in enumerate(sub):
                            if coeff:
                                expect[r] = expect[r] + x[idx - 1] * coeff * ((-1) ** ell)
                    yield f"n={n} differential identity {wedge}x({j},{k})", img == expect, ""

        # first-map derivative formulas: dphi1/dx_i (i x (j,k)) = x_j - x_k etc.
        phi1 = F.maps[0]
        for (j, k) in pairs:
            if (j, k) not in chain_maps:
                continue
            for i in indices:
                if i in (j, k):
                    continue
                s = sym((i,), j, k)

                def apply_deriv(v):
                    D = partial_derivative(phi1, v)
                    return sum(
                        (D.entries[0][r] * s[r] for r in range(len(s))),
                        Polynomial.zero(n - 1),
                    )

                yield (f"n={n} dphi1/dx_{i} of ({i})x({j},{k})",
                       apply_deriv(i) == x[j - 1] - x[k - 1], "")
                yield (f"n={n} dphi1/dx_{j} of ({i})x({j},{k})",
                       apply_deriv(j) == x[i - 1], "")
                yield (f"n={n} dphi1/dx_{k} of ({i})x({j},{k})",
                       apply_deriv(k) == -x[i - 1], "")

        try:
            fs = final_syzygy(F, chain_maps)
            yield f"n={n} final syzygy matches last differential", True, ""
            # after rescaling the last map by the factor, its derivative
            # expansion must match the symbol expansion
            last = F.maps[-1]
            for k in indices:
                D = partial_derivative(last, k)
                lhs = [D.entries[r][0] * fs.factor for r in range(last.rows)]
                rhs = [Polynomial.zero(n - 1) for _ in range(last.rows)]
                for j in indices:
                    if j == k:
                        continue
                    vec = pair_symbol_even(chain_maps, n, j, k)
                    for r, coeff in enumerate(vec):
                        if coeff:
                            rhs[r] = rhs[r] + x[j - 1] * coeff
                yield f"n={n} last-map derivative expansion d/dx_{k}", lhs == rhs, ""
        except Exception as exc:  # noqa: BLE001
            yield f"n={n} final syzygy matches last differential", False, str(exc)


# ---------------------------------------------------------------------------
# table1 (theorem 10.1)


@_suite
def suite_table1(ns=(5, 6, 7), seed: int = 0, cases: int = 1):
    for n in ns:
        r = table1_check(standard_resolution(n))
        yield f"n={n} standard", r.ok, "; ".join(r.failures[:3])
        rng = random.Random(f"{seed}:{n}:table1")
        for case in range(cases):
            cfg = random_points_config(n, rng)
            r = table1_check(build_resolution(cfg))
            yield f"n={n} random #{case}", r.ok, "; ".join(r.failures[:3])


# ---------------------------------------------------------------------------
# end-to-end (theorems 2.10 / 5.2)


def _endtoend_once(label: str, cfg: Configuration):
    F = build_resolution(cfg)
    T1 = structure_constants(omega(F), "hessian")
    t_rep = verify_table(T1)
    yield f"{label} table verifies", t_rep.ok, t_rep.witness or ""
    T2 = coordinate_ring_table(cfg)
    mu = isomorphic_up_to_scalar(T1, T2)
    yield f"{label} isomorphic to coordinate ring", mu is not None and mu != 0, ""


@_suite
def suite_endtoend(ns=(4, 5, 6, 7), seed: int = 0, cases: int = 3):
    for n in ns:
        rng = random.Random(f"{seed}:{n}:endtoend")
        for case in range(cases):
            cfg = random_points_config(n, rng)
            yield from _endtoend_once(f"n={n} random #{case}", cfg)
    for f in ("t^4-t-1", "t^5-t-1"):
        yield from _endtoend_once(f"etale {f}", from_etale(f))


# ---------------------------------------------------------------------------
# classical (n = 3, 4, 5 parametrizations)


@_suite
def suite_classical(seed: int = 0, cases: int = 50):
    rng = random.Random(f"{seed}:classical")
    anchor_form = BinaryCubic.of(1, 0, -1, -1)
    anchor = ldf_equivalence_check(anchor_form)
    yield "cubic (1,0,-1,-1) relations", anchor.passed("relations"), ""
    yield ("cubic (1,0,-1,-1) discriminant -23",
           anchor.passed("discriminant") and anchor_form.discriminant() == -23, "")
    done = 0
    while done < cases:
        f = BinaryCubic.of(*(rng.randint(-9, 9) for _ in range(4)))
        if f.discriminant() == 0:
            continue
        done += 1
        r = ldf_equivalence_check(f)
        yield f"cubic #{done} {f.a},{f.b},{f.c},{f.d}", r.ok, ""

    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    pair = TernaryQuadricPair(x1 * (x2 - x3), x2 * (x1 - x3))
    q = quartic_identities_check(pair.resolution())
    yield "quartic identities on the four-point pencil", q.ok, "; ".join(q.failures[:3])
    for case in range(max(1, cases // 10)):
        cfg = random_points_config(4, rng)
        q = quartic_identities_check(build_resolution(cfg))
        yield f"quartic identities random #{case}", q.ok, "; ".join(q.failures[:3])

    # seeded random alternating matrices of linear forms in 4 variables
    found = 0
    attempts = 0
    while found < 2 and attempts < 50:
        attempts += 1
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
        Phi = PolyMatrix(entries)
        report, table = pfaffian_shape_check(Phi)
        if report.ok:
            found += 1
            yield f"pfaffian complex #{found} table", verify_table(table).ok, ""
    yield "pfaffian sampling produced valid complexes", found >= 1, ""


# ---------------------------------------------------------------------------
# orders (section 3)


@_suite
def suite_orders(ns=(4, 5)):
    inputs: list[tuple[str, Configuration]] = []
    for n in ns:
        inputs.append((f"standard n={n}", standard_config(n)))
    inputs.append(("etale t^4-t-1", from_etale("t^4-t-1")))
    inputs.append(("etale t^5-t-1", from_etale("t^5-t-1")))
    for label, cfg in inputs:
        n = cfg.n
        F_int, _ = integerize(build_resolution(cfg))
        v = validate(F_int)
        yield f"{label} integer resolution validates", v.ok, v.first_failure() or ""
        try:
            res = integral_orders(F_int)
        except InputError:  # n < 4: bad input, not a failed identity
            raise
        except Exception as exc:  # noqa: BLE001
            yield f"{label} orders", False, str(exc)
            continue
        yield f"{label} B integral", res.B.is_integral(), ""
        yield f"{label} B' integral", res.Bprime.is_integral(), ""
        yield f"{label} B associative", verify_table(res.B).passed("associative"), ""
        yield f"{label} B' associative", verify_table(res.Bprime).passed("associative"), ""
        yield (f"{label} discriminant ratio (2n)^(2n-2)",
               res.ratio == Fraction(2 * n) ** (2 * (n - 1)), "")


# ---------------------------------------------------------------------------
# dispatch


def run_suite(name: str, ns=None, seed: int = 0, cases: int | None = None) -> list[tuple[str, Report]]:
    """Run one named suite (or all of them) with optional size overrides;
    returns ``(suite name, report)`` pairs."""
    if name == "all":
        return [r for s in SUITE_NAMES for r in run_suite(s, ns, seed, cases)]
    if name == "symmetries":
        return [(name, suite_symmetries(ns or (5, 6, 7), seed, cases or 100))]
    if name == "koszul":
        return [(name, suite_koszul(ns or (5, 6)))]
    if name == "table1":
        return [(name, suite_table1(ns or (5, 6, 7), seed, cases if cases is not None else 1))]
    if name == "endtoend":
        return [(name, suite_endtoend(ns or (4, 5, 6, 7), seed, cases or 3))]
    if name == "classical":
        return [(name, suite_classical(seed, cases or 50))]
    if name == "orders":
        return [(name, suite_orders(ns or (4, 5)))]
    raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
