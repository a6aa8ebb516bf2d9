"""Input configurations: n explicit rational points in P^(n-2), or an etale
presentation Q[t]/(f) by a monic squarefree integer polynomial.

Point coordinates are normalized on ingestion (first nonzero coordinate 1);
etale inputs carry the canonical trace-zero basis alpha_j = t^j - Tr(t^j)/n
expressed in the power basis 1, t, ..., t^(n-1).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InconsistencyError, InputError
from .ringalg import MultiplicationTable
from .symcore import QMatrix, monomials_of_degree, nullspace, rational_from_json

__all__ = [
    "MAX_N",
    "check_size",
    "Configuration",
    "TraceData",
    "standard_config",
    "points_config",
    "general_position_check",
    "from_etale",
    "parse_monic_integer_poly",
    "evaluation_matrix",
    "transform_between",
    "trace_data",
    "coordinate_ring_table",
    "random_points_config",
]


# ---------------------------------------------------------------------------
# univariate helpers for Q[t]/(f), coefficient vectors ascending in t


def _poly_deg(c: Sequence[Fraction]) -> int:
    for i in range(len(c) - 1, -1, -1):
        if c[i]:
            return i
    return -1


def _poly_mod(num: list[Fraction], den: Sequence[Fraction]) -> list[Fraction]:
    num = list(num)
    dd = _poly_deg(den)
    lead = den[dd]
    for i in range(len(num) - 1, dd - 1, -1):
        if num[i]:
            f = num[i] / lead
            for j in range(dd + 1):
                num[i - dd + j] -= f * den[j]
    return num[:dd]


def _poly_gcd_is_const(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    a, b = list(a), list(b)
    while _poly_deg(b) >= 0:
        a, b = b, _poly_mod(a, b) + [Fraction(0)]
    return _poly_deg(a) == 0


def _etale_mult(u: Sequence[Fraction], v: Sequence[Fraction], f: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(f) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    prod[i + j] += a * b
    red = _poly_mod(prod, f)
    red += [Fraction(0)] * (n - len(red))
    return tuple(red)


def _power_traces(f: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Tr(t^k) for k = 0..n-1, via traces of companion-matrix powers."""
    n = len(f) - 1
    comp_cols = []
    for j in range(n):
        if j < n - 1:
            comp_cols.append([Fraction(int(i == j + 1)) for i in range(n)])
        else:
            comp_cols.append([-Fraction(f[i]) for i in range(n)])
    C = QMatrix.from_columns(comp_cols)
    traces = [Fraction(n)]
    M = C
    for _ in range(1, n):
        traces.append(sum(M.entries[i][i] for i in range(n)))
        M = M * C
    return tuple(traces)


# ---------------------------------------------------------------------------
# configurations

# the largest n accepted: at n = 8 the last syzygy system is 5376 x 560 and
# the standard build takes about 1 s on one core of a 2-vCPU virtual machine
MAX_N = 8


def check_size(n: int) -> None:
    """Reject a rank n outside 3..MAX_N before anything of that size is built."""
    if not 3 <= n <= MAX_N:
        raise InputError(f"n = {n} is outside 3 <= n <= MAX_N = {MAX_N}")


class Configuration:
    """Either n rational points in P^(n-2) or an etale presentation Q[t]/(f)."""

    __slots__ = ("n", "kind", "points", "f", "alphas")

    def __init__(self, n: int, kind: str, points=None, f=None, alphas=None):
        if n < 3:
            raise InputError("configurations need n >= 3")
        if kind not in ("points", "etale"):
            raise InputError(f"unknown configuration kind {kind!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "alphas", alphas)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Configuration)
            and (self.n, self.kind, self.points, self.f) == (other.n, other.kind, other.points, other.f)
        )

    def __hash__(self):
        return hash((self.n, self.kind, self.points, self.f))

    def to_json(self) -> dict:
        if self.kind == "points":
            return {
                "kind": "points",
                "n": self.n,
                "points": [[str(v) for v in pt] for pt in self.points],
            }
        return {"kind": "etale", "n": self.n, "f": [str(c) for c in self.f]}

    @staticmethod
    def from_json(data: dict) -> "Configuration":
        try:
            kind = data["kind"]
            n = int(data["n"])
            if kind == "points":
                pts = [[rational_from_json(v) for v in pt] for pt in data["points"]]
            elif kind == "etale":
                coeffs = [rational_from_json(v) for v in data["f"]]
                if any(c.denominator != 1 for c in coeffs):
                    raise InputError("etale coefficients must be integers")
                coeffs = [int(c) for c in coeffs]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad configuration JSON: {exc}") from exc
        if kind == "points":
            if len(pts) != n:
                raise InputError(f"points JSON has n = {n} but lists {len(pts)} points")
            return points_config(pts)
        if kind == "etale":
            cfg = from_etale(coeffs)
            if cfg.n != n:
                raise InputError("etale polynomial degree disagrees with n")
            return cfg
        raise InputError(f"unknown configuration kind {kind!r}")

    def __repr__(self):
        return f"Configuration(n={self.n}, kind={self.kind})"


def _normalize_point(pt: Sequence) -> tuple[Fraction, ...]:
    vec = [Fraction(v) for v in pt]
    lead = next((v for v in vec if v), None)
    if lead is None:
        raise InputError("projective point must have a nonzero coordinate")
    return tuple(v / lead for v in vec)


def points_config(points: Sequence[Sequence]) -> Configuration:
    """Configuration from explicit homogeneous coordinates (normalized on ingestion)."""
    n = len(points)
    check_size(n)
    pts = []
    for pt in points:
        if len(pt) != n - 1:
            raise InputError(f"each point needs {n - 1} coordinates")
        pts.append(_normalize_point(pt))
    return Configuration(n, "points", points=tuple(pts))


def standard_config(n: int) -> Configuration:
    """The n coordinate points of P^(n-2) together with (1:1:...:1)."""
    check_size(n)
    pts = [[Fraction(int(i == j)) for j in range(n - 1)] for i in range(n - 1)]
    pts.append([Fraction(1)] * (n - 1))
    return points_config(pts)


def general_position_check(c: Configuration) -> tuple[bool, tuple[int, ...] | None]:
    """True iff no n-1 of the points lie in a hyperplane.

    On failure returns the offending (n-1)-subset as 0-based point indices.
    """
    if c.kind != "points":
        raise InputError("general position check applies to explicit points")
    n = c.n
    for omit in range(n):
        subset = [i for i in range(n) if i != omit]
        M = QMatrix([c.points[i] for i in subset])
        if M.det() == 0:
            return False, tuple(subset)
    return True, None


def parse_monic_integer_poly(text: str) -> list[int]:
    """Parse a monic integer polynomial in t of degree 3..MAX_N to ascending coefficients."""
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise InputError("empty polynomial")
    if s[0] not in "+-":
        s = "+" + s
    terms = re.findall(r"[+-][^+-]+", s)
    if "".join(terms) != s:
        raise InputError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        body = term[1:]
        m = re.fullmatch(r"(\d+)?\*?(t(?:\^(\d+))?)?", body)
        if not m or not body:
            raise InputError(f"cannot parse term {term!r}")
        coeff_s, tpart, exp_s = m.group(1), m.group(2), m.group(3)
        coeff = int(coeff_s) if coeff_s else 1
        if tpart is None:
            exp = 0
        else:
            exp = int(exp_s) if exp_s else 1
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    deg = max(coeffs)
    check_size(deg)
    out = [coeffs.get(i, 0) for i in range(deg + 1)]
    return out


def from_etale(f: Sequence[int] | str) -> Configuration:
    """Configuration of Spec Q[t]/(f) embedded by the canonical trace-zero basis."""
    if isinstance(f, str):
        f = parse_monic_integer_poly(f)
    n = len(f) - 1
    check_size(n)
    coeffs = [int(v) for v in f]
    if coeffs[-1] != 1:
        raise InputError("polynomial must be monic")
    fq = [Fraction(v) for v in coeffs]
    fprime = [Fraction(i * coeffs[i]) for i in range(1, n + 1)]
    if not _poly_gcd_is_const(fq, fprime):
        raise InputError("polynomial must be squarefree")
    traces = _power_traces(fq)
    alphas = []
    for j in range(1, n):
        vec = [Fraction(0)] * n
        vec[j] = Fraction(1)
        vec[0] -= traces[j] / n
        alphas.append(tuple(vec))
    return Configuration(n, "etale", f=tuple(coeffs), alphas=tuple(alphas))


def evaluation_matrix(c: Configuration, d: int) -> QMatrix:
    """Matrix of the evaluation map from degree-d forms to the rank-n algebra.

    Columns follow the degree-d monomial order; the nullspace is the
    degree-d piece of the homogeneous ideal of the configuration.
    """
    if d < 1:
        raise InputError("degree must be >= 1")
    n = c.n
    mons = monomials_of_degree(n - 1, d)
    if c.kind == "points":
        rows = []
        for pt in c.points:
            row = []
            for e in mons:
                val = Fraction(1)
                for v, ex in zip(pt, e):
                    if ex:
                        val *= v**ex
                row.append(val)
            rows.append(row)
        return QMatrix(rows)
    fq = [Fraction(v) for v in c.f]
    one = tuple(Fraction(int(i == 0)) for i in range(n))
    power_cache: list[dict[int, tuple[Fraction, ...]]] = [dict() for _ in range(n - 1)]

    def alpha_power(j: int, e: int) -> tuple[Fraction, ...]:
        cache = power_cache[j]
        if e not in cache:
            if e == 0:
                cache[e] = one
            else:
                cache[e] = _etale_mult(alpha_power(j, e - 1), c.alphas[j], fq)
        return cache[e]

    cols = []
    for e in mons:
        val = one
        for j, ex in enumerate(e):
            if ex:
                val = _etale_mult(val, alpha_power(j, ex), fq)
        cols.append(val)
    return QMatrix.from_columns(cols)


def transform_between(src: Configuration, dst: Configuration) -> QMatrix:
    """The matrix g in GL_{n-1}(Q), scaled so its first nonzero entry is 1,
    taking the src points to the dst points in order (projectively)."""
    if src.kind != "points" or dst.kind != "points":
        raise InputError("transforms are computed between explicit point sets")
    if src.n != dst.n:
        raise InputError("point counts differ")
    ok, witness = general_position_check(src)
    if not ok:
        raise InputError(f"source not in general position, witness {witness}")
    ok, witness = general_position_check(dst)
    if not ok:
        raise InputError(f"destination not in general position, witness {witness}")

    def frame(cfg: Configuration) -> QMatrix:
        M = QMatrix.from_columns(cfg.points[: cfg.n - 1])
        last = QMatrix.from_columns([cfg.points[cfg.n - 1]])
        lam = M.solve(last)
        cols = [
            [lam.entries[j][0] * v for v in cfg.points[j]]
            for j in range(cfg.n - 1)
        ]
        if any(not lam.entries[j][0] for j in range(cfg.n - 1)):
            raise InputError("degenerate frame; points not in general position")
        return QMatrix.from_columns(cols)

    g = frame(dst) * frame(src).inverse()
    lead = next(v for row in g.entries for v in row if v)
    g = g.scale(1 / lead)
    for p, q in zip(src.points, dst.points):
        if _normalize_point(g.apply(p)) != q:
            raise InputError("no ordered projective transform maps src to dst")
    return g


# ---------------------------------------------------------------------------
# trace machinery and the coordinate ring


@dataclass(frozen=True)
class TraceData:
    """Trace pairing data on the basis 1, lambda*alpha_1, ..., lambda*alpha_{n-1}."""

    gram: QMatrix
    dual: QMatrix  # row u = coordinates of the dual basis vector over the basis

    @property
    def nondegenerate(self) -> bool:
        return self.gram.det() != 0


class _SplitAlgebra:
    """Q^n with pointwise operations; elements are n-tuples."""

    # the extra -1/n on the canonical trace-zero scaling makes the standard
    # configuration reproduce the classical dual-basis multiplication table
    def __init__(self, c: Configuration):
        self.n = c.n
        self.one = tuple(Fraction(1) for _ in range(c.n))
        self.alphas = [tuple(pt[j] for pt in c.points) for j in range(c.n - 1)]
        self.lambda_scale = Fraction(-1, c.n)

    def mult(self, u, v):
        return tuple(a * b for a, b in zip(u, v))

    def trace(self, u):
        return sum(u, Fraction(0))

    def is_unit(self, u):
        return all(v != 0 for v in u)


class _EtaleAlgebra:
    """Q[t]/(f) in power-basis coordinates."""

    def __init__(self, c: Configuration):
        self.n = c.n
        self.f = [Fraction(v) for v in c.f]
        self.one = tuple(Fraction(int(i == 0)) for i in range(c.n))
        self.alphas = list(c.alphas)
        self._traces = _power_traces(self.f)
        self.lambda_scale = Fraction(1)

    def mult(self, u, v):
        return _etale_mult(u, v, self.f)

    def trace(self, u):
        return sum((a * t for a, t in zip(u, self._traces)), Fraction(0))

    def is_unit(self, u):
        cols = [self.mult(u, tuple(Fraction(int(i == j)) for i in range(self.n))) for j in range(self.n)]
        return QMatrix.from_columns(cols).det() != 0


def _algebra_of(c: Configuration):
    if c.kind == "points":
        ok, witness = general_position_check(c)
        if not ok:
            raise InputError(f"points not in general position, witness {witness}")
        return _SplitAlgebra(c)
    return _EtaleAlgebra(c)


def _unit_and_basis(alg) -> list[tuple[Fraction, ...]]:
    """Basis 1, lambda*alpha_1, ..., lambda*alpha_{n-1} with Tr(lambda alpha_j) = 0."""
    n = alg.n
    std = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    rows = []
    for a in alg.alphas:
        rows.append([alg.trace(alg.mult(e, a)) for e in std])
    kernel = nullspace(QMatrix(rows))
    if len(kernel) != 1:
        raise InconsistencyError("trace-zero scaling is not unique; configuration degenerate")
    lam = tuple(v * alg.lambda_scale for v in kernel[0])
    if not alg.is_unit(lam):
        raise InconsistencyError("trace-zero scaling is not a unit; configuration degenerate")
    basis = [alg.one]
    basis.extend(alg.mult(lam, a) for a in alg.alphas)
    return basis


def _trace_gram(c: Configuration):
    """The algebra of ``c``, its trace-zero basis and the trace Gram matrix on it."""
    alg = _algebra_of(c)
    basis = _unit_and_basis(alg)
    gram = QMatrix([[alg.trace(alg.mult(bu, bv)) for bv in basis] for bu in basis])
    return alg, basis, gram


def trace_data(c: Configuration) -> TraceData:
    """Gram matrix and dual-basis coordinates for the trace pairing."""
    _, _, gram = _trace_gram(c)
    return TraceData(gram=gram, dual=gram.inverse())


def coordinate_ring_table(c: Configuration) -> MultiplicationTable:
    """Multiplication table of the coordinate ring on the trace-dual basis
    1, alpha*_1, ..., alpha*_{n-1} of the embedding basis."""
    alg, basis, gram = _trace_gram(c)
    n = alg.n
    if gram.det() == 0:
        raise InputError("degenerate trace form; algebra is not etale")
    dual = gram.inverse()
    duals = []
    for u in range(1, n):
        acc = [Fraction(0)] * len(basis[0])
        for v in range(n):
            coeff = dual.entries[u][v]
            if coeff:
                for idx, val in enumerate(basis[v]):
                    acc[idx] += coeff * val
        duals.append(tuple(acc))

    # expansion basis 1, alpha*_1, ..., alpha*_{n-1}
    expansion = QMatrix.from_columns([alg.one] + duals)
    m = n - 1
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    # one elimination for all products: column t holds the coordinates of pairs[t]
    coords = expansion.solve(QMatrix.from_columns([alg.mult(duals[i], duals[j]) for i, j in pairs])).entries
    c0 = [[Fraction(0)] * m for _ in range(m)]
    cc = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for t, (i, j) in enumerate(pairs):
        c0[i][j] = c0[j][i] = coords[0][t]
        for k in range(m):
            cc[i][j][k] = cc[j][i][k] = coords[k + 1][t]
    return MultiplicationTable(n, c0, cc, basis_note="trace-zero")


def random_points_config(n: int, rng: random.Random, bound: int = 4, max_tries: int = 2000) -> Configuration:
    """Seeded random configuration with small integer coordinates, rejection
    sampled to general position."""
    check_size(n)
    for _ in range(max_tries):
        pts = []
        for _ in range(n):
            pt = [rng.randint(-bound, bound) for _ in range(n - 1)]
            if all(v == 0 for v in pt):
                break
            pts.append(pt)
        if len(pts) != n:
            continue
        try:
            cfg = points_config(pts)
        except InputError:
            continue
        ok, _ = general_position_check(cfg)
        if ok:
            return cfg
    raise InconsistencyError("failed to sample a general-position configuration")
