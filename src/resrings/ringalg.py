"""Multiplication tables of rank-n rings and everything derived from them:
structure constants read off an omega tensor, associativity verification,
shears and basis normalizations, the integral orders B inside B', and
trace-form discriminants.

Elements of the algebra defined by a table are length-n coefficient vectors
over the basis 1, alpha_1, ..., alpha_{n-1}.  Structure-constant indices
i, j, k are 1-based throughout, matching the variable indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Sequence

from .brackets import IntegerView, OmegaTensor, epsilon_ij, epsilon_ijk, omega
from .errors import InconsistencyError, InputError
from .symcore import QMatrix, rational_from_json

if TYPE_CHECKING:  # pragma: no cover
    from .resolution import GradedFreeResolution

__all__ = [
    "MultiplicationTable",
    "ShearTransform",
    "TableReport",
    "structure_constants",
    "verify_table",
    "shear",
    "normalize",
    "table1_check",
    "Table1Report",
    "integral_orders",
    "OrdersResult",
    "discriminant",
    "isomorphic_up_to_scalar",
]


class MultiplicationTable:
    """Structure constants c0_ij and c^k_ij on a basis 1, alpha_1, ..., alpha_{n-1}.

    Storage is 0-based: ``c0[i][j]`` and ``c[i][j][k]`` for the 1-based
    constants c0_{i+1,j+1} and c^{k+1}_{i+1,j+1}; both grids are symmetric
    in (i, j) by construction.  ``basis_note`` and ``scale`` are metadata
    describing how the basis was normalized and which Hessian scaling
    produced the table; they do not affect the algebra.
    """

    __slots__ = ("n", "c0", "c", "basis_note", "scale")

    def __init__(self, n: int, c0: Sequence[Sequence], c: Sequence[Sequence[Sequence]],
                 basis_note: str = "general", scale: str | None = None):
        m = n - 1
        c0_t = tuple(tuple(Fraction(v) for v in row) for row in c0)
        c_t = tuple(tuple(tuple(Fraction(v) for v in vec) for vec in row) for row in c)
        if len(c0_t) != m or any(len(r) != m for r in c0_t):
            raise InputError("c0 must be (n-1)x(n-1)")
        if len(c_t) != m or any(len(r) != m for r in c_t) or any(len(v) != m for r in c_t for v in r):
            raise InputError("c must be (n-1)x(n-1)x(n-1)")
        for i in range(m):
            for j in range(i):
                if c0_t[i][j] != c0_t[j][i] or c_t[i][j] != c_t[j][i]:
                    raise InputError("structure constants must be symmetric in (i, j)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c0", c0_t)
        object.__setattr__(self, "c", c_t)
        object.__setattr__(self, "basis_note", basis_note)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name, value):
        raise AttributeError("MultiplicationTable is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MultiplicationTable)
            and self.n == other.n
            and self.c0 == other.c0
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.n, self.c0, self.c))

    # -- 1-based accessors

    def c0_at(self, i: int, j: int) -> Fraction:
        return self.c0[i - 1][j - 1]

    def c_at(self, i: int, j: int, k: int) -> Fraction:
        return self.c[i - 1][j - 1][k - 1]

    # -- algebra operations on coefficient vectors over (1, alpha_1, ..)

    def mult(self, u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
        m = self.n - 1
        u = [Fraction(x) for x in u]
        v = [Fraction(x) for x in v]
        if len(u) != self.n or len(v) != self.n:
            raise InputError("elements are length-n coefficient vectors")
        out = [Fraction(0)] * self.n
        out[0] = u[0] * v[0]
        for k in range(m):
            out[k + 1] = u[0] * v[k + 1] + v[0] * u[k + 1]
        for i in range(m):
            if not u[i + 1]:
                continue
            for j in range(m):
                f = u[i + 1] * v[j + 1]
                if not f:
                    continue
                out[0] += f * self.c0[i][j]
                cij = self.c[i][j]
                for k in range(m):
                    if cij[k]:
                        out[k + 1] += f * cij[k]
        return tuple(out)

    def basis_trace(self, i: int) -> Fraction:
        """Trace of alpha_i (1-based): sum_j c^j_ij."""
        return sum((self.c[i - 1][j][j] for j in range(self.n - 1)), Fraction(0))

    def trace(self, u: Sequence) -> Fraction:
        u = [Fraction(x) for x in u]
        return self.n * u[0] + sum(u[i] * self.basis_trace(i) for i in range(1, self.n))

    def gram(self) -> QMatrix:
        """Trace pairing Tr(b_i b_j) on the basis 1, alpha_1, ..., alpha_{n-1}."""
        n = self.n
        basis = [tuple(Fraction(int(r == s)) for r in range(n)) for s in range(n)]
        return QMatrix(
            [[self.trace(self.mult(basis[i], basis[j])) for j in range(n)] for i in range(n)]
        )

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.c0 for v in row) and all(
            v.denominator == 1 for row in self.c for vec in row for v in vec
        )

    # -- serialization

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "c0": [[str(v) for v in row] for row in self.c0],
            "c": [[[str(v) for v in vec] for vec in row] for row in self.c],
            "basis_note": self.basis_note,
        }
        if self.scale is not None:
            out["scale"] = self.scale
        return out

    @staticmethod
    def from_json(data: dict) -> "MultiplicationTable":
        try:
            n = int(data["n"])
            c0 = [[rational_from_json(v) for v in row] for row in data["c0"]]
            c = [[[rational_from_json(v) for v in vec] for vec in row] for row in data["c"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad table JSON: {exc}") from exc
        return MultiplicationTable(n, c0, c, data.get("basis_note", "general"), data.get("scale"))

    def __repr__(self):
        return f"MultiplicationTable(n={self.n}, basis={self.basis_note})"


@dataclass(frozen=True)
class ShearTransform:
    """Basis change beta_i = alpha_i + lambda_i * 1."""

    lambdas: tuple[Fraction, ...]

    def inverse(self) -> "ShearTransform":
        return ShearTransform(tuple(-v for v in self.lambdas))


@dataclass(frozen=True)
class TableReport:
    associative: bool
    trace_zero: bool
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.associative and self.trace_zero


def structure_constants(Om: OmegaTensor, scale: str) -> MultiplicationTable:
    """Multiplication table with c^k_ij = s * d^2 Omega_k / dx_i dx_j.

    ``scale`` is "hessian" (s = 1) or "bhargava" (s = 1/2n).  The associative
    law (alpha_i alpha_j) alpha_k = alpha_i (alpha_j alpha_k), read on its
    alpha_k-coefficient for any k != i, forces

        c0_ij = sum_r (c^r_jk c^k_ri - c^r_ij c^k_rk),

    which is read here from the first such k.  The "hessian" table is then
    checked once with :func:`verify_table`; that check covers every other
    choice of k, so an omega tensor whose auxiliary indices disagree raises
    InputError like any other non-associative one.  The "bhargava" table is
    its rescaling (see :func:`_bhargava_rescale`).  Callers need not verify
    the returned table again.
    """
    if scale not in ("hessian", "bhargava"):
        raise InputError(f"unknown scale {scale!r}")
    n = Om.n
    m = n - 1
    c = [[[Om.hessian_entry(k, i, j) for k in range(1, n)] for j in range(1, n)] for i in range(1, n)]

    c0 = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        k = 1 if i == 0 else 0
        for j in range(i, m):
            c0[i][j] = c0[j][i] = sum(
                (c[j][k][r] * c[r][i][k] - c[i][j][r] * c[r][k][k] for r in range(m)), Fraction(0)
            )

    table = MultiplicationTable(n, c0, c, basis_note="trace-zero", scale="hessian")
    report = verify_table(table)
    if not report.associative:
        raise InputError(f"omega tensor does not define an associative algebra: {report.witness}")
    return table if scale == "hessian" else _bhargava_rescale(table)


def _bhargava_rescale(T: MultiplicationTable) -> MultiplicationTable:
    """The "bhargava" table of a verified "hessian" one: on the basis alpha_i / 2n,
    c^k scales by 1/2n and c0 by 1/4n^2, and associativity holds unchecked."""
    s = Fraction(1, 2 * T.n)
    c0 = [[s * s * v for v in row] for row in T.c0]
    c = [[[s * v for v in vec] for vec in row] for row in T.c]
    return MultiplicationTable(T.n, c0, c, basis_note=T.basis_note, scale="bhargava")


def verify_table(T: MultiplicationTable) -> TableReport:
    """Exact checks: associativity over all basis triples, trace-zero basis.

    The c0 constants need no check of their own: for k != i the
    alpha_k-coefficient of (alpha_i alpha_j) alpha_k - alpha_i (alpha_j alpha_k)
    is c0_ij minus the recovery sum of :func:`structure_constants`, so
    associativity already pins every c0_ij.  Each table is verified once,
    where it is built or where its basis changes: :func:`structure_constants`
    verifies what it returns, and tables made by :func:`normalize` or read
    from outside are verified by their callers.
    """
    n = T.n
    basis = [tuple(Fraction(int(r == s)) for r in range(n)) for s in range(n)]
    # A triple containing the unit 1 = basis[0] holds by the construction of
    # mult.  By commutativity (k, j, i) states the equation of (i, j, k), and
    # (i, j, i) always holds, so scanning 1 <= i < k finds the first failing
    # triple of the full scan.
    prods = [[T.mult(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    failing = next(((i, j, k) for i in range(1, n) for j in range(1, n) for k in range(i + 1, n)
                    if T.mult(prods[i][j], basis[k]) != T.mult(basis[i], prods[j][k])), None)
    associative = failing is None
    witness = None if associative else "associativity fails at triple ({},{},{})".format(*failing)

    trace_zero = all(T.basis_trace(i) == 0 for i in range(1, n))
    if not trace_zero and witness is None:
        witness = "basis is not trace-zero"
    return TableReport(associative, trace_zero, witness)


def shear(T: MultiplicationTable, s: ShearTransform) -> MultiplicationTable:
    """Rewrite the table on the sheared basis beta_i = alpha_i + lambda_i."""
    n = T.n
    m = n - 1
    lam = [Fraction(v) for v in s.lambdas]
    if len(lam) != m:
        raise InputError(f"shear needs {m} coefficients")
    c = [
        [
            [
                T.c[i][j][k] + (lam[j] if i == k else 0) + (lam[i] if j == k else 0)
                for k in range(m)
            ]
            for j in range(m)
        ]
        for i in range(m)
    ]
    c0 = [
        [
            T.c0[i][j] - sum(T.c[i][j][k] * lam[k] for k in range(m)) - lam[i] * lam[j]
            for j in range(m)
        ]
        for i in range(m)
    ]
    out = MultiplicationTable(n, c0, c, basis_note="general", scale=T.scale)
    _assert_shear_invariants(T, out)
    return out


def _assert_shear_invariants(T1: MultiplicationTable, T2: MultiplicationTable) -> None:
    """The four shear-invariant combinations of constants must be unchanged."""
    n = T1.n
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                if len({i, j, k}) != 3:
                    continue
                checks = (
                    T1.c_at(i, j, k) == T2.c_at(i, j, k),
                    T1.c_at(i, i, j) == T2.c_at(i, i, j),
                    T1.c_at(i, j, j) - T1.c_at(i, k, k) == T2.c_at(i, j, j) - T2.c_at(i, k, k),
                    T1.c_at(i, i, i) - T1.c_at(i, j, j) - T1.c_at(i, k, k)
                    == T2.c_at(i, i, i) - T2.c_at(i, j, j) - T2.c_at(i, k, k),
                )
                if not all(checks):
                    raise InconsistencyError("shear changed a shear-invariant combination")


def normalize(T: MultiplicationTable, convention: str) -> tuple[MultiplicationTable, ShearTransform]:
    """Shear to the unique basis satisfying the named convention.

    "cyclic" kills c^{i+1}_{i,i+1} around the cycle, "pairwise" (n odd only)
    kills both constants of each consecutive pair, "trace_zero" makes every
    basis vector traceless.
    """
    n = T.n
    m = n - 1
    lam = [Fraction(0)] * m
    if convention == "cyclic":
        for i in range(1, m):
            lam[i - 1] = -T.c_at(i, i + 1, i + 1)
        lam[m - 1] = -T.c_at(m, 1, 1)
        note = "cyclic"
    elif convention == "pairwise":
        if n % 2 == 0:
            raise InputError("pairwise normalization needs n odd")
        for a in range(1, m, 2):  # pairs (a, a+1)
            lam[a] = -T.c_at(a, a + 1, a)
            lam[a - 1] = -T.c_at(a, a + 1, a + 1)
        note = "pairwise"
    elif convention == "trace_zero":
        for k in range(1, n):
            lam[k - 1] = -T.basis_trace(k) / n
        note = "trace-zero"
    else:
        raise InputError(f"unknown normalization {convention!r}")
    s = ShearTransform(tuple(lam))
    out = shear(T, s)
    out = MultiplicationTable(out.n, out.c0, out.c, basis_note=note, scale=T.scale)
    return out, s


# ---------------------------------------------------------------------------
# Table 1 identities


@dataclass(frozen=True)
class Table1Report:
    n: int
    triples_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def table1_check(F: "GradedFreeResolution") -> Table1Report:
    """Verify the four epsilon-signed bracket/brace identities on every
    distinct index triple (pairs for the pure-square identity)."""
    n = F.n
    if n < 5:
        raise InputError("the general identities need n >= 5; use the quartic checks for n = 4")
    view, memo = IntegerView(F), {}
    Om = view.omega(memo)
    sign_a = (-1) ** (n + 1)
    sign_c = (-1) ** n
    failures: list[str] = []
    checked = 0

    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            rest_ij = tuple(v for v in range(1, n) if v not in (i, j))
            lhs = Om.hessian_entry(j, i, i)
            rhs = epsilon_ij(n, i, j) * 2 * n * view.brace((i, i) + rest_ij + (i,), memo)
            if lhs != rhs:
                failures.append(f"square identity fails at (i,j)=({i},{j})")
            for k in range(1, n):
                if len({i, j, k}) != 3:
                    continue
                checked += 1
                rest = tuple(v for v in range(1, n) if v not in (i, j, k))
                eps = epsilon_ijk(n, i, j, k)
                if Om.hessian_entry(k, i, j) != sign_a * eps * 2 * n * view.brace((i, i) + rest + (j, j), memo):
                    failures.append(f"mixed identity fails at ({i},{j},{k})")
                lhs3 = Om.hessian_entry(j, i, j) - Om.hessian_entry(k, i, k)
                if lhs3 != sign_c * eps * 2 * n * view.brace((i, i) + rest + (j, k), memo):
                    failures.append(f"difference identity fails at ({i},{j},{k})")
                lhs4 = (
                    Om.hessian_entry(i, i, i)
                    - Om.hessian_entry(j, i, j)
                    - Om.hessian_entry(k, i, k)
                )
                if lhs4 != sign_a * eps * 2 * n * view.brace((i, j) + rest + (k, i), memo):
                    failures.append(f"diagonal identity fails at ({i},{j},{k})")
    return Table1Report(n, checked, tuple(failures))


# ---------------------------------------------------------------------------
# integral orders and discriminants


@dataclass(frozen=True)
class OrdersResult:
    B: MultiplicationTable
    Bprime: MultiplicationTable
    shear_applied: ShearTransform
    disc_B: Fraction
    disc_Bprime: Fraction

    @property
    def ratio(self) -> Fraction:
        return self.disc_B / self.disc_Bprime


def integral_orders(F_int: "GradedFreeResolution") -> OrdersResult:
    """The order B from full-Hessian constants and B' from (1/2n)-scaled
    constants after the cyclic normalization shear; checks integrality,
    associativity and the discriminant ratio (2n)^{2(n-1)} exactly.

    B is verified by :func:`structure_constants`, and its (1/2n)-scaled
    table is a rescaling of B; only B', whose basis the shear changed, is
    verified again here."""
    n = F_int.n
    if n < 4:
        raise InputError("integral orders need n >= 4")
    for phi in F_int.maps:
        for row in phi.entries:
            for p in row:
                if any(v.denominator != 1 for v in p.terms.values()):
                    raise InputError("resolution must have integer coefficients")
    Om = omega(F_int)
    B = structure_constants(Om, "hessian")
    if not B.is_integral():
        raise InconsistencyError("hessian-scale constants of an integral resolution must be integral")
    Bprime, s = normalize(_bhargava_rescale(B), "cyclic")
    if not Bprime.is_integral():
        raise InconsistencyError("normalized (1/2n)-scale constants failed to be integral")
    if not verify_table(Bprime).associative:
        raise InconsistencyError("order multiplication failed associativity")
    dB = discriminant(B)
    dBp = discriminant(Bprime)
    if dB != Fraction(2 * n) ** (2 * (n - 1)) * dBp:
        raise InconsistencyError("discriminant ratio disc(B)/disc(B') != (2n)^(2(n-1))")
    return OrdersResult(B, Bprime, s, dB, dBp)


def discriminant(T: MultiplicationTable) -> Fraction:
    """Determinant of the trace Gram matrix on the basis 1, alpha_1, ..., alpha_{n-1}."""
    return T.gram().det()


def isomorphic_up_to_scalar(T1: MultiplicationTable, T2: MultiplicationTable) -> Fraction | None:
    """A scalar mu with c^k(T1) = mu c^k(T2) and c0(T1) = mu^2 c0(T2), or None."""
    if T1.n != T2.n:
        return None
    m = T1.n - 1
    mu = None
    for i in range(m):
        for j in range(m):
            for k in range(m):
                a, b = T1.c[i][j][k], T2.c[i][j][k]
                if b:
                    mu = a / b
                    break
            if mu is not None:
                break
        if mu is not None:
            break
    if mu is None or mu == 0:
        return None
    for i in range(m):
        for j in range(m):
            if T1.c0[i][j] != mu * mu * T2.c0[i][j]:
                return None
            for k in range(m):
                if T1.c[i][j][k] != mu * T2.c[i][j][k]:
                    return None
    return mu
