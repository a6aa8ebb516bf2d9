"""Rank 3, 4, 5 specializations: cubic rings from binary cubics, quartic
bracket/brace identities for pencils of ternary quadrics, and the Pfaffian
presentation check for alternating 5x5 matrices of linear forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brackets import brace, bracket, omega
from .errors import InconsistencyError, InputError, Report
from .resolution import GradedFreeResolution, validate
from .ringalg import MultiplicationTable, structure_constants, verify_table, discriminant
from .symcore import Polynomial, PolyMatrix

__all__ = [
    "BinaryCubic",
    "TernaryQuadricPair",
    "ldf_table",
    "ldf_equivalence_check",
    "quartic_identities_check",
    "pfaffian_shape_check",
    "pfaffian4",
]


@dataclass(frozen=True)
class BinaryCubic:
    """The form a x^3 + b x^2 y + c x y^2 + d y^3."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def of(a, b, c, d) -> "BinaryCubic":
        return BinaryCubic(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def discriminant(self) -> Fraction:
        a, b, c, d = self.a, self.b, self.c, self.d
        return 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2

    def polynomial(self) -> Polynomial:
        """As a homogeneous cubic in x1, x2."""
        return Polynomial(
            2,
            {
                (3, 0): self.a,
                (2, 1): self.b,
                (1, 2): self.c,
                (0, 3): self.d,
            },
        )

    def resolution(self) -> GradedFreeResolution:
        """The length-one resolution 0 -> R(-3) -> R."""
        return GradedFreeResolution(3, (1, 1), (0, 3), [PolyMatrix([[self.polynomial()]])])


def ldf_table(f: BinaryCubic) -> MultiplicationTable:
    """Cubic ring on the basis 1, omega, theta with omega^2 = -ac - b omega + a theta,
    omega theta = -ad, theta^2 = -bd - d omega + c theta; associative for every form."""
    a, b, c, d = f.a, f.b, f.c, f.d
    c0 = [[-a * c, -a * d], [-a * d, -b * d]]
    cc = [
        [[-b, a], [Fraction(0), Fraction(0)]],
        [[Fraction(0), Fraction(0)], [-d, c]],
    ]
    return MultiplicationTable(3, c0, cc, basis_note="general")


def ldf_equivalence_check(f: BinaryCubic) -> Report:
    """Check "relations": the (1/6)-Hessian constants of the cubic's
    resolution solve the classical system; and "discriminant": the table
    discriminant equals disc(f)."""
    disc = f.discriminant()
    if disc == 0:
        raise InputError("cubic has a repeated root")
    F = f.resolution()
    T = structure_constants(omega(F), "bhargava")
    a, b, c, d = f.a, f.b, f.c, f.d
    relations_ok = (
        T.c_at(1, 1, 2) == a
        and T.c_at(1, 1, 1) - 2 * T.c_at(1, 2, 2) == -b
        and T.c_at(2, 2, 2) - 2 * T.c_at(1, 2, 1) == c
        and T.c_at(2, 2, 1) == -d
    )
    table = ldf_table(f)
    if not verify_table(table).passed("associative"):
        raise InconsistencyError("cubic-ring table failed associativity")
    discriminant_ok = discriminant(table) == disc
    return Report((
        ("relations", relations_ok, "" if relations_ok else "Hessian constants do not solve the system"),
        ("discriminant", discriminant_ok, "" if discriminant_ok else f"table discriminant != {disc}"),
    ))


# ---------------------------------------------------------------------------
# n = 4


@dataclass(frozen=True)
class TernaryQuadricPair:
    """A pencil (A, B) of quadratic forms in three variables."""

    A: Polynomial
    B: Polynomial

    def __post_init__(self):
        for q in (self.A, self.B):
            if q.num_vars != 3 or not q.is_homogeneous(2):
                raise InputError("pencil entries must be ternary quadratic forms")

    def resolution(self) -> GradedFreeResolution:
        """The complex 0 -> R(-4) --(B,-A)^T--> R(-2)^2 --(A,B)--> R."""
        return GradedFreeResolution(
            4,
            (1, 2, 1),
            (0, 2, 4),
            [PolyMatrix([[self.A, self.B]]), PolyMatrix([[self.B], [-self.A]])],
        )


def _dd(p: Polynomial, u: int, v: int) -> Fraction:
    return p.derivative(u).derivative(v).constant_term()


def quartic_identities_check(F: GradedFreeResolution) -> Report:
    """The four n=4 bracket/brace identities over the even permutations of
    (1,2,3), plus both antisymmetries: one check per identity instance."""
    if F.n != 4:
        raise InputError("quartic identities need an n=4 resolution")
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, ok, "" if ok else "fails"))

    br = {
        (i, j): bracket(F, (i, j)) for i in (1, 2, 3) for j in (1, 2, 3)
    }
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        check(f"jjii identity at {(i, j, k)}", _dd(br[(j, i)], i, j) == 4 * brace(F, (j, j, i, i)))
        check(f"iiik identity at {(i, j, k)}", _dd(br[(i, k)], i, i) == 4 * brace(F, (i, i, i, k)))
        check(f"iijk identity at {(i, j, k)}",
              _dd(br[(i, k)], i, j) + _dd(br[(i, j)], i, k) == 4 * brace(F, (i, i, j, k)))
        lhs = _dd(br[(k, j)], i, i) + _dd(br[(k, i)], i, j) + _dd(br[(i, j)], i, k)
        check(f"ikij identity at {(i, j, k)}", lhs == 4 * brace(F, (i, k, i, j)))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            check(f"[{i},{j}] = -[{j},{i}]", br[(i, j)] == -br[(j, i)])
    words = [
        (i, j, k, l)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
        for l in (1, 2, 3)
    ]
    for w in words:
        check(f"brace antisymmetry at {w}", brace(F, w) == -brace(F, (w[2], w[3], w[0], w[1])))
    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# n = 5


def pfaffian4(M: PolyMatrix) -> Polynomial:
    """Pfaffian of an alternating 4x4 polynomial matrix."""
    if M.rows != 4 or M.cols != 4:
        raise InputError("pfaffian4 needs a 4x4 matrix")
    e = M.entries
    return e[0][1] * e[2][3] - e[0][2] * e[1][3] + e[0][3] * e[1][2]


def _check_alternating(Phi: PolyMatrix) -> None:
    if Phi.rows != 5 or Phi.cols != 5:
        raise InputError("expected a 5x5 matrix")
    for i in range(5):
        if not Phi.entries[i][i].is_zero():
            raise InputError("diagonal of an alternating matrix must vanish")
        for j in range(5):
            if Phi.entries[i][j] != -Phi.entries[j][i]:
                raise InputError("matrix is not alternating")
            if not Phi.entries[i][j].is_homogeneous(1):
                raise InputError("entries must be linear forms")
    if Phi.num_vars != 4:
        raise InputError("entries must be linear forms in 4 variables")


def signed_pfaffians(Phi: PolyMatrix) -> list[Polynomial]:
    """P_i = (-1)^i Pf(Phi with row and column i deleted), i = 1..5."""
    out = []
    for i in range(5):
        keep = [r for r in range(5) if r != i]
        sub = PolyMatrix([[Phi.entries[r][c] for c in keep] for r in keep])
        out.append(pfaffian4(sub) * ((-1) ** (i + 1)))
    return out


def pfaffian_shape_check(Phi: PolyMatrix) -> tuple[Report, MultiplicationTable | None]:
    """Assemble the complex (P, Phi, P^T) from the signed 4x4 Pfaffians,
    validate it as an n=5 resolution, and on success run the full
    omega/table pipeline on it.  Returns the validation report and the
    table, which is None when validation fails."""
    _check_alternating(Phi)
    P = signed_pfaffians(Phi)
    F = GradedFreeResolution(
        5,
        (1, 5, 5, 1),
        (0, 2, 3, 5),
        [PolyMatrix([P]), Phi, PolyMatrix([[p] for p in P])],
    )
    report = validate(F)
    if not report.ok:
        return report, None
    return report, structure_constants(omega(F), "hessian")
