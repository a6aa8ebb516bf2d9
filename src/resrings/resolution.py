"""Minimal graded free resolutions of R/I(X), built by exact
degree-by-degree kernel computation.

The shape is known in advance: ranks [1, b_1, ..., b_{n-3}, 1] with
b_i = n*C(n-2, i) - C(n, i+1) and generator degrees [0, 2, 3, ..., n-2, n]
(for n = 3 the resolution is 0 -> R(-3) -> R given by the binary cubic).
Each differential after the first is the canonical reduced-echelon basis of
the syzygies of the previous one in the single relevant degree, so the
Betti formula doubles as a correctness certificate at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add
from typing import Sequence

from .configs import Configuration, evaluation_matrix, general_position_check, points_config
from .errors import InconsistencyError, InputError
from .symcore import (
    Polynomial,
    PolyMatrix,
    QMatrix,
    SparseRows,
    monomials_of_degree,
    nullspace,
    rational_from_json,
)

__all__ = [
    "GradedFreeResolution",
    "ResolutionReport",
    "TransformedResolution",
    "betti_numbers",
    "resolution_ranks",
    "resolution_twists",
    "build_resolution",
    "validate",
    "transform_resolution",
    "self_duality_check",
    "integerize",
]


def betti_numbers(n: int) -> tuple[int, ...]:
    """Interior Betti numbers b_1, ..., b_{n-3} for n >= 4."""
    return tuple(n * comb(n - 2, i) - comb(n, i + 1) for i in range(1, n - 2))


def resolution_ranks(n: int) -> tuple[int, ...]:
    if n == 3:
        return (1, 1)
    return (1,) + betti_numbers(n) + (1,)


def resolution_twists(n: int) -> tuple[int, ...]:
    if n == 3:
        return (0, 3)
    return (0,) + tuple(range(2, n - 1)) + (n,)


class GradedFreeResolution:
    """Twists and differentials of a graded free resolution F_*.

    ``maps[r-1]`` is the matrix of phi_r; ``scale`` records the factor that
    turned the canonical kernel vector of the last step into the primitive
    integer column actually stored.  The hash is computed once, on first use.
    """

    __slots__ = ("n", "ranks", "twists", "maps", "scale", "_hash")

    def __init__(self, n: int, ranks: Sequence[int], twists: Sequence[int],
                 maps: Sequence[PolyMatrix], scale: Fraction = Fraction(1)):
        ranks = tuple(int(r) for r in ranks)
        twists = tuple(int(t) for t in twists)
        maps = tuple(maps)
        if len(ranks) != len(twists) or len(maps) != len(ranks) - 1:
            raise InputError("ranks, twists and maps have inconsistent lengths")
        for r, phi in enumerate(maps, start=1):
            if phi.rows != ranks[r - 1] or phi.cols != ranks[r]:
                raise InputError(f"map {r} has shape {phi.rows}x{phi.cols}, expected {ranks[r - 1]}x{ranks[r]}")
            if phi.num_vars != n - 1:
                raise InputError("maps must live in n-1 variables")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "scale", Fraction(scale))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GradedFreeResolution is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GradedFreeResolution)
            and (self.n, self.ranks, self.twists, self.maps) == (other.n, other.ranks, other.twists, other.maps)
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.ranks, self.twists, self.maps)))
        return self._hash

    def map_degree(self, r: int) -> int:
        """Entry degree of phi_r (1-based)."""
        return self.twists[r] - self.twists[r - 1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ranks": list(self.ranks),
            "twists": list(self.twists),
            "maps": [phi.to_json() for phi in self.maps],
            "scale": str(self.scale),
        }

    @staticmethod
    def from_json(data: dict) -> "GradedFreeResolution":
        try:
            return GradedFreeResolution(
                int(data["n"]),
                [int(r) for r in data["ranks"]],
                [int(t) for t in data["twists"]],
                [PolyMatrix.from_json(mj) for mj in data["maps"]],
                rational_from_json(data.get("scale", "1")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad resolution JSON: {exc}") from exc

    def __repr__(self):
        return f"GradedFreeResolution(n={self.n}, ranks={self.ranks})"


# ---------------------------------------------------------------------------
# construction


def _primitive_scale(vec: Sequence[Fraction]) -> Fraction:
    """Scalar s such that s*vec is a primitive integer vector whose first
    nonzero entry is positive."""
    nonzero = [v for v in vec if v]
    if not nonzero:
        return Fraction(1)
    den = lcm(*(v.denominator for v in nonzero))
    num = 0
    for v in nonzero:
        num = gcd(num, abs(v.numerator * (den // v.denominator)))
    s = Fraction(den, num)
    return -s if nonzero[0] < 0 else s


def _syzygy_system(phi: PolyMatrix, entry_degree: int, delta: int) -> SparseRows:
    """Coefficient matrix of the linear map sending a column vector of
    degree-delta forms v to the coefficients of phi * v.

    Row (i, mu) and column (j, nu) meet in the coefficient of x^(mu - nu) in
    phi_ij, so every nonzero entry is one term of phi written once.
    """
    m = phi.num_vars
    mons_out = monomials_of_degree(m, entry_degree + delta)
    mons_in = monomials_of_degree(m, delta)
    idx_out = {mu: t for t, mu in enumerate(mons_out)}
    L_out, L_in = len(mons_out), len(mons_in)
    rows = [{} for _ in range(phi.rows * L_out)]
    for i, phi_row in enumerate(phi.entries):
        block = rows[i * L_out : (i + 1) * L_out]
        for j, p in enumerate(phi_row):
            for e, coeff in p.terms.items():
                for t, nu in enumerate(mons_in):
                    block[idx_out[tuple(map(add, e, nu))]][j * L_in + t] = coeff
    return SparseRows(phi.cols * L_in, rows)


def _coefficient_rows(phi: PolyMatrix, delta: int) -> SparseRows:
    """The columns of phi, whose entries are degree-delta forms, laid out as
    kernel vectors of the syzygy systems above (one row per column)."""
    idx = {nu: t for t, nu in enumerate(monomials_of_degree(phi.num_vars, delta))}
    L = len(idx)
    return SparseRows(phi.rows * L, (
        {i * L + idx[e]: c for i, row in enumerate(phi.entries) for e, c in row[j].terms.items()}
        for j in range(phi.cols)
    ))


def _columns_to_matrix(vectors: Sequence[Sequence[Fraction]], nrows: int, delta: int, m: int) -> PolyMatrix:
    """Reshape flat kernel vectors (row-block per module generator) into a
    PolyMatrix whose columns are the syzygies."""
    L = len(monomials_of_degree(m, delta))
    cols = []
    for vec in vectors:
        col = [
            Polynomial.from_coefficient_vector(m, delta, vec[j * L : (j + 1) * L])
            for j in range(nrows)
        ]
        cols.append(col)
    return PolyMatrix([[cols[c][r] for c in range(len(cols))] for r in range(nrows)])


def _kernel_mismatch(c: Configuration, stage: str, found: int, expected: int):
    if c.kind == "points":
        ok, witness = general_position_check(c)
        if not ok:
            return InputError(f"configuration not in general position, witness {witness}")
    return InconsistencyError(
        f"kernel dimension {found} != Betti number {expected} at {stage} for a general-position input"
    )


def build_resolution(c: Configuration) -> GradedFreeResolution:
    """Minimal free resolution of the configuration's coordinate ring.

    Deterministic: differentials are canonical reduced-echelon kernel bases,
    and the last one is rescaled to a primitive integer column with positive
    leading coefficient (the factor is recorded in ``scale``).
    """
    n = c.n
    m = n - 1
    if c.kind == "points":
        ok, witness = general_position_check(c)
        if not ok:
            raise InputError(f"points not in general position, witness {witness}")
    ranks = resolution_ranks(n)
    twists = resolution_twists(n)

    d0 = 3 if n == 3 else 2
    kernel = nullspace(evaluation_matrix(c, d0))
    if len(kernel) != ranks[1]:
        raise _kernel_mismatch(c, "ideal generators", len(kernel), ranks[1])

    if n == 3:
        s = _primitive_scale(kernel[0])
        cubic = Polynomial.from_coefficient_vector(m, 3, [v * s for v in kernel[0]])
        return GradedFreeResolution(3, ranks, twists, [PolyMatrix([[cubic]])], scale=s)

    maps = [PolyMatrix([[Polynomial.from_coefficient_vector(m, 2, v) for v in kernel]])]
    scale = Fraction(1)
    for r in range(1, n - 2):
        delta = twists[r + 1] - twists[r]
        system = _syzygy_system(maps[-1], twists[r] - twists[r - 1], delta)
        kernel = nullspace(system)
        if len(kernel) != ranks[r + 1]:
            raise _kernel_mismatch(c, f"syzygies of map {r}", len(kernel), ranks[r + 1])
        if r == n - 3:
            scale = _primitive_scale(kernel[0])
            kernel = [tuple(v * scale for v in kernel[0])]
        maps.append(_columns_to_matrix(kernel, ranks[r], delta, m))
    return GradedFreeResolution(n, ranks, twists, maps, scale=scale)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ResolutionReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def first_failure(self) -> str | None:
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}"
        return None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
        }


def _shape_check(F: GradedFreeResolution) -> tuple[bool, str]:
    if F.ranks != resolution_ranks(F.n):
        return False, f"ranks {F.ranks} != {resolution_ranks(F.n)}"
    if F.twists != resolution_twists(F.n):
        return False, f"twists {F.twists} != {resolution_twists(F.n)}"
    return True, ""


def _grading_check(F: GradedFreeResolution) -> tuple[bool, str]:
    for r, phi in enumerate(F.maps, start=1):
        d = F.map_degree(r)
        for i, row in enumerate(phi.entries):
            for j, p in enumerate(row):
                if not p.is_homogeneous(d):
                    return False, f"entry ({i},{j}) of map {r} is not homogeneous of degree {d}"
    return True, ""


_Systems = list[tuple[SparseRows, SparseRows]]


def _product_systems(F: GradedFreeResolution) -> _Systems:
    """(S_r, W_r) for every product phi_r phi_{r+1}, r = 1, ..., len(maps) - 1.

    S_r is the syzygy system of phi_r in the degree of phi_{r+1} and W_r
    holds the columns of phi_{r+1} as its kernel vectors, so S_r W_r^T is
    the coefficient array of phi_r phi_{r+1}: entry (i L + t, j) is, up to
    the nonzero scalings of SparseRows, the coefficient of the t-th monomial
    of degree twists[r+1] - twists[r-1] in entry (i, j), where L counts
    those monomials.  Both assume homogeneous entries of the map degrees.
    """
    out = []
    for r in range(1, len(F.maps)):
        delta = F.map_degree(r + 1)
        out.append((_syzygy_system(F.maps[r - 1], F.map_degree(r), delta), _coefficient_rows(F.maps[r], delta)))
    return out


def _first_nonzero_entry(system: SparseRows, witness: SparseRows, block: int) -> tuple[int, int] | None:
    """First (i, j) in row-major order at which S W^T has a nonzero entry in
    rows i*block .. (i+1)*block - 1 and column j, in exact integers."""
    by_col: list[list[tuple[int, int]]] = [[] for _ in range(system.cols)]
    for j, w in enumerate(witness.entries):
        for c, x in w.items():
            by_col[c].append((j, x))
    first = None
    for k, row in enumerate(system.entries):
        i = k // block
        if first is not None and i > first[0]:
            break
        acc: dict[int, int] = {}
        for c, v in row.items():
            for j, x in by_col[c]:
                acc[j] = acc.get(j, 0) + v * x
        j = min((j for j, s in acc.items() if s), default=None)
        if j is not None and (first is None or j < first[1]):
            first = (i, j)
    return first


def _complex_check(F: GradedFreeResolution, systems: _Systems | None = None) -> tuple[bool, str]:
    """phi_r phi_{r+1} = 0 for every r, decided by the exact integer product
    S_r W_r^T of :func:`_product_systems` (``systems``, assembled here when
    not given; a caller passes them only for an F that passed the grading
    check).  Those arrays assume homogeneous entries, so a resolution that
    fails the grading check is reported as skipped."""
    if systems is None:
        graded, detail = _grading_check(F)
        if not graded:
            return False, f"skipped, grading failed first ({detail})"
        systems = _product_systems(F)
    for r, (system, witness) in enumerate(systems, start=1):
        cell = _first_nonzero_entry(system, witness, system.rows // F.maps[r - 1].rows)
        if cell is not None:
            return False, f"(map {r})(map {r + 1}) has nonzero entry at ({cell[0]},{cell[1]})"
    return True, ""


def _minimality_check(F: GradedFreeResolution) -> tuple[bool, str]:
    for r, phi in enumerate(F.maps, start=1):
        for i, row in enumerate(phi.entries):
            for j, p in enumerate(row):
                if p.constant_term():
                    return False, f"entry ({i},{j}) of map {r} has a constant term"
    return True, ""


def _exactness_check(F: GradedFreeResolution, is_complex: bool,
                     systems: _Systems | None = None) -> tuple[bool, str]:
    """The syzygies of phi_r in degree twists[r+1] must have dimension
    ranks[r+1], for every interior r.

    ``is_complex`` is the verdict of the complex check, and ``systems`` the
    S_r and W_r it read (see :func:`_product_systems`; assembled here when
    not given, and given only for a graded F).  When it holds, the columns of phi_{r+1} lie in the kernel
    of S_r exactly, and one prime p usually settles the dimension
    (``_modnull.kernel_dimension_is``): the kernel has dimension at most
    cols - rank_p(S_r), because rank_p <= rank_Q, and at least ranks[r+1]
    when those columns are independent mod p.  When that fails, the full
    certified nullspace gives the dimension.  Like the complex check, it is
    skipped when the grading check fails.
    """
    if systems is None:
        graded, detail = _grading_check(F)
        if not graded:
            return False, f"skipped, grading failed first ({detail})"
        systems = _product_systems(F)
    # imported on first use: numpy takes longer to import than this package
    from ._modnull import kernel_dimension_is

    for r, (system, witness) in enumerate(systems[: F.n - 3], start=1):
        if is_complex and kernel_dimension_is(system, witness):
            continue
        dim = len(nullspace(system))
        if dim != F.ranks[r + 1]:
            return False, f"kernel of map {r} in degree {F.twists[r + 1]} has dimension {dim}, expected {F.ranks[r + 1]}"
    return True, ""


def validate(F: GradedFreeResolution) -> ResolutionReport:
    """Run every structural invariant: shape, grading, complex, minimality,
    and exactness at the generator degrees.

    One pass over the differentials: each syzygy system S_r and coefficient
    array W_r is assembled once, and serves both the exact integer product
    S_r W_r^T of the complex check and the one-prime exactness certificate.
    A resolution that fails the grading check reports both as skipped.
    """
    grading = _grading_check(F)
    systems = _product_systems(F) if grading[0] else None
    is_complex, complex_detail = _complex_check(F, systems)
    return ResolutionReport((
        ("shape", *_shape_check(F)),
        ("grading", *grading),
        ("complex", is_complex, complex_detail),
        ("minimality", *_minimality_check(F)),
        ("exactness", *_exactness_check(F, is_complex, systems)),
    ))


# ---------------------------------------------------------------------------
# transforms, duality, integrality


@dataclass(frozen=True)
class TransformedResolution:
    resolution: GradedFreeResolution
    configuration: Configuration | None


def transform_resolution(F: GradedFreeResolution, g: QMatrix,
                         config: Configuration | None = None) -> TransformedResolution:
    """Substitute x'_j = sum_i g_ij x_i in every differential.

    When the resolved point configuration is supplied, the transformed
    configuration (the points annihilating the new first differential) is
    identified as g^{-T} X and verified by exact evaluation.
    """
    m = F.n - 1
    if g.rows != m or g.cols != m:
        raise InputError(f"transform must be {m}x{m}")
    if g.det() == 0:
        raise InputError("transform must be invertible")
    maps = [phi.substitute(g) for phi in F.maps]
    Fp = GradedFreeResolution(F.n, F.ranks, F.twists, maps, scale=F.scale)
    new_config = None
    if config is not None and config.kind == "points":
        inv_t = g.inverse().transpose()
        new_config = points_config([inv_t.apply(p) for p in config.points])
        phi1 = Fp.maps[0]
        for pt in new_config.points:
            for entry in phi1.entries[0]:
                if entry.evaluate(pt) != 0:
                    raise InconsistencyError("transformed ideal does not vanish on the mapped points")
    return TransformedResolution(Fp, new_config)


def self_duality_check(F: GradedFreeResolution) -> ResolutionReport:
    """Check the reversed-transposed complex is again a valid shape with the
    same quadratic generators (Gorenstein self-duality of the resolution)."""
    if F.n < 4:
        raise InputError("self-duality check needs n >= 4")
    dual_maps = [F.maps[len(F.maps) - 1 - r].transpose() for r in range(len(F.maps))]
    checks = []
    try:
        Fd = GradedFreeResolution(F.n, F.ranks, F.twists, dual_maps)
    except InputError as exc:
        return ResolutionReport((("dual shape", False, str(exc)),))
    for name, fn in (
        ("dual shape", _shape_check),
        ("dual grading", _grading_check),
        ("dual complex", _complex_check),
        ("dual minimality", _minimality_check),
    ):
        ok, detail = fn(Fd)
        checks.append((name, ok, detail))

    def row_space(phi: PolyMatrix) -> QMatrix:
        rows = [p.coefficient_vector(2) for p in phi.entries[0]]
        return QMatrix(rows).rref()[0]

    same = row_space(F.maps[0]) == row_space(Fd.maps[0])
    checks.append(("dual generators span the ideal", same,
                   "" if same else "degree-2 row space differs from I(X)_2"))
    return ResolutionReport(tuple(checks))


def integerize(F: GradedFreeResolution) -> tuple[GradedFreeResolution, tuple[tuple[Fraction, ...], ...]]:
    """Rescale the free-module bases by diagonal matrices so every entry is
    an integer (columns primitive); returns the new resolution and the
    diagonal scalings, one tuple per module F_1, ..., F_{n-2}."""
    prev = [Fraction(1)] * F.ranks[0]
    new_maps = []
    diagonals = []
    for phi in F.maps:
        scaled_rows = [
            [p * (1 / prev[i]) for p in row] for i, row in enumerate(phi.entries)
        ]
        curr = []
        new_cols = []
        for j in range(phi.cols):
            coeffs = [
                coeff
                for i in range(phi.rows)
                for coeff in scaled_rows[i][j].terms.values()
            ]
            s = abs(_primitive_scale(coeffs)) if coeffs else Fraction(1)
            curr.append(s)
            new_cols.append([scaled_rows[i][j] * s for i in range(phi.rows)])
        new_maps.append(PolyMatrix([[new_cols[j][i] for j in range(phi.cols)] for i in range(phi.rows)]))
        diagonals.append(tuple(curr))
        prev = curr
    F_int = GradedFreeResolution(F.n, F.ranks, F.twists, new_maps, scale=F.scale)
    return F_int, tuple(diagonals)
