"""Exact symbolic core: rationals, sparse multivariate polynomials,
polynomial matrices, and exact linear algebra over Q.

Conventions fixed here and used by every other module:

* ``Rational`` is :class:`fractions.Fraction` (always lowest terms,
  positive denominator, exact arithmetic).
* Variables are written x1, ..., xm and indexed 1-based in every public
  signature; exponent vectors are tuples of length ``num_vars`` with
  position 0 holding the exponent of x1.
* Term order is graded lexicographic with x1 > x2 > ... > xm.  The
  degree-d monomials enumerated by :func:`monomials_of_degree` define the
  coefficient-vector convention for every graded-slice computation.
* ``QMatrix.rref`` is the unique reduced row echelon form, and
  :func:`nullspace` returns the canonical kernel basis read off from it
  (one vector per free column, unit entry at the free column).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .errors import InputError

Rational = Fraction

__all__ = [
    "Rational",
    "Polynomial",
    "PolyMatrix",
    "QMatrix",
    "SparseRows",
    "monomials_of_degree",
    "partial_derivative",
    "linear_substitution",
    "nullspace",
    "rational_to_json",
    "rational_from_json",
]


def rational_to_json(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(q)


_RATIONAL = re.compile(r"-?\d+(/\d+)?", re.ASCII)


def rational_from_json(s: str | int) -> Fraction:
    """Parse a string of the form ``-?\\d+(/\\d+)?``, or a JSON integer.

    Anything else (exponents, decimals, underscores, spaces, floats, bools)
    is bad input, echoed in at most 40 characters.
    """
    try:
        if type(s) is int or (isinstance(s, str) and _RATIONAL.fullmatch(s)):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    echo = repr(s)
    if len(echo) > 40:
        echo = echo[:37] + "..."
    raise InputError(f"bad rational literal {echo}")


# ---------------------------------------------------------------------------
# monomials


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All degree-d exponent vectors in term order (lex descending, x1 first)."""
    if num_vars <= 0:
        raise InputError("num_vars must be positive")
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e1 in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - e1):
            out.append((e1,) + rest)
    return tuple(out)


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    # ascending degree, then the term order within a degree
    return (sum(exps), tuple(-e for e in exps))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse multivariate polynomial over Q.

    Immutable; ``terms`` maps exponent tuples to nonzero Fractions and must
    not be mutated after construction.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        if num_vars <= 0:
            raise InputError("num_vars must be positive")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise InputError(f"bad exponent vector {exps!r} for {num_vars} variables")
            c = Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors

    @staticmethod
    def zero(num_vars: int) -> "Polynomial":
        return Polynomial(num_vars, {})

    @staticmethod
    def constant(num_vars: int, c) -> "Polynomial":
        return Polynomial(num_vars, {(0,) * num_vars: Fraction(c)})

    @staticmethod
    def variable(num_vars: int, j: int) -> "Polynomial":
        """The variable x_j, 1-based."""
        if not 1 <= j <= num_vars:
            raise InputError(f"variable index {j} out of range 1..{num_vars}")
        exps = [0] * num_vars
        exps[j - 1] = 1
        return Polynomial(num_vars, {tuple(exps): Fraction(1)})

    # -- ring structure

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise InputError("mixed numbers of variables")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.num_vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Polynomial(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return Polynomial.zero(self.num_vars)
            return Polynomial(self.num_vars, {e: c * f for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial(self.num_vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.num_vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """Exact homogeneity test; zero is homogeneous of every degree."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.num_vars, Fraction(0))

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.num_vars:
            raise InputError("evaluation point has wrong length")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for v, e in zip(pt, exps):
                if e:
                    val *= v**e
            total += val
        return total

    def derivative(self, j: int) -> "Polynomial":
        """Formal partial derivative with respect to x_j (1-based)."""
        if not 1 <= j <= self.num_vars:
            raise InputError(f"variable index {j} out of range 1..{self.num_vars}")
        i = j - 1
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                terms[tuple(e)] = c * exps[i]
        return Polynomial(self.num_vars, terms)

    # -- graded-slice coefficient vectors

    def coefficient_vector(self, degree: int) -> tuple[Fraction, ...]:
        """Coefficients in the degree-d monomial order; requires homogeneity."""
        if not self.is_homogeneous(degree):
            raise InputError("coefficient_vector needs a homogeneous polynomial of the stated degree")
        mons = monomials_of_degree(self.num_vars, degree)
        return tuple(self.terms.get(m, Fraction(0)) for m in mons)

    @staticmethod
    def from_coefficient_vector(num_vars: int, degree: int, vec: Sequence) -> "Polynomial":
        mons = monomials_of_degree(num_vars, degree)
        if len(vec) != len(mons):
            raise InputError("coefficient vector has wrong length")
        return Polynomial(num_vars, {m: Fraction(c) for m, c in zip(mons, vec)})

    # -- serialization / display

    def to_json(self) -> dict:
        terms = sorted(self.terms.items(), key=lambda it: _grlex_key(it[0]))
        return {"vars": self.num_vars, "terms": [[str(c), list(e)] for e, c in terms]}

    @staticmethod
    def from_json(data: dict) -> "Polynomial":
        try:
            nv = int(data["vars"])
            terms = {tuple(int(x) for x in e): rational_from_json(c) for c, e in data["terms"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad polynomial JSON: {exc}") from exc
        return Polynomial(nv, terms)

    def __repr__(self):
        return f"Polynomial({self!s})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items(), key=lambda it: _grlex_key(it[0])):
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e
            )
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def integer_terms(polys: Sequence[Polynomial]) -> tuple[int, list[dict[tuple[int, ...], int]]]:
    """The polynomials' terms as integer numerators over one common denominator."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return den, [{e: c.numerator * (den // c.denominator) for e, c in p.terms.items()} for p in polys]


# ---------------------------------------------------------------------------
# matrices of polynomials


class PolyMatrix:
    """Immutable matrix of :class:`Polynomial` sharing one ``num_vars``."""

    __slots__ = ("rows", "cols", "num_vars", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise InputError("PolyMatrix must be nonempty")
        cols = len(grid[0])
        nv = grid[0][0].num_vars
        for row in grid:
            if len(row) != cols:
                raise InputError("ragged rows")
            for p in row:
                if not isinstance(p, Polynomial) or p.num_vars != nv:
                    raise InputError("entries must be polynomials in the same variables")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "num_vars", nv)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.cols != other.rows:
                raise InputError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            # rows of self and columns of other over one denominator each, so
            # that each entry accumulates integer terms in one dict
            columns = [integer_terms(col) for col in zip(*other.entries)]
            out = []
            for row in self.entries:
                den_row, row_terms = integer_terms(row)
                out_row = []
                for den_col, col_terms in columns:
                    acc: dict[tuple[int, ...], int] = {}
                    for p, q in zip(row_terms, col_terms):
                        if p and q:
                            for e1, c1 in p.items():
                                for e2, c2 in q.items():
                                    e = tuple(map(add, e1, e2))
                                    acc[e] = acc.get(e, 0) + c1 * c2
                    den = den_row * den_col
                    out_row.append(Polynomial(self.num_vars, {e: Fraction(c, den) for e, c in acc.items()}))
                out.append(out_row)
            return PolyMatrix(out)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[p * Fraction(c) for p in row] for row in self.entries])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def is_homogeneous(self, degree: int) -> bool:
        return all(p.is_homogeneous(degree) for row in self.entries for p in row)

    def substitute(self, g: "QMatrix") -> "PolyMatrix":
        """Apply :func:`linear_substitution` entrywise."""
        return PolyMatrix([[linear_substitution(p, g) for p in row] for row in self.entries])

    def to_json(self) -> list:
        return [[p.to_json() for p in row] for row in self.entries]

    @staticmethod
    def from_json(data: list) -> "PolyMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise InputError("bad polynomial matrix JSON: expected an array of arrays")
        return PolyMatrix([[Polynomial.from_json(p) for p in row] for row in data])

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def partial_derivative(M: PolyMatrix, var_index: int) -> PolyMatrix:
    """Entrywise formal partial derivative with respect to x_{var_index} (1-based)."""
    if not 1 <= var_index <= M.num_vars:
        raise InputError(f"variable index {var_index} out of range 1..{M.num_vars}")
    return PolyMatrix([[p.derivative(var_index) for p in row] for row in M.entries])


def linear_substitution(p: Polynomial, g: "QMatrix") -> Polynomial:
    """Return p(x'_1, ..., x'_m) where x'_j = sum_i g[i][j] x_i.

    Satisfies the composition law g.(h.p) = (gh).p exactly.
    """
    m = p.num_vars
    if g.rows != m or g.cols != m:
        raise InputError(f"substitution matrix must be {m}x{m}")
    images = [
        Polynomial(m, {tuple(1 if r == i else 0 for r in range(m)): g.entries[i][j] for i in range(m)})
        for j in range(m)
    ]
    # cache powers of each image up to the degree actually used
    powers: list[dict[int, Polynomial]] = [{0: Polynomial.constant(m, 1)} for _ in range(m)]

    def power(j: int, e: int) -> Polynomial:
        cache = powers[j]
        if e not in cache:
            cache[e] = power(j, e - 1) * images[j]
        return cache[e]

    total = Polynomial.zero(m)
    for exps, c in p.terms.items():
        term = Polynomial.constant(m, c)
        for j, e in enumerate(exps):
            if e:
                term = term * power(j, e)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# exact linear algebra over Q


class QMatrix:
    """Immutable dense matrix over Q with exact elimination routines."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = tuple(
            tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in entries
        )
        if not grid or not grid[0]:
            raise InputError("QMatrix must be nonempty")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise InputError("ragged rows")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "QMatrix":
        cols = [tuple(Fraction(v) for v in c) for c in columns]
        return QMatrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in addition")
        return QMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise InputError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            bt = list(zip(*other.entries))
            return QMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "QMatrix":
        f = Fraction(c)
        return QMatrix([[v * f for v in row] for row in self.entries])

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.entries)))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        v = [Fraction(x) for x in vec]
        if len(v) != self.cols:
            raise InputError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    # -- elimination

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns (both canonical)."""
        m = [list(row) for row in self.entries]
        nrows, ncols = self.rows, self.cols
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            sel = next((i for i in range(r, nrows) if m[i][c]), None)
            if sel is None:
                continue
            m[r], m[sel] = m[sel], m[r]
            inv = 1 / m[r][c]
            m[r] = [v * inv for v in m[r]]
            for i in range(nrows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return QMatrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        m = [list(row) for row in self.entries]
        n = self.rows
        det = Fraction(1)
        for c in range(n):
            sel = next((i for i in range(c, n) if m[i][c]), None)
            if sel is None:
                return Fraction(0)
            if sel != c:
                m[c], m[sel] = m[sel], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise InputError("inverse of a non-square matrix")
        n = self.rows
        aug = QMatrix([list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self.entries)])
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise InputError("matrix is singular")
        return QMatrix([row[n:] for row in red.entries])

    def solve(self, rhs: "QMatrix") -> "QMatrix":
        """Unique solution X of self @ X = rhs; raises if none or not unique."""
        if rhs.rows != self.rows:
            raise InputError("right-hand side has wrong number of rows")
        aug = QMatrix([list(a) + list(b) for a, b in zip(self.entries, rhs.entries)])
        red, pivots = aug.rref()
        main = [p for p in pivots if p < self.cols]
        if any(p >= self.cols for p in pivots):
            raise InputError("inconsistent linear system")
        if len(main) < self.cols:
            raise InputError("underdetermined linear system")
        sol = [[Fraction(0)] * rhs.cols for _ in range(self.cols)]
        for r, p in enumerate(main):
            sol[p] = list(red.entries[r][self.cols :])
        return QMatrix(sol)

    # -- serialization

    def to_json(self) -> list:
        return [[str(v) for v in row] for row in self.entries]

    @staticmethod
    def from_json(data: list) -> "QMatrix":
        return QMatrix([[rational_from_json(v) for v in row] for row in data])

    def __repr__(self):
        body = "; ".join(", ".join(str(v) for v in row) for row in self.entries)
        return f"QMatrix[{body}]"


class SparseRows:
    """Sparse integer matrix: ``entries[i]`` maps the column of each nonzero
    entry of row i to its value.

    Built from rational rows (column -> nonzero Fraction), each scaled to
    coprime integers.  Row scaling keeps the kernel and the reduced row
    echelon form, so :func:`nullspace` takes it in place of the QMatrix.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, cols: int, rational_rows: Iterable[dict[int, Fraction]]):
        entries = []
        for row in rational_rows:
            den = lcm(*(v.denominator for v in row.values()))
            ints = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
            g = gcd(*ints.values())
            entries.append({j: v // g for j, v in ints.items()} if g > 1 else ints)
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries


def nullspace(M: QMatrix | SparseRows) -> list[tuple[Fraction, ...]]:
    """Canonical basis of {v : Mv = 0}, as read off the reduced row echelon form.

    Each basis vector carries a unit entry at its free column and is
    supported on that column and earlier pivot columns; the list is ordered
    by free column.  It is computed modulo primes and certified by an exact
    check of M @ N = 0 (see :mod:`resrings._modnull`); the result equals the
    one read off :meth:`QMatrix.rref`.
    """
    # imported on first use: numpy takes longer to import than this package
    from ._modnull import modular_nullspace

    return modular_nullspace(M)
