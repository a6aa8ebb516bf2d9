"""Bracket, double-bracket, omega and brace calculus of a graded free
resolution.

All index words use the 1-based variable indices 1..n-1.  A bracket word
has length n-2 (one index per differential), a brace word has length n
(head pair, one index per interior differential, tail pair).  Repeated
indices are allowed; alternation is a property of double brackets, not a
constraint on input.

For n >= 4, phi_1 and the last map phi_{n-2} have quadratic entries and the
interior maps phi_2 .. phi_{n-3} linear ones.  :class:`IntegerView` holds
their coefficients as integers over one denominator per map: P[a][b], the
x_a x_b-coefficients of phi_1 as a row; D_r[v], the x_v-coefficients of
phi_r as sparse rows; Q[a][b], the x_a x_b-coefficients of phi_{n-2} as a
column.  A brace is the contraction P[w_1][w_2] D_2[w_3] ... Q[w_{n-1}][w_n]
over the product of the denominators, and the bracket [a_1 ... a_{n-2}] has
coefficient (1 + delta_{a_1 u})(1 + delta_{a_{n-2} v}) {a_1 u a_2 ... a_{n-2} v}
at x_u x_v (summed over ordered u, v), so double brackets and omega are sums
of the same contractions.  For n = 3 the only map is a cubic f and
[a] = df/dx_a.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import InputError
from .symcore import Polynomial, QMatrix, integer_terms

if TYPE_CHECKING:  # pragma: no cover
    from .resolution import GradedFreeResolution

IndexWord = tuple[int, ...]

__all__ = [
    "IndexWord",
    "IntegerView",
    "perm_sign",
    "epsilon_ij",
    "epsilon_ijk",
    "OmegaTensor",
    "gl_act",
    "bracket",
    "double_bracket",
    "omega",
    "brace",
    "a_form",
]


def perm_sign(word: Sequence[int]) -> int:
    """Sign of the permutation sorting ``word``; 0 if entries repeat."""
    w = list(word)
    if len(set(w)) != len(w):
        return 0
    sign = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                sign = -sign
    return sign


def _complement(n: int, omit: Sequence[int]) -> tuple[int, ...]:
    return tuple(v for v in range(1, n) if v not in set(omit))


def epsilon_ij(n: int, i: int, j: int) -> int:
    """Sign of the permutation taking 1..n-1 to i,j,1,...,^ij,...,n-1."""
    return perm_sign((i, j) + _complement(n, (i, j)))


def epsilon_ijk(n: int, i: int, j: int, k: int) -> int:
    """Sign of the permutation taking 1..n-1 to i,j,k,1,...,^ijk,...,n-1."""
    return perm_sign((i, j, k) + _complement(n, (i, j, k)))


# ---------------------------------------------------------------------------
# the integer view


def _integer_terms(polys: Sequence[Polynomial], degree: int, name: str) -> tuple[int, list[dict]]:
    """The polynomials' terms as integer numerators over one common
    denominator, after checking that they are forms of the given degree."""
    for p in polys:
        if not p.is_homogeneous(degree):
            raise InputError(f"the entries of {name} must be homogeneous of degree {degree}")
    return integer_terms(polys)


def _quadratic_array(terms: list[dict], pairs: dict, m: int) -> list[list[list[int]]]:
    """A[a][b][i] = the x_a x_b-coefficient of entry i; A[a][b] is A[b][a]."""
    A = [[None] * m for _ in range(m)]
    for a, b in pairs.values():
        A[a][b] = A[b][a] = [0] * len(terms)
    for i, t in enumerate(terms):
        for e, c in t.items():
            a, b = pairs[e]
            A[a][b][i] = c
    return A


class IntegerView:
    """The coefficients of a resolution with n >= 4 as integer arrays over
    one denominator per map (see the module docstring).

    ``P[a][b]`` and ``Q[a][b]`` are indexed by 0-based variables;
    ``D[r - 2][v]`` holds, for each row of phi_r, its (column, value) pairs.
    ``den`` is the product of the maps' denominators.  The methods take a
    ``memo`` dict of prefix rows, which the caller creates for one
    computation and then drops.
    """

    __slots__ = ("n", "P", "D", "Q", "widths", "den", "_mono")

    def __init__(self, F: "GradedFreeResolution"):
        n, m = F.n, F.n - 1
        if n < 4:
            raise InputError("the integer view needs n >= 4")
        self.n = n
        self._mono = [[tuple((r == a) + (r == b) for r in range(m)) for b in range(m)] for a in range(m)]
        pairs = {self._mono[a][b]: (a, b) for a in range(m) for b in range(a, m)}
        dP, first = _integer_terms(F.maps[0].entries[0], 2, "phi_1")
        dQ, last = _integer_terms([row[0] for row in F.maps[-1].entries], 2, f"phi_{n - 2}")
        self.P = _quadratic_array(first, pairs, m)
        self.Q = _quadratic_array(last, pairs, m)
        variable = {tuple(int(r == v) for r in range(m)): v for v in range(m)}
        self.D, dens = [], [dP, dQ]
        for r, phi in enumerate(F.maps[1:-1], start=2):
            d, terms = _integer_terms([p for row in phi.entries for p in row], 1, f"phi_{r}")
            Dr = [[[] for _ in range(phi.rows)] for _ in range(m)]
            for idx, t in enumerate(terms):
                i, j = divmod(idx, phi.cols)
                for e, c in t.items():
                    Dr[variable[e]][i].append((j, c))
            self.D.append(Dr)
            dens.append(d)
        self.widths = F.ranks
        self.den = prod(dens)

    def row(self, prefix: IndexWord, memo: dict) -> list[int]:
        """P[a_1][a_2] D_2[a_3] ... D_{k-1}[a_k] for the prefix (a_1, ..., a_k) of a brace word."""
        r = memo.get(prefix)
        if r is None:
            if len(prefix) == 2:
                r = self.P[prefix[0] - 1][prefix[1] - 1]
            else:
                t = len(prefix) - 3
                r = [0] * self.widths[t + 2]
                for x, entries in zip(self.row(prefix[:-1], memo), self.D[t][prefix[-1] - 1]):
                    if x:
                        for j, c in entries:
                            r[j] += x * c
            memo[prefix] = r
        return r

    def brace(self, w: IndexWord, memo: dict) -> Fraction:
        return Fraction(sum(map(mul, self.row(w[:-2], memo), self.Q[w[-2] - 1][w[-1] - 1])), self.den)

    def form(self, words: Sequence[IndexWord], memo: dict) -> Polynomial:
        """The sum of the brackets [w] over ``words``."""
        acc: dict = {}
        for w in words:
            a, mid, b = w[0], w[1:-1], w[-1]
            for u in range(1, self.n):
                r = self.row((a, u) + mid, memo)
                for v in range(1, self.n):
                    s = sum(map(mul, r, self.Q[b - 1][v - 1]))
                    if s:
                        e = self._mono[u - 1][v - 1]
                        acc[e] = acc.get(e, 0) + s * (1 + (u == a)) * (1 + (v == b))
        return Polynomial(self.n - 1, {e: Fraction(c, self.den) for e, c in acc.items() if c})

    def omega(self, memo: dict) -> "OmegaTensor":
        """Omega_j = (-1)^j [[1, ..., j^, ..., n-1]]."""
        n = self.n
        return OmegaTensor(n, [self.form(_even_shifts(tuple(v for v in range(1, n) if v != j)), memo)
                               * (-1) ** j for j in range(1, n)])


def _even_shifts(w: IndexWord) -> list[IndexWord]:
    """The n-2 even cyclic shifts of a bracket word; their brackets sum to its double bracket."""
    m = len(w)
    return [tuple(w[(t + 2 * k) % m] for t in range(m)) for k in range(1, m + 1)]


@lru_cache(maxsize=8)
def _view(F: "GradedFreeResolution") -> IntegerView:
    """The view behind the standalone bracket, double-bracket and brace queries."""
    return IntegerView(F)


def _check_word(F, word: Sequence[int], length: int) -> tuple[int, ...]:
    w = tuple(int(a) for a in word)
    if len(w) != length:
        raise InputError(f"index word must have length {length}, got {len(w)}")
    if any(not 1 <= a <= F.n - 1 for a in w):
        raise InputError(f"indices must lie in 1..{F.n - 1}")
    return w


# ---------------------------------------------------------------------------
# brackets


def bracket(F: "GradedFreeResolution", word: Sequence[int]) -> Polynomial:
    """The quadratic form d(phi_1)/dx_{a_1} * ... * d(phi_{n-2})/dx_{a_{n-2}}."""
    w = _check_word(F, word, F.n - 2)
    if F.n == 3:
        return F.maps[0].entries[0][0].derivative(w[0])
    return _view(F).form([w], {})


def double_bracket(F: "GradedFreeResolution", word: Sequence[int]) -> Polynomial:
    """Sum of the n-2 even cyclic shifts of the bracket word."""
    w = _check_word(F, word, F.n - 2)
    if F.n == 3:  # the one shift of a one-letter word
        return bracket(F, w)
    return _view(F).form(_even_shifts(w), {})


class OmegaTensor:
    """The element sum_j x*_j (x) Omega_j of V* (x) S^2V, with its GL action."""

    __slots__ = ("n", "forms")

    def __init__(self, n: int, forms: Sequence[Polynomial]):
        forms = tuple(forms)
        if len(forms) != n - 1:
            raise InputError(f"expected {n - 1} quadratic forms, got {len(forms)}")
        for f in forms:
            if f.num_vars != n - 1 or not f.is_homogeneous(2):
                raise InputError("omega forms must be quadratics in n-1 variables")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "forms", forms)

    def __setattr__(self, name, value):
        raise AttributeError("OmegaTensor is immutable")

    def __eq__(self, other):
        return isinstance(other, OmegaTensor) and self.n == other.n and self.forms == other.forms

    def __hash__(self):
        return hash((self.n, self.forms))

    def scale(self, c) -> "OmegaTensor":
        return OmegaTensor(self.n, [f * Fraction(c) for f in self.forms])

    def hessian_entry(self, k: int, i: int, j: int) -> Fraction:
        """The constant d^2 Omega_k / dx_i dx_j (1-based indices): the
        coefficient of x_i x_j, doubled when i = j."""
        if not (1 <= k < self.n and 1 <= i < self.n and 1 <= j < self.n):
            raise InputError(f"indices must lie in 1..{self.n - 1}")
        e = [0] * (self.n - 1)
        e[i - 1] += 1
        e[j - 1] += 1
        c = self.forms[k - 1].coefficient(e)
        return 2 * c if i == j else c

    def to_json(self) -> dict:
        return {"n": self.n, "omega": [f.to_json() for f in self.forms]}

    @staticmethod
    def from_json(data: dict) -> "OmegaTensor":
        return OmegaTensor(int(data["n"]), [Polynomial.from_json(f) for f in data["omega"]])

    def __repr__(self):
        return f"OmegaTensor(n={self.n}, [{'; '.join(str(f) for f in self.forms)}])"


def gl_act(g: QMatrix, Om: OmegaTensor) -> OmegaTensor:
    """Standard action of GL on V* (x) S^2V: x*_j and each form transform together.

    Satisfies gl_act(g, gl_act(h, Om)) == gl_act(g*h, Om) exactly.
    """
    from .symcore import linear_substitution

    m = Om.n - 1
    if g.rows != m or g.cols != m:
        raise InputError(f"group element must be {m}x{m}")
    ginv_t = g.inverse().transpose()
    moved = [linear_substitution(f, g) for f in Om.forms]
    forms = []
    for i in range(m):
        acc = Polynomial.zero(m)
        for j in range(m):
            coeff = ginv_t.entries[i][j]
            if coeff:
                acc = acc + moved[j] * coeff
        forms.append(acc)
    return OmegaTensor(Om.n, forms)


def omega(F: "GradedFreeResolution") -> OmegaTensor:
    """Omega_j = (-1)^j [[1, ..., j^, ..., n-1]]."""
    if F.n == 3:
        return OmegaTensor(3, [bracket(F, (2,)) * -1, bracket(F, (1,))])
    return IntegerView(F).omega({})


# ---------------------------------------------------------------------------
# braces


def brace(F: "GradedFreeResolution", word: Sequence[int]) -> Fraction:
    """The scalar {a_1 ... a_n} = P(a_1,a_2) dphi_2/dx_{a_3} ... dphi_{n-3}/dx_{a_{n-2}} Q(a_{n-1},a_n)."""
    if F.n < 4:
        raise InputError("braces need n >= 4")
    return _view(F).brace(_check_word(F, word, F.n), {})


def a_form(F: "GradedFreeResolution", i: int, j: int, word: Sequence[int]) -> Fraction:
    """The representative-independent quantity built from two braces.

    ``word`` must be a permutation of 1..n-1 with i and j removed; the value
    is sign(word) * ({i,j,word,i} + {i,i,word,j}) and does not depend on the
    choice of representative.
    """
    n = F.n
    if i == j or not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise InputError("need distinct indices i, j in range")
    comp = _complement(n, (i, j))
    w = tuple(int(a) for a in word)
    if tuple(sorted(w)) != comp:
        raise InputError(f"word must be a permutation of {comp}")
    nu = perm_sign(w)
    return nu * (brace(F, (i, j) + w + (i,)) + brace(F, (i, i) + w + (j,)))
