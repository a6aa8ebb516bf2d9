"""Koszul complexes of the sub-ideals generated by x_i(x_j - x_k), the
uniquely determined chain-map lifts into the resolution of the standard
configuration, the wedge/pair symbols they define, and the final syzygy.

Each lift psi_m is a certified kernel of the resolution's syzygy builder:
the degree-0 syzygies of the block [phi_m | -psi_{m-1} d_m], taken as the
canonical kernel basis of :func:`~resrings.resolution._syzygy_system` by
:func:`~resrings.symcore.nullspace`, are the columns of [psi_m; I] exactly
when the lift exists and is unique.

Wedge bases are m-subsets of the surviving indices ordered increasingly and
listed lexicographically; an arbitrary input wedge is sorted first and the
permutation sign applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .brackets import perm_sign
from .errors import InconsistencyError, InputError
from .resolution import GradedFreeResolution, _grading_check, _shape_check, _syzygy_system
from .symcore import Polynomial, PolyMatrix, QMatrix, nullspace

__all__ = [
    "KoszulComplex",
    "ChainMap",
    "koszul_complex",
    "lift_chain_map",
    "symbol",
    "final_syzygy",
    "FinalSyzygy",
]


class KoszulComplex:
    """The Koszul resolution of the ideal (x_i (x_j - x_k) : i != j, k)."""

    __slots__ = ("n", "j", "k", "indices", "wedges", "diffs")

    def __init__(self, n: int, j: int, k: int):
        if n < 5:
            raise InputError("the Koszul machinery assumes n >= 5")
        if not (1 <= j <= n - 1 and 1 <= k <= n - 1):
            raise InputError(f"pair indices must lie in 1..{n - 1}")
        if j == k:
            raise InputError("pair indices must be distinct")
        indices = tuple(v for v in range(1, n) if v not in (j, k))
        wedges = tuple(tuple(combinations(indices, m)) for m in range(n - 2))
        m_vars = n - 1
        diffs = []
        d1 = PolyMatrix(
            [[_x(m_vars, i) * (_x(m_vars, j) - _x(m_vars, k)) for i in indices]]
        )
        diffs.append(d1)
        for m in range(2, n - 2):
            lower = {w: t for t, w in enumerate(wedges[m - 1])}
            cols = []
            for w in wedges[m]:
                col = [Polynomial.zero(m_vars)] * len(wedges[m - 1])
                for ell, idx in enumerate(w, start=1):
                    target = tuple(v for v in w if v != idx)
                    col[lower[target]] = col[lower[target]] + _x(m_vars, idx) * ((-1) ** ell)
                cols.append(col)
            diffs.append(PolyMatrix([[cols[c][r] for c in range(len(cols))] for r in range(len(wedges[m - 1]))]))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "wedges", wedges)
        object.__setattr__(self, "diffs", tuple(diffs))

    def __setattr__(self, name, value):
        raise AttributeError("KoszulComplex is immutable")

    def wedge_index(self, m: int, wedge: tuple[int, ...]) -> int:
        return self.wedges[m].index(wedge)

    def __repr__(self):
        return f"KoszulComplex(n={self.n}, J=({self.j},{self.k}))"


def _x(num_vars: int, j: int) -> Polynomial:
    return Polynomial.variable(num_vars, j)


def koszul_complex(n: int, j: int, k: int) -> KoszulComplex:
    """Koszul complex K^J for J = (j, k)."""
    return KoszulComplex(n, j, k)


@dataclass(frozen=True)
class ChainMap:
    """Lift of K^J into F_*; psis[m-1] expresses the image of the wedge
    basis of K_m in the generators of F_m (constant matrices)."""

    source: KoszulComplex
    target: GradedFreeResolution
    psis: tuple[QMatrix, ...]

    def symbol(self, wedge: Sequence[int]) -> tuple[Fraction, ...]:
        return symbol(self, wedge)


def lift_chain_map(K: KoszulComplex, F: GradedFreeResolution) -> ChainMap:
    """Solve the commuting squares phi_m psi_m = psi_{m-1} d_m (psi_0 = 1)
    one map at a time, each as the canonical kernel of the syzygy system of
    [phi_m | -psi_{m-1} d_m] in degree 0.

    Every kernel vector has a unit at its free column and is zero past it.
    The lift exists iff every column of the right-hand block is free, and is
    then unique iff no column of phi_m is free; the kernel vectors are then
    the columns of [psi_m; I].  No lift is bad input; a lift that is not
    unique means the resolution is not minimal.
    """
    if F.n != K.n:
        raise InputError("complex and resolution sizes differ")
    for check in (_shape_check, _grading_check):
        ok, detail = check(F)
        if not ok:
            raise InputError(f"cannot lift into this resolution: {detail}")
    m_vars = K.n - 1
    neg_psi = PolyMatrix([[Polynomial.constant(m_vars, -1)]])  # -psi_0
    psis: list[QMatrix] = []
    for m, d in enumerate(K.diffs, start=1):
        phi = F.maps[m - 1]
        block = PolyMatrix([a + b for a, b in zip(phi.entries, (neg_psi * d).entries)])
        kernel = nullspace(_syzygy_system(block, F.map_degree(m), 0))
        free = [max(i for i, v in enumerate(vec) if v) for vec in kernel]
        if sum(f >= phi.cols for f in free) < d.cols:
            raise InputError(f"no chain-map lift at map {m}: the resolved ideal does not contain I^J")
        if min(free) < phi.cols:
            raise InconsistencyError(f"chain-map lift at map {m} is not unique")
        psi = QMatrix([[vec[r] for vec in kernel] for r in range(phi.cols)])
        psis.append(psi)
        neg_psi = PolyMatrix([[Polynomial.constant(m_vars, -v) for v in row] for row in psi.entries])
    return ChainMap(K, F, tuple(psis))


def symbol(cm: ChainMap, wedge: Sequence[int]) -> tuple[Fraction, ...]:
    """The image (i_1 ^ ... ^ i_m) (x) (j,k) as a vector over the generators
    of F_m (coefficients are constants)."""
    w = tuple(int(v) for v in wedge)
    K = cm.source
    if len(set(w)) != len(w):
        raise InputError("wedge indices must be distinct")
    if any(v in (K.j, K.k) for v in w) or any(v not in K.indices for v in w):
        raise InputError(f"wedge indices must avoid the pair ({K.j},{K.k}) and lie in range")
    m = len(w)
    if not 1 <= m <= K.n - 3:
        raise InputError(f"wedge length must lie in 1..{K.n - 3}")
    sign = perm_sign(w)
    col = K.wedge_index(m, tuple(sorted(w)))
    psi = cm.psis[m - 1]
    return tuple(sign * psi.entries[r][col] for r in range(psi.rows))


@dataclass(frozen=True)
class FinalSyzygy:
    """The degree-n generator of ker(phi_{n-3}) assembled from symbols."""

    t: tuple[Polynomial, ...]
    factor: Fraction  # t == factor * (last column of the resolution)


def pair_symbol_even(chain_maps: dict[tuple[int, int], ChainMap], n: int,
                     j: int, k: int) -> tuple[Fraction, ...]:
    """(i_1 ^ ... ^ i_{n-3}) (x) (j,k) with the complement ordered so that
    i_1, ..., i_{n-3}, j, k is an even permutation of 1..n-1."""
    comp = tuple(v for v in range(1, n) if v not in (j, k))
    sign = perm_sign(comp + (j, k))
    vec = chain_maps[(j, k)].symbol(comp)
    return tuple(sign * v for v in vec)


def final_syzygy(F: GradedFreeResolution,
                 chain_maps: dict[tuple[int, int], ChainMap] | None = None) -> FinalSyzygy:
    """Assemble t = sum_{j<k} x_j x_k (i_1 ^ ... ^ i_{n-3}) (x) (j,k), check
    phi_{n-3} t = 0, and match it against the last differential."""
    n = F.n
    m_vars = n - 1
    if chain_maps is None:
        chain_maps = {}
    t_vec = [Polynomial.zero(m_vars) for _ in range(F.ranks[n - 3])]
    for j in range(1, n):
        for k in range(j + 1, n):
            if (j, k) not in chain_maps:
                chain_maps[(j, k)] = lift_chain_map(koszul_complex(n, j, k), F)
            sym = pair_symbol_even(chain_maps, n, j, k)
            quad = _x(m_vars, j) * _x(m_vars, k)
            for r, coeff in enumerate(sym):
                if coeff:
                    t_vec[r] = t_vec[r] + quad * coeff
    if not (F.maps[n - 4] * PolyMatrix([[p] for p in t_vec])).is_zero():  # phi_{n-3} t
        raise InconsistencyError("assembled final syzygy is not killed by phi_{n-3}")
    last_col = [row[0] for row in F.maps[n - 3].entries]
    r = next((r for r, p in enumerate(last_col) if p), None)
    factor = Fraction(0)
    if r is not None:
        e, c = next(iter(last_col[r].terms.items()))
        factor = t_vec[r].coefficient(e) / c
    if not factor:
        raise InconsistencyError("final syzygy vanished")
    if any(t != p * factor for t, p in zip(t_vec, last_col)):
        raise InconsistencyError("final syzygy is not proportional to the last differential")
    return FinalSyzygy(tuple(t_vec), factor)
