"""Certified multi-modular nullspace.

The reduced row echelon form of a matrix over Q is unique, so the canonical
kernel basis it induces is a property of the matrix alone.  This module
computes that basis: eliminate modulo 30-bit primes with numpy, reconstruct
rational entries by CRT + rational reconstruction, then verify M @ N = 0
exactly over Z.  Matrices arrive as sparse rows of coprime integers
(:class:`~resrings.symcore.SparseRows`); a QMatrix is converted first.

Soundness does not rest on the primes being lucky.  A mod-p elimination
certifies rank(Q) >= rank(p), so k = cols - rank(p) verified independent
kernel vectors pin the kernel dimension to exactly k, and the unit pattern
of the candidate basis forces it to be the canonical one.

The same two-sided argument gives a kernel dimension without a kernel
(:func:`kernel_dimension_is`): given k vectors already known to lie in the
kernel, cols - rank(p) = k bounds the dimension by k from above, and the k
vectors, if independent mod p, are independent over Q and bound it by k
from below.  One prime suffices unless it divides a deciding minor.

Termination.  Only finitely many primes are bad (they divide a nonzero minor
that decides a pivot).  Any prime gives a rank no larger than over Q and, at
equal rank, pivots no earlier; a good prime gives the pivots over Q, so the
first good prime fixes the pivot structure kept from then on.  The modulus
then grows until rational reconstruction recovers every entry and the exact
check passes, after O(log of a Hadamard bound of M) primes: far fewer than
the 30-bit primes there are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

import numpy as np

from .symcore import SparseRows


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """30-bit primes, largest first."""
    return filter(_is_prime, count((1 << 30) - 1, -2))


def _integer_rows(M) -> SparseRows:
    """Sparse coprime-integer rows of a QMatrix, zero entries skipped."""
    return SparseRows(M.cols, ({j: v for j, v in enumerate(row) if v} for row in M.entries))


def _rref_mod_p(system: SparseRows, p: int) -> tuple[np.ndarray, list[int]]:
    a = np.zeros((system.rows, system.cols), dtype=np.int64)
    a.flat[[i * system.cols + j for i, row in enumerate(system.entries) for j in row]] = [
        v % p for row in system.entries for v in row.values()
    ]
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = int(nz[0]) + r
        if i != r:
            a[[r, i]] = a[[i, r]]
        # rows r.. are zero left of c, so columns c.. are all that change
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        other = np.flatnonzero(a[:, c])
        other = other[other != r]
        if other.size:
            a[other, c:] = (a[other, c:] - np.outer(a[other, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def _kernel_mod_p(red: np.ndarray, pivots: list[int], ncols: int, p: int) -> list[list[int]]:
    """Columns of the canonical kernel basis, reduced mod p."""
    pivot_set = set(pivots)
    cols = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            if pc < f:
                v[pc] = int(-red[r, f]) % p
        cols.append(v)
    return cols


def _rat_reconstruct(a: int, m: int) -> Fraction | None:
    """Balanced rational reconstruction of a mod m, or None."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    num, den = r1, t1
    if den < 0:
        num, den = -num, -den
    if gcd(num, den) != 1:
        return None
    if (num - a * den) % m != 0:
        return None
    return Fraction(num, den)


def _verify_kernel(system: SparseRows, basis: list[list[Fraction]]) -> bool:
    for col in basis:
        den = lcm(*(c.denominator for c in col))
        w = [c.numerator * (den // c.denominator) for c in col]
        for row in system.entries:
            if sum(v * w[j] for j, v in row.items()):
                return False
    return True


def kernel_dimension_is(system: SparseRows, witness: SparseRows) -> bool:
    """One-prime certificate (see the module docstring) that the kernel of
    ``system`` has dimension exactly ``witness.rows``, for witness rows that
    lie in it.  False means only that this prime proves nothing."""
    p = next(_primes())
    k = witness.rows
    return len(_rref_mod_p(witness, p)[1]) == k and system.cols - len(_rref_mod_p(system, p)[1]) == k


def modular_nullspace(M) -> list[tuple[Fraction, ...]]:
    """Canonical nullspace basis of a QMatrix or SparseRows, certified by
    exact verification."""
    system = M if isinstance(M, SparseRows) else _integer_rows(M)
    ncols = M.cols
    best_key = None  # (-rank, pivots) of the pivot structure being accumulated
    for p in _primes():
        red, pivots = _rref_mod_p(system, p)
        key = (-len(pivots), pivots)
        if best_key is not None and key > best_key:
            continue  # bad prime: lower rank, or later pivots at equal rank
        kernel_p = _kernel_mod_p(red, pivots, ncols, p)
        if key != best_key:  # closer to the structure over Q: restart
            best_key, residues, modulus = key, kernel_p, p
        else:
            inv = pow(modulus, -1, p)
            for col, col_p in zip(residues, kernel_p):
                for idx, (x, r) in enumerate(zip(col, col_p)):
                    col[idx] = x + modulus * ((r - x) * inv % p)
            modulus *= p

        candidate: list[list[Fraction]] = []
        ok = True
        for col in residues:
            vec = []
            for x in col:
                f = _rat_reconstruct(x, modulus)
                if f is None:
                    ok = False
                    break
                vec.append(f)
            if not ok:
                break
            candidate.append(vec)
        if ok and _verify_kernel(system, candidate):
            return [tuple(col) for col in candidate]
