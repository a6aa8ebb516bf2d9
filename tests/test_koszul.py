import hashlib
import json

import pytest

from resrings.configs import random_points_config
from resrings.errors import InconsistencyError, InputError
from resrings.koszul import (
    final_syzygy,
    koszul_complex,
    lift_chain_map,
    pair_symbol_even,
)
from resrings.resolution import GradedFreeResolution, build_resolution
from resrings.symcore import Polynomial, PolyMatrix, QMatrix


def test_koszul_complex_n5_example():
    K = koszul_complex(5, 1, 2)
    x = [Polynomial.variable(4, v) for v in range(1, 5)]
    # d1 = (x3(x1-x2), x4(x1-x2))
    assert K.diffs[0].entries[0][0] == x[2] * (x[0] - x[1])
    assert K.diffs[0].entries[0][1] == x[3] * (x[0] - x[1])
    # d2(e3 ^ e4) = -x3 e4 + x4 e3
    assert K.diffs[1].entries[0][0] == x[3]
    assert K.diffs[1].entries[1][0] == -x[2]
    assert (K.diffs[0] * K.diffs[1]).is_zero()


def test_koszul_complex_square_zero_n7():
    K = koszul_complex(7, 2, 5)
    for m in range(len(K.diffs) - 1):
        assert (K.diffs[m] * K.diffs[m + 1]).is_zero()
    # each column of d_m has exactly m signed entries
    for m in range(2, 5):  # d_m exists for m <= n - 3
        d = K.diffs[m - 1]
        for j in range(d.cols):
            nonzero = sum(1 for i in range(d.rows) if not d.entries[i][j].is_zero())
            assert nonzero == m


def test_koszul_rejects_bad_pairs():
    with pytest.raises(InputError):
        koszul_complex(5, 1, 1)
    with pytest.raises(InputError):
        koszul_complex(5, 0, 2)
    with pytest.raises(InputError):
        koszul_complex(4, 1, 2)


def test_lift_exists_and_commutes(std_res):
    F = std_res(5)
    K = koszul_complex(5, 1, 2)
    cm = lift_chain_map(K, F)
    # phi_1 psi_1 = d_1
    phi1 = F.maps[0]
    for col in range(K.diffs[0].cols):
        expr = sum(
            (phi1.entries[0][r] * cm.psis[0].entries[r][col] for r in range(phi1.cols)),
            Polynomial.zero(4),
        )
        assert expr == K.diffs[0].entries[0][col]
    # phi_2 psi_2 = psi_1 d_2
    phi2 = F.maps[1]
    lhs = [
        sum(
            (phi2.entries[i][r] * cm.psis[1].entries[r][0] for r in range(phi2.cols)),
            Polynomial.zero(4),
        )
        for i in range(phi2.rows)
    ]
    d2 = K.diffs[1]
    rhs = [
        sum(
            (d2.entries[t][0] * cm.psis[0].entries[i][t] for t in range(d2.rows)),
            Polynomial.zero(4),
        )
        for i in range(cm.psis[0].rows)
    ]
    assert lhs == rhs


def test_lift_fails_off_standard(rng):
    # a random configuration's ideal does not contain x_i(x_j - x_k)
    F = build_resolution(random_points_config(5, rng))
    with pytest.raises(InputError):
        lift_chain_map(koszul_complex(5, 1, 2), F)


def test_symbol_relations(std_res):
    F = std_res(6)
    maps = {}
    for j, k in ((1, 2), (2, 1), (2, 3), (3, 1)):
        maps[(j, k)] = lift_chain_map(koszul_complex(6, j, k), F)
    s = maps[(1, 2)].symbol((4, 5))
    assert any(s)
    # antisymmetry in the pair
    s_rev = maps[(2, 1)].symbol((4, 5))
    assert all(a + b == 0 for a, b in zip(s, s_rev))
    # three-term relation
    s2 = maps[(2, 3)].symbol((4, 5))
    s3 = maps[(3, 1)].symbol((4, 5))
    assert all(a + b + c == 0 for a, b, c in zip(s, s2, s3))
    # wedge reordering carries the permutation sign
    assert maps[(1, 2)].symbol((5, 4)) == tuple(-v for v in s)


def test_symbol_rejects_clashes(std_res):
    F = std_res(5)
    cm = lift_chain_map(koszul_complex(5, 1, 2), F)
    with pytest.raises(InputError):
        cm.symbol((1,))  # collides with the pair
    with pytest.raises(InputError):
        cm.symbol((3, 3))


def test_final_syzygy_n5(std_res):
    F = std_res(5)
    fs = final_syzygy(F)
    assert fs.factor != 0
    assert len(fs.t) == F.ranks[2]
    # t is quadratic in each coordinate
    for p in fs.t:
        assert p.is_homogeneous(2)
    # six pair summands enter for n=5 (all j < k in 1..4)
    assert len([1 for j in range(1, 5) for k in range(j + 1, 5)]) == 6


def test_final_syzygy_n6(std_res):
    fs = final_syzygy(std_res(6))
    assert fs.factor != 0


def test_pair_symbol_even_is_pair_symmetric(std_res):
    F = std_res(5)
    cms = {}
    for j, k in ((1, 3), (3, 1)):
        cms[(j, k)] = lift_chain_map(koszul_complex(5, j, k), F)
    assert pair_symbol_even(cms, 5, 1, 3) == pair_symbol_even(cms, 5, 3, 1)


# ---------------------------------------------------------------------------
# reference hashes of the lifts and final syzygies of the standard
# configuration, equal to those of a dense Fraction solve of each square


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


PSI_SHA256 = {
    5: "2a12f8ae1d660bd0fff8167bb3854c6e3da118d12fe812409477c299a737ae5f",
    6: "451f75cd42b07b5ac9071684b108ab78b3bbbb88ff7f370f8c72a13fbfcecb19",
    7: "811aae5e61879242769e9773cc22b073b488235ac3705bc76a8831afb0b4b5ed",
}

FINAL_SYZYGY_SHA256 = {
    5: "daf64c0ed00fb8ad6890cd64656f94fb8734e5640e51c174af931364f509567c",
    6: "44aa5b83d60d038a4e59830f18e2f88316282f9cfed014c44a9204e0a3c98c0f",
    7: "ad3c93ae04a95969efe4b45faa8f39db40e792bfa4ed715c5fea474ff9c7c464",
    8: "b0ac43a70a40e3c30737c2e995591205bc867f18481e1ce329b20b3ea8857fe8",
}


@pytest.mark.parametrize("n", sorted(PSI_SHA256))
def test_lifts_match_pinned_hashes(std_res, n):
    F = std_res(n)
    lifts = [
        [j, k, [psi.to_json() for psi in lift_chain_map(koszul_complex(n, j, k), F).psis]]
        for j in range(1, n) for k in range(1, n) if j != k
    ]
    assert _sha256(lifts) == PSI_SHA256[n]


@pytest.mark.parametrize("n", sorted(FINAL_SYZYGY_SHA256))
def test_final_syzygy_matches_pinned_hash(std_res, n):
    F = std_res(n)
    fs = final_syzygy(F)
    assert fs.factor != 0 and len(fs.t) == F.ranks[n - 3]
    digest = _sha256({"t": [p.to_json() for p in fs.t], "factor": str(fs.factor)})
    assert digest == FINAL_SYZYGY_SHA256[n]


def test_lifts_use_no_dense_elimination(std_res, monkeypatch):
    F = std_res(6)

    def refuse(*args, **kwargs):
        raise AssertionError("dense Fraction elimination called")

    monkeypatch.setattr(QMatrix, "solve", refuse)
    monkeypatch.setattr(QMatrix, "rref", refuse)
    cm = lift_chain_map(koszul_complex(6, 2, 4), F)
    assert len(cm.psis) == 3
    assert final_syzygy(F).factor != 0


def _hand_made(phi1_entries, F=None):
    """A resolution-shaped F for n = 5 with the given first map and, unless
    F is given, zero maps after it (lift_chain_map checks shape and grading
    only)."""
    maps = list(F.maps) if F else [
        PolyMatrix([[Polynomial.zero(4)] * cols for _ in range(rows)])
        for rows, cols in ((1, 5), (5, 5), (5, 1))
    ]
    maps[0] = PolyMatrix([phi1_entries])
    return GradedFreeResolution(5, (1, 5, 5, 1), (0, 2, 3, 5), maps)


_x = [Polynomial.variable(4, v) for v in range(1, 5)]


def test_no_lift_is_input_error():
    # I^J for J = (1, 2) is (x3(x1 - x2), x4(x1 - x2)); these squares miss it
    F = _hand_made([x * x for x in _x] + [_x[0] * _x[1]])
    with pytest.raises(InputError):
        lift_chain_map(koszul_complex(5, 1, 2), F)


def test_no_lift_at_second_map_is_input_error(std_res):
    F = std_res(5)
    zero = PolyMatrix([[Polynomial.zero(4)] * 5 for _ in range(5)])
    G = GradedFreeResolution(5, F.ranks, F.twists, [F.maps[0], zero, F.maps[2]])
    with pytest.raises(InputError):
        lift_chain_map(koszul_complex(5, 1, 2), G)


def test_non_unique_lift_is_inconsistency_error():
    a, b = _x[2] * (_x[0] - _x[1]), _x[3] * (_x[0] - _x[1])
    F = _hand_made([a, b, a, _x[0] * _x[0], Polynomial.zero(4)])
    with pytest.raises(InconsistencyError):
        lift_chain_map(koszul_complex(5, 1, 2), F)


def test_inhomogeneous_maps_are_rejected(std_res):
    F = std_res(5)
    phi1 = list(F.maps[0].entries[0])
    phi1[0] = phi1[0] + _x[0]  # a linear term in a quadric slot
    with pytest.raises(InputError):
        lift_chain_map(koszul_complex(5, 1, 2), _hand_made(phi1, F))
    with pytest.raises(InputError):
        final_syzygy(_hand_made(phi1, F))


def test_nonstandard_twists_are_rejected(std_res):
    F = std_res(5)
    G = GradedFreeResolution(5, F.ranks, (0, 2, 3, 6), F.maps)
    with pytest.raises(InputError):
        lift_chain_map(koszul_complex(5, 1, 2), G)
