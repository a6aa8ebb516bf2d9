"""Tests of the benchmark itself: its checks reject corrupted outputs, its
inputs do not depend on the interpreter's hash seed, and BENCHMARK.json
matches the workloads and metrics the command reports."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from resrings import (
    GradedFreeResolution,
    MultiplicationTable,
    Polynomial,
    PolyMatrix,
    build_resolution,
    from_etale,
    integerize,
    integral_orders,
    omega,
    structure_constants,
    table1_check,
    validate,
    verify_table,
)
from resrings.symcore import monomials_of_degree

from perfbench import checks, run
from perfbench.workloads import WORKLOADS, random_points

ROOT = Path(__file__).resolve().parent.parent


def _points5():
    return random_points(5, random.Random("test:points5"), 1, 2)


def _with_entry(F, r, i, j, poly):
    maps = [list(list(row) for row in phi.entries) for phi in F.maps]
    maps[r][i][j] = poly
    return GradedFreeResolution(F.n, F.ranks, F.twists, [PolyMatrix(m) for m in maps], F.scale)


def _bump(p: Polynomial, delta) -> Polynomial:
    """p with the coefficient of its first term changed by delta."""
    e = next(iter(p.terms))
    terms = dict(p.terms)
    terms[e] += delta
    return Polynomial(p.num_vars, terms)


@pytest.fixture(scope="module")
def resolved():
    cfg = _points5()
    F = build_resolution(cfg)
    return cfg, F, validate(F)


def test_resolution_checks_accept_real_output(resolved):
    checks.check_resolution(*resolved)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_changed_differential_coefficient_is_rejected(resolved, r):
    cfg, F, report = resolved
    i, j = next((i, j) for i, row in enumerate(F.maps[r].entries) for j, p in enumerate(row) if p)
    bad = _with_entry(F, r, i, j, _bump(F.maps[r].entries[i][j], 1))
    with pytest.raises(checks.CheckError):
        checks.check_resolution(cfg, bad, report)


def test_scaled_last_column_is_rejected(resolved):
    cfg, F, report = resolved
    last = F.maps[-1]
    negated = GradedFreeResolution(F.n, F.ranks, F.twists, list(F.maps[:-1]) + [last.scale(-1)], F.scale)
    with pytest.raises(checks.CheckError, match="leading coefficient"):
        checks.check_resolution(cfg, negated, report)


def test_resolution_of_other_points_is_rejected(resolved):
    cfg, F, report = resolved
    other = random_points(5, random.Random("test:other"), 1, 2)
    with pytest.raises(checks.CheckError, match="does not vanish"):
        checks.check_resolution(other, F, report)


def test_etale_phi1_check(resolved):
    cfg = from_etale("t^5-t-1")
    F = build_resolution(cfg)
    checks.check_resolution(cfg, F, validate(F))
    with pytest.raises(checks.CheckError, match="does not vanish"):
        checks.check_resolution(from_etale("t^5-t-2"), F, validate(F))


def _rings_outputs(cfg, F):
    T = structure_constants(omega(F), "hessian")
    return T, verify_table(T), integral_orders(integerize(F)[0])


def _perturbed(T: MultiplicationTable, i, j, k, delta) -> MultiplicationTable:
    c = [[list(vec) for vec in row] for row in T.c]
    c[i][j][k] += delta
    if i != j:
        c[j][i][k] += delta
    return MultiplicationTable(T.n, T.c0, c, T.basis_note, T.scale)


@pytest.mark.parametrize("kind", ["points", "etale"])
def test_rings_checks_accept_real_output(resolved, kind):
    cfg = resolved[0] if kind == "points" else from_etale("t^5-t-1")
    F = resolved[1] if kind == "points" else build_resolution(cfg)
    checks.check_rings(cfg, *_rings_outputs(cfg, F), random.Random(1))


def test_perturbed_structure_constant_is_rejected(resolved):
    cfg, F, _ = resolved
    T, report, orders = _rings_outputs(cfg, F)
    with pytest.raises(checks.CheckError, match="associative"):
        checks.check_rings(cfg, _perturbed(T, 0, 1, 2, Fraction(1)), report, orders, random.Random(1))


def test_perturbed_order_is_rejected(resolved):
    cfg, F, _ = resolved
    T, report, orders = _rings_outputs(cfg, F)
    bad = type(orders)(orders.B, _perturbed(orders.Bprime, 0, 0, 0, Fraction(1, 2)),
                       orders.shear_applied, orders.disc_B, orders.disc_Bprime)
    with pytest.raises(checks.CheckError, match="integral"):
        checks.check_rings(cfg, T, report, bad, random.Random(1))
    wrong_disc = type(orders)(orders.B, orders.Bprime, orders.shear_applied, orders.disc_B * 2, orders.disc_Bprime)
    with pytest.raises(checks.CheckError, match="discriminants"):
        checks.check_rings(cfg, T, report, wrong_disc, random.Random(1))


def test_non_split_ring_fails_the_rational_roots_check():
    cfg = from_etale("t^5-t-1")
    T = structure_constants(omega(build_resolution(cfg)), "hessian")
    with pytest.raises(checks.CheckError, match="rational roots"):
        checks.check_split(T, random.Random(1), "table")


def test_discriminant_square_class_check():
    cfg = from_etale("t^5-t-1")
    T, report, orders = _rings_outputs(cfg, build_resolution(cfg))
    assert checks.poly_discriminant(cfg.f) == 2869
    with pytest.raises(checks.CheckError, match="square"):
        checks.check_rings(from_etale("t^5-t-2"), T, report, orders, random.Random(1))


def test_table1_checks():
    F = build_resolution(random_points(6, random.Random("test:points6"), 1, 2))
    report = table1_check(F)
    checks.check_table1(6, report)
    with pytest.raises(checks.CheckError, match="triples"):
        checks.check_table1(6, type(report)(6, report.triples_checked - 1, ()))
    with pytest.raises(checks.CheckError, match="failures"):
        checks.check_table1(6, type(report)(6, report.triples_checked, ("mixed identity fails at (1,2,3)",)))


def test_clear_caches_empties_every_lru_cache():
    monomials_of_degree(4, 3)
    assert monomials_of_degree.cache_info().currsize > 0
    assert run.clear_caches() >= 1
    assert monomials_of_degree.cache_info().currsize == 0


_DIGEST = """
import hashlib, json, sys
from perfbench.workloads import WORKLOADS
blob = json.dumps({name: [(i.label, i.config.to_json()) for i in w.make_inputs(3)]
                   for name, w in WORKLOADS.items()}, sort_keys=True)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def test_inputs_do_not_depend_on_the_hash_seed():
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        out = subprocess.run([sys.executable, "-c", _DIGEST], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_benchmark_json_matches_the_command():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()
    assert list(WORKLOADS) == ["resolve", "resolve_wide", "rings", "braces"]
