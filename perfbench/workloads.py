"""Seeded inputs and the operation of every workload.

Inputs come from ``random.Random`` seeded with a string, which (unlike the
hash of a tuple holding a string) does not depend on PYTHONHASHSEED, so a
seed draws the same inputs in every process.  One op is one pass over a
workload's fixed batch; ops of a run are therefore alike.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from resrings import (
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
from resrings.configs import general_position_check, points_config

from . import checks


@dataclass(frozen=True)
class Input:
    label: str
    config: object
    rng_seed: str  # seeds the random element drawn by the split-ring check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], list[Input]]
    given: Callable[[Input], object] | None  # set-up work an op takes as given
    op: Callable[[Input, object], tuple[object, str]]  # -> (objects to check, JSON text)
    check: Callable[[Input, object], None]


def random_points(n: int, rng: random.Random, lo: int, hi: int):
    """n points of P^(n-2) whose coordinates are drawn from +-[lo, hi],
    rejection-sampled to general position.  Zero coordinates are excluded so
    that every draw gives systems of the same density."""
    for _ in range(10_000):
        pts = [[rng.choice((-1, 1)) * rng.randint(lo, hi) for _ in range(n - 1)] for _ in range(n)]
        cfg = points_config(pts)
        if general_position_check(cfg)[0]:
            return cfg
    raise RuntimeError(f"no general-position draw for n={n} in +-[{lo}, {hi}]")


def _batch(name: str, seed: int, spec) -> list[Input]:
    """``spec`` lists (label, n, lo, hi) for random points or (label, poly)
    for an etale input; labels are unique within a batch."""
    out = []
    for item in spec:
        key = f"perfbench:{name}:{seed}:{item[0]}"
        if len(item) == 2:
            cfg = from_etale(item[1])
        else:
            _, n, lo, hi = item
            cfg = random_points(n, random.Random(key), lo, hi)
        out.append(Input(item[0], cfg, key + ":element"))
    return out


# ---------------------------------------------------------------------------
# operations


def _resolve(inp: Input, _given) -> tuple[object, str]:
    """What ``resrings resolve`` does: build, validate, emit JSON."""
    F = build_resolution(inp.config)
    report = validate(F)
    text = json.dumps({"resolution": F.to_json(), "validation": report.to_json()}, indent=2)
    return (F, report), text


def _check_resolve(inp: Input, out) -> None:
    checks.check_resolution(inp.config, *out)


def _rings(inp: Input, F) -> tuple[object, str]:
    """What ``resrings table`` and ``resrings disc --orders`` do after the build."""
    Om = omega(F)
    T = structure_constants(Om, "hessian")
    report = verify_table(T)
    F_int, _ = integerize(F)
    orders = integral_orders(F_int)
    text = json.dumps([
        Om.to_json(),
        T.to_json(),
        {"disc_B": str(orders.disc_B), "disc_Bprime": str(orders.disc_Bprime), "ratio": str(orders.ratio)},
        orders.B.to_json(),
        orders.Bprime.to_json(),
    ])
    return (T, report, orders), text


def _check_rings(inp: Input, out) -> None:
    checks.check_rings(inp.config, *out, random.Random(inp.rng_seed))


def _braces(inp: Input, F) -> tuple[object, str]:
    report = table1_check(F)
    return report, json.dumps([report.n, report.triples_checked, list(report.failures)])


def _check_braces(inp: Input, report) -> None:
    checks.check_table1(inp.config.n, report)


# ---------------------------------------------------------------------------
# the workloads


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "resolve",
            "resrings resolve on random points at n=6,7 and etale t^6-t-1: "
            "syzygy assembly and sparse-shaped modular elimination, up to the 1960x294 system",
            lambda seed: _batch("resolve", seed, [
                ("points6-a", 6, 1, 2), ("points6-b", 6, 1, 2), ("points7", 7, 1, 1), ("etale6", "t^6-t-1"),
            ]),
            None, _resolve, _check_resolve,
        ),
        Workload(
            "resolve_wide",
            "resrings resolve on points with large coordinates at n=5,6: prime count, CRT, "
            "rational reconstruction, and one input past the 30-prime cap that falls back to Fraction rref",
            lambda seed: _batch("resolve_wide", seed, [
                ("points5-a", 5, 10**5, 10**6), ("points5-b", 5, 10**5, 10**6), ("points5-c", 5, 10**5, 10**6),
                ("points6-many-primes", 6, 50, 100), ("points6-past-cap", 6, 1000, 2000),
            ]),
            None, _resolve, _check_resolve,
        ),
        Workload(
            "rings",
            "resrings table and disc --orders on resolutions built in set-up (random points at n=5,6, "
            "etale t^5-t-1, t^6-t-1): one omega per resolution on cold caches, no elimination",
            lambda seed: _batch("rings", seed, [
                ("points5-a", 5, 1, 2), ("points5-b", 5, 1, 2), ("points6-a", 6, 1, 2), ("points6-b", 6, 1, 2),
                ("etale5", "t^5-t-1"), ("etale6", "t^6-t-1"),
            ]),
            lambda inp: build_resolution(inp.config), _rings, _check_rings,
        ),
        Workload(
            "braces",
            "table1_check on resolutions built in set-up (random points at n=6, etale t^7-t-1): "
            "many brace and bracket queries on one resolution",
            lambda seed: _batch("braces", seed, [("points6-a", 6, 1, 2), ("points6-b", 6, 1, 2), ("etale7", "t^7-t-1")]),
            lambda inp: build_resolution(inp.config), _braces, _check_braces,
        ),
    )
}
