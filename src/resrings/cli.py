"""Command-line front end.

Subcommands: resolve, omega, table, disc, verify, classical.  All I/O is
UTF-8 JSON on files or stdin/stdout.  Exit codes: 0 success, 2 malformed or
out-of-domain input (including an unwritable --out path), 3 internal
inconsistency (a guaranteed identity failed; must never happen on valid
input), 141 standard output closed before everything was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from .brackets import omega
from .classical import (
    BinaryCubic,
    TernaryQuadricPair,
    ldf_equivalence_check,
    ldf_table,
    pfaffian_shape_check,
    quartic_identities_check,
)
from .configs import Configuration, check_size, coordinate_ring_table, from_etale, standard_config
from .errors import InconsistencyError, InputError
from .resolution import build_resolution, integerize, validate
from .ringalg import (
    MultiplicationTable,
    discriminant,
    integral_orders,
    normalize,
    structure_constants,
    verify_table,
)
from .symcore import Polynomial, PolyMatrix, rational_from_json
from .suites import SUITE_NAMES, run_suite


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError, MemoryError) as exc:
        raise InputError(f"cannot read JSON from {path}: {str(exc) or type(exc).__name__}") from exc


def _emit(data, out: str | None) -> None:
    text = json.dumps(data, indent=2)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _load_config(args) -> Configuration:
    if getattr(args, "standard", None) is not None:
        return standard_config(args.standard)
    if getattr(args, "etale", None) is not None:
        return from_etale(args.etale)
    if getattr(args, "input", None):
        return Configuration.from_json(_read_json(args.input))
    raise InputError("provide --standard N, --etale POLY, or a config JSON path")


def _parse_ns(spec: str | None) -> tuple[int, ...] | None:
    if spec is None:
        return None
    bounds: list[tuple[int, int]] = []
    try:
        for part in spec.split(","):
            lo, hi = part.split("..") if ".." in part else (part, part)
            bounds.append((int(lo), int(hi)))
    except ValueError as exc:
        raise InputError(f"bad n range {spec!r}") from exc
    for lo, hi in bounds:  # before any range is expanded
        check_size(lo)
        check_size(hi)
    out = [n for lo, hi in bounds for n in range(lo, hi + 1)]
    if not out:
        raise InputError(f"empty n range {spec!r}")
    return tuple(out)


def _cmd_resolve(args) -> int:
    cfg = _load_config(args)
    F = build_resolution(cfg)
    report = validate(F)
    _emit({"resolution": F.to_json(), "validation": report.to_json()}, args.out)
    if not report.ok:
        raise InconsistencyError(f"built resolution failed validation: {report.first_failure()}")
    return 0


def _cmd_omega(args) -> int:
    cfg = _load_config(args)
    F = build_resolution(cfg)
    if args.brace:
        from .brackets import brace

        try:
            word = tuple(int(v) for v in args.brace.split(","))
        except ValueError as exc:
            raise InputError(f"bad brace word {args.brace!r}") from exc
        _emit({"word": list(word), "value": str(brace(F, word))}, args.out)
        return 0
    _emit(omega(F).to_json(), args.out)
    return 0


def _resolution_hash(F) -> str:
    blob = json.dumps(F.to_json(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _cmd_table(args) -> int:
    cfg = _load_config(args)
    F = build_resolution(cfg)
    T = structure_constants(omega(F), args.scale)
    applied = [str(Fraction(0))] * (cfg.n - 1)
    if args.normalize != "none":
        T, s = normalize(T, args.normalize)
        applied = [str(v) for v in s.lambdas]
        report = verify_table(T)
        if not report.passed("associative"):
            raise InconsistencyError(f"table failed verification: {report.witness}")
    payload = T.to_json()
    payload["provenance"] = {
        "resolution_sha256": _resolution_hash(F),
        "scale": args.scale,
        "shear": applied,
    }
    _emit(payload, args.out)
    return 0


def _cmd_disc(args) -> int:
    if args.cubic is not None:
        f = BinaryCubic.of(*(rational_from_json(v) for v in args.cubic))
        print(str(discriminant(ldf_table(f))))
        return 0
    if args.orders:
        cfg = _load_config(args)
        F_int, _ = integerize(build_resolution(cfg))
        res = integral_orders(F_int)
        expected = Fraction(2 * cfg.n) ** (2 * (cfg.n - 1))
        _emit(
            {
                "disc_B": str(res.disc_B),
                "disc_Bprime": str(res.disc_Bprime),
                "ratio": str(res.ratio),
                "expected_ratio": str(expected),
                "ratio_ok": res.ratio == expected,
            },
            args.out,
        )
        if res.ratio != expected:
            raise InconsistencyError("discriminant ratio mismatch")
        return 0
    if args.input:
        data = _read_json(args.input)
        if isinstance(data, dict) and "c0" in data:
            T = MultiplicationTable.from_json(data)
            if not verify_table(T).passed("associative"):
                raise InputError("table is not associative; discriminant undefined here")
            print(str(discriminant(T)))
            return 0
        cfg = Configuration.from_json(data)
        print(str(discriminant(coordinate_ring_table(cfg))))
        return 0
    cfg = _load_config(args)
    print(str(discriminant(coordinate_ring_table(cfg))))
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, _parse_ns(args.n), args.seed, args.cases)
    payload = [{"suite": name, "ok": r.ok, "total": len(r.checks), "failed": len(r.failures),
                "failures": r.failures[:20]} for name, r in reports]
    _emit(payload if len(payload) > 1 else payload[0], args.out)
    if not all(r.ok for _, r in reports):
        raise InconsistencyError("verification suite failed")
    return 0


def _cmd_classical(args) -> int:
    if args.kind == "cubic":
        f = BinaryCubic.of(*(rational_from_json(v) for v in args.coeffs))
        T = ldf_table(f)
        payload = {"table": T.to_json(), "discriminant": str(f.discriminant())}
        if f.discriminant() != 0:
            rep = ldf_equivalence_check(f)
            payload["hessian_relations_ok"] = rep.passed("relations")
            payload["discriminant_ok"] = rep.passed("discriminant")
            if not rep.ok:
                _emit(payload, args.out)
                raise InconsistencyError("cubic equivalence check failed")
        _emit(payload, args.out)
        return 0
    if args.kind == "quartic":
        A = Polynomial.from_json(_read_json(args.files[0]))
        B = Polynomial.from_json(_read_json(args.files[1]))
        pair = TernaryQuadricPair(A, B)
        F = pair.resolution()
        vrep = validate(F)
        if not vrep.ok:
            raise InputError(f"pencil does not resolve four points in general position: {vrep.first_failure()}")
        qrep = quartic_identities_check(F)
        _emit({"validation": vrep.to_json(), "identities_ok": qrep.ok,
               "identities_checked": len(qrep.checks),
               "failures": qrep.failures[:10]}, args.out)
        if not qrep.ok:
            raise InconsistencyError("quartic identities failed on a valid pencil")
        return 0
    if args.kind == "quintic":
        Phi = PolyMatrix.from_json(_read_json(args.files[0]))
        vrep, table = pfaffian_shape_check(Phi)
        payload = {"validation": vrep.to_json()}
        if not vrep.ok:
            _emit(payload, args.out)
            raise InputError(f"alternating matrix is degenerate: {vrep.first_failure()}")
        payload["table"] = table.to_json()
        payload["table_ok"] = verify_table(table).ok
        _emit(payload, args.out)
        if not payload["table_ok"]:
            raise InconsistencyError("pfaffian table failed verification")
        return 0
    raise InputError(f"unknown classical kind {args.kind!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="resrings",
        description="Exact minimal free resolutions of point configurations "
                    "and the structure constants of the rank-n rings they determine.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("input", nargs="?", help="configuration JSON file, or - for stdin")
        p.add_argument("--standard", type=int, metavar="N", help="standard n-point configuration")
        p.add_argument("--etale", metavar="POLY", help='monic integer polynomial in t, e.g. "t^4-t-1"')
        p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")

    p = sub.add_parser("resolve", help="build and validate a minimal free resolution")
    add_config_args(p)
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("omega", help="emit the quadratic forms of the omega tensor")
    add_config_args(p)
    p.add_argument("--brace", metavar="WORD",
                   help='emit one brace symbol instead, e.g. "1,2,1,3"')
    p.set_defaults(fn=_cmd_omega)

    p = sub.add_parser("table", help="emit verified structure constants")
    add_config_args(p)
    p.add_argument("--scale", choices=("hessian", "bhargava"), default="hessian")
    p.add_argument("--normalize", choices=("none", "cyclic", "pairwise", "trace_zero"),
                   default="none")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("disc", help="discriminants of tables, configurations and orders")
    add_config_args(p)
    p.add_argument("--cubic", nargs=4, metavar=("A", "B", "C", "D"),
                   help="binary cubic coefficients")
    p.add_argument("--orders", action="store_true",
                   help="report disc(B), disc(B') and the (2n)^(2n-2) ratio")
    p.set_defaults(fn=_cmd_disc)

    p = sub.add_parser("verify", help="run the exact identity suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--n", metavar="RANGE", help='sizes, e.g. "5", "4..6", "5,7"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_verify)

    # The positionals take one string metavar each: with a tuple, argparse's
    # "arguments are required" message (say for a coefficient -2/3, taken for
    # an option) raises TypeError instead of exiting 2.
    p = sub.add_parser("classical", help="rank 3/4/5 parametrization checks")
    csub = p.add_subparsers(dest="kind", required=True)
    pc = csub.add_parser("cubic", help="cubic ring of a binary cubic form")
    pc.add_argument("coeffs", nargs=4, metavar="COEFF", help="a, b, c, d of a x^3 + b x^2 y + c x y^2 + d y^3")
    pc.add_argument("--out", metavar="PATH")
    pc.set_defaults(fn=_cmd_classical, kind="cubic")
    pq = csub.add_parser("quartic", help="pair of ternary quadratic forms (two JSON files)")
    pq.add_argument("files", nargs=2, metavar="FORM.json", help="the quadrics A and B")
    pq.add_argument("--out", metavar="PATH")
    pq.set_defaults(fn=_cmd_classical, kind="quartic")
    pf = csub.add_parser("quintic", help="5x5 alternating matrix of linear forms (JSON)")
    pf.add_argument("files", nargs=1, metavar="Phi.json")
    pf.add_argument("--out", metavar="PATH")
    pf.set_defaults(fn=_cmd_classical, kind="quintic")

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): drop the rest of the
        # output and exit as a shell reports a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
