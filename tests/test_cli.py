import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resrings.cli import main
from resrings.resolution import GradedFreeResolution, validate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_resolve_standard(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--standard", "5")
    assert code == 0
    data = json.loads(out)
    assert data["resolution"]["ranks"] == [1, 5, 5, 1]
    assert data["validation"]["ok"]
    # emitted JSON re-parses to an equal resolution, bit-exact
    F = GradedFreeResolution.from_json(data["resolution"])
    assert F.to_json() == data["resolution"]


def test_resolve_etale(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--etale", "t^4-t-1")
    assert code == 0
    assert json.loads(out)["resolution"]["ranks"] == [1, 2, 1]


def test_resolve_bad_points(tmp_path, capsys):
    cfg = {
        "kind": "points",
        "n": 4,
        "points": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "resolve", str(path))
    assert code == 2
    assert "witness" in err


def test_omega_output(capsys):
    code, out, _ = run_cli(capsys, "omega", "--standard", "4")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and len(data["omega"]) == 3


def test_table_standard4_hessian(capsys):
    code, out, _ = run_cli(capsys, "table", "--standard", "4", "--scale", "hessian")
    assert code == 0
    data = json.loads(out)
    # derived standard value: c^1_12 = -2 (c[i][j][k] with 1-based (1,2,1))
    assert data["c"][0][1][0] == "-2"
    assert data["provenance"]["scale"] == "hessian"


def test_table_normalized(capsys):
    code, out, _ = run_cli(capsys, "table", "--standard", "5", "--normalize", "pairwise")
    assert code == 0
    data = json.loads(out)
    assert data["basis_note"] == "pairwise"
    assert data["c"][0][1][0] == "0" and data["c"][0][1][1] == "0"


def test_table_etale_bhargava(capsys):
    code, out, _ = run_cli(capsys, "table", "--etale", "t^3-t-1", "--scale", "bhargava")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_disc_cubic(capsys):
    code, out, _ = run_cli(capsys, "disc", "--cubic", "1", "0", "-1", "-1")
    assert code == 0
    assert out.strip() == "-23"


def test_disc_orders(capsys):
    code, out, _ = run_cli(capsys, "disc", "--standard", "5", "--orders")
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] == "100000000" and data["ratio_ok"]


def test_disc_malformed_input(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "disc", str(path))
    assert code == 2


def test_verify_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "symmetries", "--n", "5", "--seed", "42", "--cases", "5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["suite"] == "symmetries"


def test_verify_range_parsing(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "table1", "--n", "5..6", "--cases", "0"
    )
    assert code == 0


def test_classical_cubic(capsys):
    code, out, _ = run_cli(capsys, "classical", "cubic", "1", "0", "-1", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["discriminant"] == "-23"
    assert data["hessian_relations_ok"] and data["discriminant_ok"]


def test_classical_quartic(tmp_path, capsys):
    from resrings.symcore import Polynomial

    x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
    a_path = tmp_path / "A.json"
    b_path = tmp_path / "B.json"
    a_path.write_text(json.dumps((x1 * (x2 - x3)).to_json()))
    b_path.write_text(json.dumps((x2 * (x1 - x3)).to_json()))
    code, out, _ = run_cli(capsys, "classical", "quartic", str(a_path), str(b_path))
    assert code == 0
    assert json.loads(out)["identities_ok"]


def test_classical_quintic(tmp_path, capsys, rng):
    from fractions import Fraction

    from resrings.classical import pfaffian_shape_check
    from resrings.symcore import Polynomial, PolyMatrix

    # find a valid seeded alternating matrix, then drive it through the CLI
    while True:
        entries = [[Polynomial.zero(4) for _ in range(5)] for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                p = Polynomial(
                    4,
                    {
                        tuple(1 if t == s else 0 for t in range(4)): Fraction(rng.randint(-2, 2))
                        for s in range(4)
                    },
                )
                entries[i][j] = p
                entries[j][i] = -p
        Phi = PolyMatrix(entries)
        if pfaffian_shape_check(Phi).resolution_report.ok:
            break
    path = tmp_path / "Phi.json"
    path.write_text(json.dumps(Phi.to_json()))
    code, out, _ = run_cli(capsys, "classical", "quintic", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["validation"]["ok"] and data["table_ok"]


def test_emitted_table_round_trips(capsys):
    from resrings.ringalg import MultiplicationTable

    code, out, _ = run_cli(capsys, "table", "--standard", "4")
    data = json.loads(out)
    T = MultiplicationTable.from_json(data)
    again = T.to_json()
    for key in ("n", "c0", "c"):
        assert again[key] == data[key]


def _subprocess_env(**extra):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


_STD4_POINTS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]


def _std4_points_with(first):
    """The standard n=4 points file with its first coordinate replaced."""
    points = [list(pt) for pt in _STD4_POINTS]
    points[0][0] = first
    return json.dumps({"kind": "points", "n": 4, "points": points}).encode()


@pytest.mark.parametrize("argv, content", [
    (["disc", "--cubic", "1", "x", "0", "1"], None),
    (["classical", "cubic", "1", "x", "0", "1"], None),
    (["verify", "--n", "abc"], None),
    (["verify", "--n", "4.."], None),
    (["resolve", "{file}"], b'{"kind": "etale", "n": 3, "f": ["-1", "-1", "0", "1"], "note": "\xff"}'),
    (["resolve", "{file}"], json.dumps({"kind": "etale", "n": 3, "f": ["1/2", "-1", "0", "1"]}).encode()),
    (["resolve", "{file}"], json.dumps({"kind": "points", "n": 4}).encode()),
    (["resolve", "{file}"], json.dumps({"kind": "points", "n": 5, "points": _STD4_POINTS}).encode()),
    (["resolve", "--standard", "200000"], None),
    (["resolve", "--etale", "t^200000-t-1"], None),
    (["verify", "--n", "4..1000000000000"], None),
    (["verify", "--suite", "endtoend", "--n", "2"], None),
    (["omega", "--standard", "4", "--out", "{dir}/missing/x.json"], None),
    (["omega", "--standard", "4", "--out", "{dir}"], None),
    (["resolve", "{file}"], b"[" * 100_000),
    (["resolve", "{file}"], b'{"kind": "points", "n": ' + b"1" * 5000 + b"}"),
    (["resolve", "{file}"], _std4_points_with("1e400000")),
    (["resolve", "{file}"], _std4_points_with("0.1")),
    (["resolve", "{file}"], _std4_points_with("1_000")),
    (["resolve", "{file}"], _std4_points_with(" 1")),
    (["resolve", "{file}"], _std4_points_with(0.1)),
    (["resolve", "{file}"], json.dumps({"kind": "etale", "n": 3, "f": [-1.5, -1, 0, 1]}).encode()),
], ids=["disc-cubic-literal", "classical-cubic-literal", "verify-n-word", "verify-n-open-range",
        "not-utf8", "etale-fraction-coefficient", "points-missing", "points-n-mismatch",
        "standard-above-max-n", "etale-above-max-n", "verify-n-above-max-n", "verify-n-below-3",
        "out-in-missing-dir", "out-is-dir", "nested-arrays", "long-json-integer",
        "rational-exponent", "rational-decimal", "rational-underscore", "rational-space",
        "rational-json-float", "etale-json-float"])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "resrings.cli"] + [a.format(file=path, dir=tmp_path) for a in argv],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr


def test_bad_rational_is_echoed_in_at_most_40_characters(tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(_std4_points_with("1" * 5000 + ".5"))
    proc = subprocess.run([sys.executable, "-m", "resrings.cli", "resolve", str(path)],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    echo = proc.stderr.strip().split("bad rational literal ", 1)[1]
    assert echo.startswith("'111") and len(echo) <= 40


def test_json_integers_are_rationals(capsys, tmp_path):
    as_strings = tmp_path / "strings.json"
    as_strings.write_bytes(_std4_points_with("2"))
    as_integers = tmp_path / "integers.json"
    as_integers.write_text(json.dumps({"kind": "points", "n": 4,
                                       "points": [[2, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}))
    assert run_cli(capsys, "resolve", str(as_strings)) == run_cli(capsys, "resolve", str(as_integers))
    for literal in (True, "+1", "1/0", "\u0661"):
        as_other = tmp_path / "other.json"
        as_other.write_bytes(_std4_points_with(literal))
        code, _, err = run_cli(capsys, "resolve", str(as_other))
        assert code == 2 and "bad rational literal" in err


def test_nested_arrays_on_stdin_exit_2():
    proc = subprocess.run([sys.executable, "-m", "resrings.cli", "resolve", "-"], input="[" * 100_000,
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr


# Reads a JSON file of two million empty arrays with the address space capped
# 64 MiB above what the interpreter has mapped after its imports.
_OUT_OF_MEMORY = r"""
import resource, sys
from resrings.cli import main

with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (mapped + (64 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["resolve", sys.argv[1]]))
"""


def test_out_of_memory_while_reading_exits_2(tmp_path):
    path = tmp_path / "big.json"
    path.write_text("[" + "[]," * 2_000_000 + "[]]")
    proc = subprocess.run([sys.executable, "-c", _OUT_OF_MEMORY, str(path)], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:") and "MemoryError" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_141_without_traceback():
    # the output (about 300 kB) outgrows the pipe, so the write after the close fails
    proc = subprocess.Popen([sys.executable, "-m", "resrings.cli", "resolve", "--standard", "7"],
                            env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    try:
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == b""


# Runs each seeded suite on small sizes and prints every configuration it drew.
_DRAW = r"""
import json
from resrings import suites

drawn = []


def record(name, show):
    fn = getattr(suites, name)

    def wrapper(*args):
        out = fn(*args)
        drawn.append([name, show(out if name == "random_points_config" else args[0])])
        return out

    setattr(suites, name, wrapper)


record("random_points_config", lambda cfg: cfg.to_json())
record("ldf_equivalence_check", lambda f: [str(f.a), str(f.b), str(f.c), str(f.d)])
record("pfaffian_shape_check", lambda Phi: Phi.to_json())
suites.suite_table1(ns=(5,), seed=3, cases=2)
suites.suite_endtoend(ns=(4,), seed=3, cases=2)
suites.suite_classical(seed=3, cases=10)
print(json.dumps(drawn))
"""


def test_suite_draws_do_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _DRAW], env=_subprocess_env(PYTHONHASHSEED=hash_seed),
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(json.loads(proc.stdout))
    kinds = {name for name, _ in outputs[0]}
    assert kinds == {"random_points_config", "ldf_equivalence_check", "pfaffian_shape_check"}
    assert outputs[0] == outputs[1]


# Coordinates mix zeros (sparser syzygy systems), small integers (degenerate
# configurations) and integers up to 10^3 and 10^6 (many primes).
_coordinates = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**3, 10**3), st.integers(-10**6, 10**6))


@st.composite
def _points_json(draw):
    n = draw(st.integers(4, 6))
    points = [draw(st.lists(_coordinates, min_size=n - 1, max_size=n - 1)) for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:  # a repeated point
        points[draw(st.integers(1, n - 1))] = points[0]
    return {"kind": "points", "n": n, "points": [[str(v) for v in pt] for pt in points]}


@settings(max_examples=40, deadline=None)
@given(_points_json())
def test_resolve_generated_points(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("points") / "points.json"
    path.write_text(json.dumps(config))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["resolve", str(path)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        F = GradedFreeResolution.from_json(json.loads(out.getvalue())["resolution"])
        assert validate(F).ok
    else:
        assert err.getvalue().startswith("input error:")
