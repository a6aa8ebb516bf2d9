"""Seeded benchmark of the resrings pipeline, run in one process and one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  Set-up
is the import of ``resrings`` (median of three fresh interpreters) plus the
median of three rounds of input generation and of the resolutions a
workload takes as given.  The timed phase then repeats ops, each
one pass over the workload's batch, until their summed time reaches
``--seconds``.  Before each op, untimed, every ``functools.lru_cache`` in
the ``resrings`` package is cleared and the garbage collector run, so each
op pays what one CLI invocation pays.  The first op's outputs are checked
against properties the method guarantees; later ops must reproduce them
exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced ops and half on traced ones, prints the per-layer metrics
and the tracing overhead, and writes the spans to ``perfbench/results/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 3

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "end_to_end": [
        {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "inputs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
}
PER_LAYER_EXTRA = {
    "setup.resolutions_s": "s",
    "trace.op_p50_s": "s",
    "trace.overhead_pct": "%",
}


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    from perfbench.tracing import COUNT_METRICS, PER_LAYER
    from perfbench.workloads import WORKLOADS

    per_layer = [{"name": k, "unit": "count" if k in COUNT_METRICS else "s", "better": "lower"} for k in PER_LAYER]
    per_layer += [{"name": k, "unit": u, "better": "lower"} for k, u in PER_LAYER_EXTRA.items()]
    return {
        "command": BENCHMARK["command"],
        "paths": BENCHMARK["paths"],
        "run_seconds": BENCHMARK["run_seconds"],
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": BENCHMARK["end_to_end"],
        "per_layer": per_layer,
    }


IMPORT_PROBE = "import time; t = time.perf_counter(); import resrings; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Median seconds a fresh interpreter spends importing resrings from src/.
    One import per process cannot be repeated in place, so each sample is
    its own child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def clear_caches() -> int:
    """Clear every lru_cache reachable from a resrings module or its classes."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "resrings":
            continue
        for value in list(vars(mod).values()):
            for obj in [value] + (list(vars(value).values()) if isinstance(value, type) else []):
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info") and id(obj) not in seen:
                    seen.add(id(obj))
                    obj.cache_clear()
    return len(seen)


class Run:
    """One workload, one seed: set-up, the timed phase, and the checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def setup(self):
        """Inputs and given resolutions, built SETUP_REPEATS times from cold
        caches; returns the median set-up seconds and median seconds spent
        on the given resolutions."""
        totals, given_times = [], []
        for _ in range(SETUP_REPEATS):
            clear_caches()
            gc.collect()
            t0 = time.perf_counter()
            inputs = self.workload.make_inputs(self.seed)
            t1 = time.perf_counter()
            given = [self.workload.given(inp) if self.workload.given else None for inp in inputs]
            t2 = time.perf_counter()
            totals.append(t2 - t0)
            given_times.append(t2 - t1)
        self.inputs, self.given = inputs, given
        return statistics.median(totals), statistics.median(given_times)

    def op(self, collector=None) -> float:
        """One pass over the batch; returns its seconds.  An input that raises
        is counted as a failed operation and the pass goes on."""
        clear_caches()
        gc.collect()
        outputs = []
        failed = 0
        if collector is not None:
            collector.begin_op()
        t0 = time.perf_counter()
        for inp, given in zip(self.inputs, self.given):
            try:
                outputs.append(self.workload.op(inp, given))
            except Exception:  # noqa: BLE001 - counted as a failed operation and reported
                traceback.print_exc(file=sys.stderr)
                failed += 1
                outputs.append(None)
        elapsed = time.perf_counter() - t0
        self.attempted += len(self.inputs)
        self.failed += failed
        self._check(outputs)
        return elapsed

    def _check(self, outputs) -> None:
        digest = hashlib.sha256("\n".join(o[1] if o else "" for o in outputs).encode()).hexdigest()
        if self.digest is None:
            for inp, out in zip(self.inputs, outputs):
                if out is not None:
                    self.workload.check(inp, out[0])
            self.digest = digest
        elif digest != self.digest:
            from perfbench.checks import CheckError

            raise CheckError("an op produced different outputs from the first op of the run")

    def timed(self, seconds: float, collector=None, layer_values=None) -> list[float]:
        """Ops until their summed time reaches ``seconds`` (at least one)."""
        samples: list[float] = []
        busy = 0.0
        while not samples or busy < seconds:
            dt = self.op(collector)
            if collector is not None:
                layer_values.append(collector.end_op(len(layer_values)))
            samples.append(dt)
            busy += dt
        return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resrings" / "__init__.py").is_file():
        print(f"perfbench: the resrings sources are missing (expected {SRC / 'resrings'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import resrings

    if Path(resrings.__file__).resolve().parent != SRC / "resrings":
        print(f"perfbench: imported resrings from {resrings.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from perfbench import tracing
    from perfbench.checks import CheckError
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed)
    import_s = import_seconds()
    setup_s, given_s = run.setup()
    setup_s += import_s

    correct = True
    metrics: dict[str, dict] = {}
    detail: dict[str, object] = {"workload": args.workload, "seed": args.seed, "import_s": import_s}
    try:
        if not args.trace:
            samples = run.timed(args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {
                "op_p50_s": statistics.median(samples),
                "inputs_per_s": len(run.inputs) * len(samples) / sum(samples),
                "setup_s": setup_s,
                "peak_rss_mib": peak_rss_mib,
            }
            units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            detail["op_samples_s"] = samples
        else:
            plain = run.timed(args.seconds / 2)
            collector = tracing.Collector()
            layers: list[dict] = []
            with tracing.instrumented(collector):
                traced = run.timed(args.seconds / 2, collector, layers)
            for name in tracing.COUNT_METRICS:
                if len({v[name] for v in layers}) != 1:
                    raise CheckError(f"count {name} differs between ops of one run: {[v[name] for v in layers]}")
            values = {k: statistics.median([v[k] for v in layers]) for k in tracing.PER_LAYER}
            values["setup.resolutions_s"] = given_s
            values["trace.op_p50_s"] = statistics.median(traced)
            values["trace.overhead_pct"] = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
            units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            detail.update(untraced_samples_s=plain, traced_samples_s=traced)
            RESULTS.mkdir(exist_ok=True)
            trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(collector.archive))
            print(f"spans written to {trace_path.relative_to(ROOT)}")
    except CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if "op_samples_s" in detail:
        print(f"{args.workload} op_p50_s is the median of {len(detail['op_samples_s'])} ops")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
