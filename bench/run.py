"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload series|robot|random --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (calibration loop, passes, thread count, versions).
Both are also written to ``bench/.out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

# Set-up is repeated this many times in a run and its median reported.
SETUP_REPEATS = 7
# A run makes at least this many timed passes, however short --seconds is.
MIN_PASSES = 3
IMPORT_REPEATS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program
    from there, never from an installed copy."""
    init = SRC / "mtgames" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no program source at {init}")
    sys.path.insert(0, str(SRC))
    import mtgames

    if Path(mtgames.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: mtgames imported from {mtgames.__file__}, not {SRC}")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tells machine drift apart
    from a change of the program. Not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Time to import ``mtgames.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import mtgames.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _median(values):
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _timed_loop(seconds: float, step, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, and again while another
    call is expected to end within ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(step())
        used = time.perf_counter() - t0
        if len(results) >= minimum and used * (len(results) + 1) / len(results) > seconds:
            return results


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """One run; returns (result, info) as printed."""
    import tracing
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ledger = wl.Ledger()
    info: dict = {"workload": workload, "seed": seed, "size": size, "trace": int(trace)}
    info["calibration_start_s"] = calibrate()
    try:
        tracer = tracing.Tracer() if trace else None
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            shutil.rmtree(work / "instances", ignore_errors=True)
            t0 = time.perf_counter()
            with tracer or contextlib.nullcontext():
                prepared = wl.build(workload, work / "instances", seed, size)
            setup_times.append(time.perf_counter() - t0)
        setup_spans = list(tracer.spans) if tracer else []

        # Untimed warm-up: the same commands on the small instance of the
        # same family load every module and code path the passes use.
        warm = wl.build(workload, work / "warmup", seed, "small" if size == "full" else size)
        wl.run_pass(wl.Ledger(), warm)

        metrics: dict[str, float] = {}
        if not trace:
            passes = _timed_loop(seconds, lambda: wl.run_pass(ledger, prepared), MIN_PASSES)
            for name in wl.TIME_METRICS:
                metrics[name] = _median(p.times[name] for p in passes)
            metrics["setup_s"] = _median(setup_times)
            metrics["pre_count_mt"] = passes[0].pre_count_mt
            metrics["pre_count_gr1emb"] = passes[0].pre_count_gr1emb
            info["passes"] = [p.times for p in passes]
        else:
            def iteration():
                plain = wl.run_pass(ledger, prepared)
                mark, outer = len(tracer.spans), tracer.outer_iterations
                with tracer:
                    traced = wl.run_pass(ledger, prepared)
                layers = tracing.layer_metrics(
                    tracer.spans[mark:], tracer.outer_iterations - outer
                )
                serial, _ = wl.compare_op(ledger, prepared, threads="1")
                return plain, traced, layers, serial.seconds

            rounds = _timed_loop(seconds, iteration, 1)
            passes = [r[0] for r in rounds] + [r[1] for r in rounds]
            for name in rounds[0][2]:
                metrics[name] = _median(r[2][name] for r in rounds)
            setup_layers = tracing.layer_metrics(setup_spans, 0)
            for name in ("benchgen.generate_s", "game.serialize_game_s"):
                metrics[name] = setup_layers[name]
            compare_s = _median(r[0].times["compare_s"] for r in rounds)
            metrics["cli.compare_serial_s"] = _median(r[3] for r in rounds)
            metrics["cli.compare_pool_speedup"] = metrics["cli.compare_serial_s"] / compare_s
            metrics["cli.import_s"] = import_seconds()
            metrics["bench.trace_overhead_s"] = _median(
                sum(r[1].times.values()) for r in rounds
            ) - _median(sum(r[0].times.values()) for r in rounds)
            if "mtgames.fixpoint.pre" not in tracer.missing:
                for _, traced, layers, _ in rounds:
                    ledger.expect(
                        layers["game.pre_calls"] == traced.pre_count_mt + traced.pre_count_gr1emb,
                        "traced Pre calls differ from the pre_count the pass reported",
                    )
            info["missing_sites"] = tracer.missing
            info["passes_untraced"] = [r[0].times for r in rounds]
            info["passes_traced"] = [r[1].times for r in rounds]
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")

        first = passes[0].records
        ledger.expect(
            all(p.records == first for p in passes),
            "pre counts, outer iterations or winning sizes differ between passes",
        )
        wl.check_apart(ledger, prepared)
        if not trace:
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["calibration_end_s"] = calibrate()

    info["makeup"] = prepared.makeup
    info["records"] = first
    info["compare_threads"] = _resolved_threads()
    info["problems"] = ledger.problems
    info["failures"] = ledger.failures[:20]
    info["versions"] = _versions()
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, info


def _resolved_threads():
    """The thread count ``compare`` uses with MTGAMES_THREADS unset."""
    from mtgames import cli

    resolve = getattr(cli, "_thread_count", None)
    if resolve is None:
        return None
    saved = os.environ.pop("MTGAMES_THREADS", None)
    try:
        return resolve()
    finally:
        if saved is not None:
            os.environ["MTGAMES_THREADS"] = saved


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("series", "robot", "random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in info["problems"] + info["failures"]:
        print(f"problem: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
