"""absg2 benchmark: runs the real CLI in-process on one workload and prints
its metrics.

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and nothing is installed.  One run:

1. set-up: a cold ``import absg2.cli`` in a fresh interpreter plus building
   the workload's inputs, repeated (``setup_s`` is the median);
2. passes until ``--seconds`` have been measured, with one more set-up
   sample after each.  Every output is checked.  Every timing is scaled to
   a reference speed (see ``REFERENCE_S``).
   With ``--trace 1`` untraced and traced passes alternate, the traced ones
   give the per-layer metrics and the difference of the two medians is
   ``trace.overhead_s``.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones untraced, per-layer ones traced).  A fuller
record with machine facts, quartiles and the per-command rates is written to
``perfbench/results/``.  See README.md for what each metric and workload is.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import layers
from tracing import Tracer
from workloads import SIZES, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# The shared host's speed swings by a third over minutes, on CPU time as on
# wall time.  So every timing is bracketed by a
# fixed reference computation that does not touch absg2 (float formatting, as
# the CLI's output path does, and a complex exp, as the Monte Carlo kernel
# does) and reported scaled to the reference speed: raw time x REFERENCE_S /
# reference time.  REFERENCE_S is the reference's typical duration on the
# host the benchmark was defined on (2-core x86_64 Xeon at 2.0 GHz, Python
# 3.11, numpy 2.4), so scaled times read as seconds there.
REFERENCE_S = 0.03
_REFERENCE_PHASES = np.linspace(0.0, 2.0 * math.pi, 40_000)  # small: no effect on peak RSS


def reference_s() -> float:
    """Duration of the fixed reference computation, now."""
    start = time.perf_counter()
    for _ in range(10):
        np.exp(1j * _REFERENCE_PHASES).real.sum()
    text = [format(i * 1.000001, ".9g") for i in range(25_000)]
    del text
    return time.perf_counter() - start


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import absg2.cli as m; "
    "print(time.perf_counter() - t); print(m.__file__)"
)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ABS_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_import_s() -> float:
    """Seconds a fresh interpreter spends in ``import absg2.cli``."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, module_file = proc.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"absg2 was imported from {module_file}, not from {SRC}")
    return float(seconds)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _file_digest(path: Path) -> tuple[str, int, int]:
    digest = hashlib.sha256()
    rows = nbytes = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
            rows += block.count(b"\n")
            nbytes += len(block)
    return digest.hexdigest(), rows, nbytes


def run_call(cli, call, tracer):
    """One timed ``absg2.cli.main(argv)``; failures become a non-zero rc."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(call.argv)
            else:
                with tracer.span("cli", call.label):
                    rc = cli.main(call.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback the CLI let through is a failed call
            rc = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    outcome = Outcome(rc, out.getvalue(), err.getvalue(), elapsed)
    if call.out is not None and call.out.exists():
        outcome.sha256, outcome.rows, outcome.nbytes = _file_digest(call.out)
    if tracer is not None:
        stats = tracer.layer("cli")
        text = outcome.stdout.encode()
        stats.add("rows_written", outcome.rows + text.count(b"\n"))
        stats.add("bytes_written", outcome.nbytes + len(text))
        stats.errors += rc != 0
    return outcome


def run_pass(cli, workload, tracer):
    """Run and check every call once.  Returns (raw call times, the same
    scaled to the reference speed, failed calls, problems)."""
    raw: list[float] = []
    scaled: list[float] = []
    problems: list[str] = []
    failed = 0
    before = reference_s()
    for call in workload.calls:
        outcome = run_call(cli, call, tracer)
        after = reference_s()
        raw.append(outcome.elapsed)
        scaled.append(outcome.elapsed * REFERENCE_S / (0.5 * (before + after)))
        before = after
        found = workload.check(call, outcome)
        failed += bool(found)
        problems += found
    return raw, scaled, failed, problems


def typical_pass(passes: list[list[float]]) -> list[float]:
    """Each call's median time over the passes.  Their sum is the reported pass
    time: a stall hits one call of one pass, so this median is steadier than
    the median of whole-pass sums."""
    return [statistics.median(column) for column in zip(*passes)]


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="problem sizes ('smoke' is for the smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "absg2" / "cli.py").is_file():
        print(f"error: no absg2 sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ABS_SEED", None)  # the workload seed reaches the CLI only as --seed

    import absg2.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: absg2 imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    size = SIZES[args.size]
    facts = machine_facts()
    facts["mc_threads"] = min(2, facts["affinity_cpus"])
    program_seed = args.seed % 2**64  # McSettings takes a 64-bit unsigned seed
    workload_cls = WORKLOADS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    setup_raw: list[float] = []
    setup_scaled: list[float] = []

    def sample_setup():
        before = reference_s()
        import_s = cold_import_s()
        start = time.perf_counter()
        built = workload_cls(workdir, program_seed, args.size, facts["mc_threads"])
        raw = import_s + time.perf_counter() - start
        after = reference_s()
        setup_raw.append(raw)
        setup_scaled.append(raw * REFERENCE_S / (0.5 * (before + after)))
        return built

    try:
        for _ in range(size["setup_repeats"]):
            workload = sample_setup()

        workload.install(cli)
        tracer = Tracer() if args.trace else None
        attempted = failed = 0
        problems: list[str] = []
        # traced? -> per pass, each call's raw and scaled time
        passes = {False: [], True: []}
        scaled_passes: list[list[float]] = []
        layer_rows: list[dict] = []

        def one_pass(traced: bool) -> list[float]:
            nonlocal attempted, failed
            if traced:
                layers.install(tracer)
                before = tracer.snapshot()
            try:
                times, scaled, bad, found = run_pass(cli, workload, tracer if traced else None)
            finally:
                if traced:
                    tracer.restore()
            attempted += len(workload.calls)
            failed += bad
            problems.extend(found)
            if traced:
                after = tracer.snapshot()
                delta = {k: v - before.get(k, 0) for k, v in after.items()}
                layer_rows.append(layers.per_layer_metrics(delta))
            else:
                scaled_passes.append(scaled)
            return times

        measured = 0.0
        while True:
            traced = args.trace == 1 and len(passes[False]) > len(passes[True])
            times = one_pass(traced)
            passes[traced].append(times)
            measured += sum(times)
            # More set-up samples, spread over the run so that a slow spell of
            # the host moves few of them.
            sample_setup()
            if measured >= args.seconds and (args.trace == 0 or passes[True]):
                break
        workload.uninstall(cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts["load_before"] = load_before
    facts["load_after"] = os.getloadavg()

    def summary(values, unit):
        q1, med, q3 = quartiles(values)
        return {"value": med, "unit": unit, "q1": q1, "q3": q3, "samples": len(values)}

    def pass_time(per_pass):
        """Typical pass time, with the quartiles of the whole-pass sums."""
        typical = typical_pass(per_pass)
        out = summary([sum(p) for p in per_pass], "s")
        out["value"] = sum(typical)
        return out, typical

    wall, typical = pass_time(scaled_passes)
    raw_wall, raw_typical = pass_time(passes[False])
    kind_times: dict[str, float] = {}
    for call, t in zip(workload.calls, typical):
        kind_times[call.kind] = kind_times.get(call.kind, 0.0) + t

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": program_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": facts,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": problems[:50],
        "call_times_s": {call.label: [p[i] for p in passes[False]]
                         for i, call in enumerate(workload.calls)},
        "end_to_end": {
            "setup_s": summary(setup_scaled, "s"),
            "wall_s": wall,
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "unscaled": {"setup_s": summary(setup_raw, "s"), "wall_s": raw_wall},
        # > 1 when the host ran slower than the reference speed.
        "host_slowdown": raw_wall["value"] / wall["value"],
        "per_command_rates": {
            name: {"value": value, "unit": workload_cls.units[name]}
            for name, value in workload.pass_rates(kind_times).items()
        },
    }
    if args.trace:
        per_layer = {
            name: summary([row[name] for row in layer_rows], layers.PER_LAYER_UNITS[name])
            for name in layer_rows[0]
        }
        # Unscaled, like the layer times; the passes alternate, so a slow spell
        # of the host falls on both sides.
        per_layer["trace.wall_s"], _ = pass_time(passes[True])
        per_layer["trace.overhead_s"] = {
            "value": per_layer["trace.wall_s"]["value"] - raw_wall["value"], "unit": "s"}
        record["per_layer"] = per_layer
        metrics = per_layer
        tracer.dump(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        metrics = record["end_to_end"]

    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for name, rate in record["per_command_rates"].items():
        print(f"{name} = {rate['value']:.6g} {rate['unit']}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"failed_fraction = {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
