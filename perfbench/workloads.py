"""The benchmark workloads: which absg2 CLI commands one pass runs, and the
checks each command's output must pass.

A pass is a fixed list of :class:`Call` objects.  The runner times each call
of ``absg2.cli.main(argv)``, then hands the outcome to the workload's
``check``, which returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

# Pairings ordered by amplitude-term count: TT 6, ST 4, LT 5, LL 4, SL 3, SS 2.
MC_PAIRS = ("tt", "st", "lt", "ll", "sl", "ss")
MC_X, MC_R = 2.0, 0.4
MC_TAU_POINTS = 81  # the CLI's default tau grid
VALIDATE_N = 100_000  # validate's default --n

PINS = Path(__file__).with_name("pins.json")

SIZES = {
    "full": {
        "mc_n": 1_000_000,
        "sweep_x": "log:0.01:10:1000",
        "sweep_r": "0:1:1000",
        "g2_tau": "-1e-5:1e-5:100000",
        "validate": [],  # the CLI's defaults: 6 pairings x 3 ratios x 3 reflectivities
        "validate_cells": 54,
        "setup_repeats": 5,  # before the first pass; one more follows each pass
    },
    # Tiny sizes for the smoke test; same code paths, seconds instead of minutes.
    "smoke": {
        "mc_n": 20_000,
        "sweep_x": "log:0.01:10:30",
        "sweep_r": "0:1:30",
        "g2_tau": "-1e-5:1e-5:1000",
        "validate": ["--pair", "ll,ss", "--x", "1", "--r", "0.5"],
        "validate_cells": 2,
        "setup_repeats": 1,
    },
}

# Closed-form maxima of V over (x, R) with x capped at 1e3 (SL and ST pin the cap).
TABLE1_V_MAX = {
    "lt": math.sqrt(2.0) - 1.0,
    "ll": 0.5,
    "tt": 1.0 / 3.0,
    "ss": 1.0,
    "sl": 1e3 / (1e3 + 0.5),
    "st": 1e3 / (1e3 + 1.0),
}

_FITTED = re.compile(r"^fitted V = (\S+) \+- (\S+)$")
_VALIDATE_LINE = re.compile(
    r"^(\w+) x=\S+ R=\S+ V_mc=(\S+) V=(\S+) \|dV\|=(\S+) 3SE=(\S+) (PASS|FAIL)$"
)


@dataclass
class Call:
    label: str
    kind: str  # time bucket for the per-command rates
    argv: list[str]
    work: float  # realizations, cells or points this call computes
    out: Path | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    elapsed: float
    sha256: str | None = None
    rows: int = 0
    nbytes: int = 0


def _grid_count(spec: str) -> int:
    return int(spec.rsplit(":", 1)[1])


def _floats(text: str) -> list[float] | None:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


class Workload:
    name = ""
    units: dict[str, str] = {}  # per-command rate metric -> unit

    def __init__(self, workdir: Path, seed: int, size_name: str, threads: int):
        """Build one pass's calls; outputs go to ``workdir``, the Monte Carlo
        seed is ``seed`` and ``threads`` is the parallel thread count."""
        self.calls: list[Call] = []

    def install(self, cli) -> None:
        """Hook the CLI module before any pass runs (default: nothing)."""

    def uninstall(self, cli) -> None:
        """Undo :meth:`install`."""

    def check(self, call: Call, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def pass_rates(self, times: dict[str, float]) -> dict[str, float]:
        """The per-command rates of one pass, from its per-kind call times."""
        raise NotImplementedError

    def work(self, kind: str) -> float:
        return sum(c.work for c in self.calls if c.kind == kind)


class McLarge(Workload):
    """g2 --mode mc at 1e6 realizations for all six pairings, threads=1 and
    threads=nproc with the same seed; the only workload using the thread pool."""

    name = "mc_large"
    units = {
        "mc_realizations_per_s": "1/s",
        "mc_parallel_realizations_per_s": "1/s",
        "mc_thread_speedup": "ratio",
    }

    def __init__(self, workdir, seed, size_name, threads):
        super().__init__(workdir, seed, size_name, threads)
        from absg2.analytic import visibility_analytic
        from absg2.core import PairKind

        n = SIZES[size_name]["mc_n"]
        self.expected = {p: visibility_analytic(PairKind(p), MC_X, MC_R) for p in MC_PAIRS}
        self.curves: dict[str, object] = {}  # label -> curve returned by g2_monte_carlo
        self.first_sha: dict[str, str] = {}
        self._original = None
        for pair in MC_PAIRS:
            for count, kind in ((1, "mc_serial"), (threads, "mc_parallel")):
                label = f"g2-mc-{pair}-{kind}-t{count}"
                out = workdir / f"{label}.csv"
                argv = ["g2", "--pair", pair, "--x", repr(MC_X), "--r", repr(MC_R),
                        "--mode", "mc", "--n", str(n), "--seed", str(seed),
                        "--threads", str(count), "--out", str(out)]
                self.calls.append(Call(label, kind, argv, float(n), out,
                                       {"pair": pair, "serial": f"g2-mc-{pair}-mc_serial-t1"}))

    def pass_rates(self, times):
        return {
            "mc_realizations_per_s": self.work("mc_serial") / times["mc_serial"],
            "mc_parallel_realizations_per_s": self.work("mc_parallel") / times["mc_parallel"],
            "mc_thread_speedup": times["mc_serial"] / times["mc_parallel"],
        }

    def install(self, cli) -> None:
        # Keep the returned curve so threads=1 and threads=nproc can be compared
        # bit for bit, not only through the CSV's 9 significant digits.
        self._original = original = cli.g2_monte_carlo
        self._last = None

        @functools.wraps(original)
        def capture(*args, **kwargs):
            self._last = original(*args, **kwargs)
            return self._last

        cli.g2_monte_carlo = capture

    def uninstall(self, cli) -> None:
        cli.g2_monte_carlo = self._original

    def check(self, call, outcome):
        curve, self._last = self._last, None
        if outcome.rc != 0:
            return [f"{call.label}: exit {outcome.rc}: {outcome.stderr.strip()[-200:]}"]
        problems = []
        lines = call.out.read_text(encoding="utf-8").split("\n")
        rows = [_floats(line) for line in lines[1:-1]]
        if lines[0] != "tau,g2,stderr" or lines[-1] != "" or len(rows) != MC_TAU_POINTS:
            problems.append(f"{call.label}: CSV shape is wrong")
        elif any(r is None or len(r) != 3 or r[1] < 0.0 or r[2] < 0.0 for r in rows):
            problems.append(f"{call.label}: CSV has a malformed, negative or non-finite row")
        match = _FITTED.match(outcome.stdout.strip())
        if match is None:
            problems.append(f"{call.label}: no fitted V line")
        else:
            v, se = float(match[1]), float(match[2])
            expected = self.expected[call.params["pair"]]
            if not (math.isfinite(se) and se >= 0.0):  # SS has zero variance: SE = 0
                problems.append(f"{call.label}: SE {se!r} is not finite")
            elif not abs(v - expected) <= 5.0 * se + 1e-9:
                problems.append(f"{call.label}: V={v} is beyond 5 SE of {expected}")
        first = self.first_sha.setdefault(call.label, outcome.sha256)
        if outcome.sha256 != first:
            problems.append(f"{call.label}: CSV differs from the first pass with the same seed")
        if call.kind == "mc_serial":
            self.curves[call.label] = (curve, outcome.sha256, outcome.stdout)
        else:
            serial = self.curves.get(call.params["serial"])
            if serial is None or curve is None or serial[0] != curve:
                problems.append(f"{call.label}: curve is not bit-identical to threads=1")
            elif serial[1:] != (outcome.sha256, outcome.stdout):
                problems.append(f"{call.label}: output bytes differ from threads=1")
        return problems


class AnalyticCsv(Workload):
    """sweep over a 1e6-cell (x, R) grid and g2 --mode analytic on a 1e5-point
    tau grid, both to files; no Monte Carlo.  Output bytes are pinned."""

    name = "analytic_csv"
    units = {"sweep_cells_per_s": "1/s", "g2_points_per_s": "1/s"}

    def __init__(self, workdir, seed, size_name, threads):
        super().__init__(workdir, seed, size_name, threads)
        size = SIZES[size_name]
        self.pins = json.loads(PINS.read_text())[size_name]
        cells = _grid_count(size["sweep_x"]) * _grid_count(size["sweep_r"])
        points = _grid_count(size["g2_tau"])
        sweep_out = workdir / "sweep.csv"
        g2_out = workdir / "g2.csv"
        self.calls = [
            Call("sweep-lt", "sweep",
                 ["sweep", "--pair", "lt", "--x", size["sweep_x"], "--r", size["sweep_r"],
                  "--out", str(sweep_out)],
                 float(cells), sweep_out, {"pin": "sweep", "rows": cells + 1}),
            Call("g2-analytic-lt", "g2",
                 ["g2", "--pair", "lt", "--x", "2", "--r", "0.4", "--mode", "analytic",
                  f"--tau={size['g2_tau']}", "--out", str(g2_out)],
                 float(points), g2_out, {"pin": "g2", "rows": points + 1}),
        ]

    def pass_rates(self, times):
        return {
            "sweep_cells_per_s": self.work("sweep") / times["sweep"],
            "g2_points_per_s": self.work("g2") / times["g2"],
        }

    def check(self, call, outcome):
        if outcome.rc != 0:
            return [f"{call.label}: exit {outcome.rc}: {outcome.stderr.strip()[-200:]}"]
        problems = []
        pin = self.pins[call.params["pin"]]
        if outcome.sha256 != pin:
            problems.append(f"{call.label}: SHA-256 {outcome.sha256} != pinned {pin}")
        if outcome.rows != call.params["rows"]:
            problems.append(f"{call.label}: {outcome.rows} lines, expected {call.params['rows']}")
        if outcome.stdout:
            problems.append(f"{call.label}: unexpected stdout")
        return problems


class Reproduce(Workload):
    """The default validate (6 pairings x 9 cells x 1e5 realizations, serial)
    then table1 --json: what a user runs to reproduce the paper."""

    name = "reproduce"
    units = {"validate_cells_per_s": "1/s", "mc_realizations_per_s": "1/s"}

    def __init__(self, workdir, seed, size_name, threads):
        super().__init__(workdir, seed, size_name, threads)
        size = SIZES[size_name]
        self.cells = size["validate_cells"]
        # validate runs with the CLI's default seed, exactly as the README has a
        # user run it; see README.md for why the workload seed is not passed.
        self.calls = [
            Call("validate", "validate", ["validate", *size["validate"]], float(self.cells)),
            Call("table1", "table1", ["table1", "--json"], 6.0),
        ]

    def pass_rates(self, times):
        return {
            "validate_cells_per_s": self.cells / times["validate"],
            "mc_realizations_per_s": self.cells * VALIDATE_N / times["validate"],
        }

    def check(self, call, outcome):
        if outcome.rc != 0:
            return [f"{call.label}: exit {outcome.rc}: {outcome.stderr.strip()[-200:]}"]
        if call.label == "validate":
            return self._check_validate(outcome.stdout)
        return self._check_table1(outcome.stdout)

    def _check_validate(self, text):
        problems = []
        lines = text.strip().split("\n")
        if len(lines) != self.cells:
            problems.append(f"validate: {len(lines)} lines, expected {self.cells}")
        for line in lines:
            match = _VALIDATE_LINE.match(line)
            if match is None:
                problems.append(f"validate: malformed line {line!r}")
                continue
            values = [float(v) for v in match.group(2, 3, 4, 5)]
            if match[6] != "PASS" or not all(math.isfinite(v) for v in values):
                problems.append(f"validate: {line}")
        return problems

    def _check_table1(self, text):
        try:
            rows = json.loads(text)["rows"]
        except (ValueError, KeyError, TypeError):
            return ["table1: output is not the expected JSON"]
        if [r.get("pair") for r in rows] != list(TABLE1_V_MAX):
            return ["table1: pairings are missing or out of order"]
        problems = []
        for r in rows:
            pair = r["pair"]
            ok = (
                abs(r["v_max"] - TABLE1_V_MAX[pair]) <= 1e-6
                and abs(r["r_max"] - 0.5) <= 1e-4
                and r["x_flat"] == (pair == "ss")
                and r["x_at_cap"] == (pair in ("sl", "st"))
            )
            if not ok:
                problems.append(f"table1: row {r} disagrees with the closed-form maximum")
        return problems


WORKLOADS = {w.name: w for w in (McLarge, AnalyticCsv, Reproduce)}
