"""Command-line interface.

Subcommands: visibility, sweep, g2, validate, table1.  All output is
deterministic for fixed flags and seed: CSV files use %.9g formatting, "."
decimals and LF line endings so repeated runs are byte-identical.

Exit codes: 0 success, 1 validation failure, 2 usage or domain error,
3 I/O error.  The default Monte Carlo seed comes from the ABS_SEED
environment variable (0 if unset) and is overridden by --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .analytic import g2_curve_analytic, visibility_analytic, visibility_expression
from .core import BeamSplitter, DomainError, ExperimentConfig, PairKind, _positive_real
from .montecarlo import McSettings, g2_monte_carlo, visibility_from_curve
from .optimize import maximize_visibility
from .probability import path_probabilities

_PAIRS = [p.value for p in PairKind]


def _fmt(values) -> list[str]:
    return [format(v, ".9g") for v in np.asarray(values, dtype=float).tolist()]


def _count(text: str) -> int:
    """A count such as 1e5; argparse turns the error into a usage message."""
    try:
        return int(float(text))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"expected a finite count, got {text!r}") from None


def _parse_grid(spec: str, name: str) -> list[float]:
    """Grid spec: 'start:stop:count' (linear), 'log:start:stop:count', or a
    comma list of values."""
    try:
        if spec.startswith("log:"):
            start, stop, count = spec[4:].split(":")
            start, stop, count = float(start), float(stop), int(count)
            if start <= 0 or stop <= 0 or count < 1:
                raise ValueError
            return [float(v) for v in np.logspace(math.log10(start), math.log10(stop), count)]
        if ":" in spec:
            start, stop, count = spec.split(":")
            start, stop, count = float(start), float(stop), int(count)
            if count < 1:
                raise ValueError
            return [float(v) for v in np.linspace(start, stop, count)]
        values = [float(v) for v in spec.split(",") if v != ""]
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise DomainError(f"malformed {name} spec {spec!r}") from None


def _interior_grid(count: int) -> list[float]:
    return [k / (count + 1) for k in range(1, count + 1)]


def _build_presets() -> dict[str, tuple[str, list[float], list[float]]]:
    """Named sweeps as (pair, x grid, R grid).  The lt-vs-x preset sweeps the
    ratio at fixed reflectivities."""
    log_x = [float(v) for v in np.logspace(-2, 1, 100)]
    presets = {
        "lt-vs-r": ("lt", [0.1, 0.5, 0.71, 2.0, 5.0, 10.0], _interior_grid(99)),
        "lt-vs-x": ("lt", log_x, [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]),
    }
    for pair in _PAIRS:
        presets[f"{pair}-surface"] = (pair, log_x, _interior_grid(98))
    return presets


_PRESETS = _build_presets()


def _default_seed() -> int:
    raw = os.environ.get("ABS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"ABS_SEED must be an integer, got {raw!r}") from None


def _write_csv(path: str, header: str, blocks) -> None:
    """Write the header, then each block of rows, to path ('-' for stdout).
    A block is a tuple of columns of formatted cells; one is in memory at a time."""
    if path == "-":
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(path, "w", encoding="utf-8", newline="")
    with out as fh:
        fh.write(header + "\n")
        for columns in blocks:
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _mc_settings(args: argparse.Namespace) -> McSettings:
    return McSettings(
        n_realizations=args.n,
        seed=args.seed if args.seed is not None else _default_seed(),
        parallel_chunk=args.chunk,
        threads=args.threads,
    )


def _default_tau_grid(delta_nu: float, points: int = 81) -> tuple[float, ...]:
    if not 0.0 < delta_nu < math.inf:
        raise DomainError("the default tau grid needs a finite --delta-nu > 0")
    span = 1.0 / delta_nu
    return tuple(float(t) for t in np.linspace(-span, span, points))


def cmd_visibility(args: argparse.Namespace) -> int:
    v = visibility_analytic(PairKind(args.pair), args.x, args.r)
    print(f"{v:.9f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset is not None:
        pair_str, xs, rs = _PRESETS[args.preset]
        pair = PairKind(pair_str)
    else:
        if args.pair is None or args.x is None or args.r is None:
            raise DomainError("sweep needs either --preset or all of --pair, --x, --r")
        pair = PairKind(args.pair)
        xs = _parse_grid(args.x, "--x")
        rs = _parse_grid(args.r, "--r")
    xs = [_positive_real(x) for x in xs]
    # sweeps may include the R = 0 and R = 1 endpoints, where V = 0
    if not all(0.0 <= r <= 1.0 for r in rs):
        raise DomainError("R must lie in [0,1] for sweeps")

    r_grid = np.asarray(rs, dtype=float)
    r_text = _fmt(r_grid)

    def rows():  # one block per x: the row of the grid at that ratio
        for x, x_text in zip(xs, _fmt(xs)):
            with np.errstate(all="ignore"):
                v = visibility_expression(pair, x, r_grid)
            if not np.isfinite(v).all():
                raise DomainError(f"the closed form is not finite at x={x:g}")
            yield [f"{pair.value},{x_text}"] * len(r_text), r_text, _fmt(v)

    _write_csv(args.out, "pair,x,R,visibility", rows())
    return 0


def cmd_g2(args: argparse.Namespace) -> int:
    if args.tau is None:
        tau_grid = _default_tau_grid(args.delta_nu)
    else:
        tau_grid = _parse_grid(args.tau, "--tau")
    cfg = ExperimentConfig(
        pair=PairKind(args.pair),
        intensity_ratio=args.x,
        bs=BeamSplitter(args.r),
        delta_nu=args.delta_nu,
        tau_grid=tau_grid,
    )
    if args.mode == "analytic":
        p = path_probabilities(cfg.intensity_ratio, cfg.bs)
        curve = g2_curve_analytic(cfg.pair, p, cfg.delta_nu, cfg.tau_grid)
        _write_csv(args.out, "tau,g2", [(_fmt(curve.tau), _fmt(curve.g2))])
        return 0

    if cfg.delta_nu == 0.0:
        raise DomainError("degenerate curve: delta_nu must be > 0 in mc mode")
    curve = g2_monte_carlo(cfg, _mc_settings(args))
    columns = (_fmt(curve.tau), _fmt(curve.g2), _fmt(curve.stderr))
    _write_csv(args.out, "tau,g2,stderr", [columns])
    result = visibility_from_curve(curve, cfg.delta_nu)
    print(f"fitted V = {result.v:.9f} +- {result.v_stderr:.9f}")
    return 0


def _parse_pair(text: str) -> PairKind:
    try:
        return PairKind(text)
    except ValueError:
        raise DomainError(f"unknown pair {text!r} (expected one of {', '.join(_PAIRS)})") from None


def cmd_validate(args: argparse.Namespace) -> int:
    pairs = [_parse_pair(s) for s in (args.pair.split(",") if args.pair else _PAIRS)]
    xs = _parse_grid(args.x, "--x")
    rs = _parse_grid(args.r, "--r")
    settings = _mc_settings(args)
    tau_grid = _default_tau_grid(args.delta_nu)

    failures = []
    for pair in pairs:
        for x in xs:
            for r in rs:
                cfg = ExperimentConfig(pair, x, BeamSplitter(r), args.delta_nu, tau_grid)
                fitted = visibility_from_curve(g2_monte_carlo(cfg, settings), args.delta_nu)
                expected = visibility_analytic(pair, x, r)
                dv = abs(fitted.v - expected)
                bound = 3.0 * fitted.v_stderr + 1e-9  # epsilon covers zero-variance cells
                ok = dv <= bound
                tag = "PASS" if ok else "FAIL"
                print(
                    f"{pair.value} x={x:g} R={r:g} V_mc={fitted.v:.6f} "
                    f"V={expected:.6f} |dV|={dv:.6f} 3SE={3.0 * fitted.v_stderr:.6f} {tag}"
                )
                if not ok:
                    failures.append((pair.value, x, r))
    if failures:
        print(f"{len(failures)} cell(s) failed: " + ", ".join(f"{p}(x={x:g},R={r:g})" for p, x, r in failures))
        return 1
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for pair in PairKind:
        m = maximize_visibility(pair, x_range=(1e-3, args.x_cap))
        rows.append(m)
    if args.json:
        payload = {
            "x_cap": args.x_cap,
            "rows": [
                {
                    "pair": m.pair.value,
                    "v_max": m.v_max,
                    "r_max": m.r_star,
                    "x_max": m.x_star,
                    "x_flat": m.x_flat,
                    "x_at_cap": m.x_at_cap,
                }
                for m in rows
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("pair  v_max      r_max  x_max")
    for m in rows:
        if m.x_flat:
            x_text = "any"
        else:
            x_text = format(round(m.x_star, 4), ".6g")
        note = ""
        if m.x_at_cap:
            note = f"  -> ss limit, x capped at {m.x_range[1]:g}"
        print(f"{m.pair.value:4}  {m.v_max:<9.7g}  {m.r_star:<5.7g}  {x_text}{note}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absg2",
        description="Second-order temporal interference of two independent "
        "light beams at a lossless asymmetrical beam splitter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mc_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=_count, default=100_000,
                       help="Monte Carlo realizations (default 1e5)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: ABS_SEED env var, else 0)")
        p.add_argument("--chunk", type=int, default=16_384,
                       help="realizations per deterministic work unit")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (does not change results)")

    p_vis = sub.add_parser("visibility", help="print the analytic visibility")
    p_vis.add_argument("--pair", required=True, choices=_PAIRS)
    p_vis.add_argument("--x", type=float, required=True, help="intensity ratio I_a/I_b")
    p_vis.add_argument("--r", type=float, required=True, help="beam-splitter reflectivity")
    p_vis.set_defaults(handler=cmd_visibility)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of visibility over an (x, R) grid")
    p_sweep.add_argument("--pair", choices=_PAIRS)
    p_sweep.add_argument("--x", help="grid spec: start:stop:count, log:start:stop:count, or comma list")
    p_sweep.add_argument("--r", help="grid spec (R may include the 0 and 1 endpoints)")
    p_sweep.add_argument("--preset", choices=sorted(_PRESETS),
                         help="named sweep (supplies pair and both grids)")
    p_sweep.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_g2 = sub.add_parser("g2", help="CSV coherence curve, analytic or Monte Carlo")
    p_g2.add_argument("--pair", required=True, choices=_PAIRS)
    p_g2.add_argument("--x", type=float, required=True)
    p_g2.add_argument("--r", type=float, required=True)
    p_g2.add_argument("--delta-nu", dest="delta_nu", type=float, default=1e6,
                      help="beat frequency in Hz (default 1e6)")
    p_g2.add_argument("--tau", default=None,
                      help="tau grid spec in seconds (default: 81 points over "
                      "+-1/delta_nu); use --tau=-1e-6:1e-6:81 for negative starts")
    p_g2.add_argument("--mode", choices=["analytic", "mc"], default="analytic")
    p_g2.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    add_mc_flags(p_g2)
    p_g2.set_defaults(handler=cmd_g2)

    p_val = sub.add_parser("validate", help="compare Monte Carlo against analytic visibilities")
    p_val.add_argument("--pair", default=None,
                       help="comma list of pairings (default: all six)")
    p_val.add_argument("--x", default="0.5,1,2", help="grid spec for intensity ratios")
    p_val.add_argument("--r", default="0.25,0.5,0.75", help="grid spec for reflectivities")
    p_val.add_argument("--delta-nu", dest="delta_nu", type=float, default=1e6)
    add_mc_flags(p_val)
    p_val.set_defaults(handler=cmd_validate)

    p_tab = sub.add_parser("table1", help="maximal visibility summary for all six pairings")
    p_tab.add_argument("--x-cap", dest="x_cap", type=float, default=1e3,
                       help="upper end of the searched intensity-ratio range")
    p_tab.add_argument("--json", action="store_true", help="machine-readable output")
    p_tab.set_defaults(handler=cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
