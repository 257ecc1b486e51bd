import csv
import json
import math

import numpy as np
import pytest

from absg2.cli import _PRESETS, main
from absg2.core import PairKind

from helpers import reference_sweep_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_visibility_reference_outputs(capsys):
    assert run(capsys, "visibility", "--pair", "ll", "--x", "1", "--r", "0.5")[1] == "0.500000000\n"
    assert run(capsys, "visibility", "--pair", "ss", "--x", "42", "--r", "0.5")[1] == "1.000000000\n"
    assert run(capsys, "visibility", "--pair", "lt", "--x", "1", "--r", "0.5")[1] == "0.400000000\n"


def test_visibility_rejects_bad_values(capsys):
    code, _, err = run(capsys, "visibility", "--pair", "ll", "--x", "0", "--r", "0.5")
    assert code == 2
    assert "x must be > 0" in err
    code, _, err = run(capsys, "visibility", "--pair", "ll", "--x", "1", "--r", "1.0")
    assert code == 2


def test_unknown_pair_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["visibility", "--pair", "zz", "--x", "1", "--r", "0.5"])
    assert exc.value.code == 2


def test_sweep_row_order_and_format(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--pair", "ll", "--x", "0.5,2", "--r", "0.25,0.75", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pair,x,R,visibility"
    xs = [line.split(",")[1] for line in lines[1:]]
    assert xs == ["0.5", "0.5", "2", "2"]  # x-major ordering
    assert out.read_text().endswith("\n")
    assert "\r" not in out.read_text()


def test_sweep_mirror_symmetry_with_endpoints(tmp_path, capsys):
    out = tmp_path / "mirror.csv"
    code, _, _ = run(capsys, "sweep", "--pair", "lt", "--x", "0.71", "--r", "0:1:101", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 101
    vs = [float(r["visibility"]) for r in rows]
    assert vs[0] == 0.0 and vs[100] == 0.0
    assert all(abs(vs[k] - vs[100 - k]) <= 1e-9 for k in range(101))


def test_sweep_ss_ignores_ratio(tmp_path, capsys):
    out = tmp_path / "ss.csv"
    run(capsys, "sweep", "--pair", "ss", "--x", "1,10", "--r", "0.3", "--out", str(out))
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["visibility"] == rows[1]["visibility"]


def test_sweep_preset_surface(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    code, _, _ = run(capsys, "sweep", "--preset", "lt-surface", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 9800
    peak = max(rows, key=lambda r: float(r["visibility"]))
    assert float(peak["visibility"]) == pytest.approx(1 / (math.sqrt(2) + 1), abs=1e-3)
    assert float(peak["x"]) == pytest.approx(math.sqrt(2) / 2, abs=0.05)
    assert float(peak["R"]) == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize(
    "argv, pair, xs, rs",
    [
        (["--preset", "lt-vs-r"], *_PRESETS["lt-vs-r"]),
        (["--pair", "tt", "--x", "0.1:10:7", "--r", "0:1:11"],
         "tt", np.linspace(0.1, 10, 7), np.linspace(0, 1, 11)),
        (["--pair", "ss", "--x", "0.5,1,7", "--r", "0:1:5"], "ss", [0.5, 1, 7], np.linspace(0, 1, 5)),
        (["--pair", "sl", "--x", "2", "--r", "0.3"], "sl", [2.0], [0.3]),
    ],
)
def test_sweep_bytes_match_the_cell_by_cell_reference(tmp_path, capsys, argv, pair, xs, rs):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", *argv, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == reference_sweep_csv(PairKind(pair), list(xs), list(rs))


def test_sweep_rejects_a_cell_where_the_closed_form_is_not_finite(tmp_path, capsys):
    # x + R - x R cancels to 0 at R = 1 for huge x, so LL divides 0 by 0 there
    code, _, err = run(capsys, "sweep", "--pair", "ll", "--x", "1e300", "--r", "0:1:3", "--out", "-")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    # The second x fails after the first row is complete: the file is kept as it was.
    out = tmp_path / "f.csv"
    out.write_text("earlier output\n")
    code, _, err = run(capsys, "sweep", "--pair", "lt", "--x", "1,1e17", "--r", "0:1:3", "--out", str(out))
    assert code == 2 and err.startswith("error: ")
    assert out.read_text() == "earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]  # no temporary file is left


def test_sweep_malformed_spec(capsys):
    code, _, err = run(capsys, "sweep", "--pair", "ll", "--x", "1:2", "--r", "0.5", "--out", "-")
    assert code == 2
    assert "malformed" in err


def test_sweep_unwritable_path(capsys):
    code, _, err = run(
        capsys, "sweep", "--pair", "ll", "--x", "1", "--r", "0.5",
        "--out", "/nonexistent-dir/out.csv",
    )
    assert code == 3


def test_g2_analytic_ss_dip(tmp_path, capsys):
    out = tmp_path / "ss_g2.csv"
    code, _, _ = run(
        capsys, "g2", "--pair", "ss", "--x", "1", "--r", "0.5",
        "--delta-nu", "1e6", "--tau=-1e-6:1e-6:41", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    dip = [r for r in rows if float(r["tau"]) == 0.0]
    assert dip and float(dip[0]["g2"]) == 0.0
    code, stdout, _ = run(
        capsys, "g2", "--pair", "ss", "--x", "1", "--r", "0.5",
        "--delta-nu", "1e6", "--tau=-1e-6:1e-6:41", "--out", "-",
    )
    assert code == 0 and stdout.encode() == out.read_bytes()


def test_g2_mc_is_byte_identical_across_runs_and_threads(tmp_path, capsys):
    args = ["g2", "--pair", "ll", "--x", "1", "--r", "0.5", "--mode", "mc",
            "--n", "20000", "--seed", "7"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    run(capsys, *args, "--out", str(paths[0]))
    run(capsys, *args, "--out", str(paths[1]))
    run(capsys, *args, "--threads", "4", "--out", str(paths[2]))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    _, stdout, _ = run(capsys, *args, "--out", "-")
    assert stdout.rsplit("fitted V = ", 1)[0].encode() == blobs[0]


def test_g2_mc_prints_fitted_visibility(tmp_path, capsys):
    code, out, _ = run(
        capsys, "g2", "--pair", "ll", "--x", "1", "--r", "0.5", "--mode", "mc",
        "--n", "20000", "--seed", "3", "--out", str(tmp_path / "v.csv"),
    )
    assert code == 0
    assert out.startswith("fitted V = ")
    fitted = float(out.split()[3])
    assert fitted == pytest.approx(0.5, abs=0.02)


def test_g2_mc_rejects_zero_beat(capsys):
    code, _, err = run(
        capsys, "g2", "--pair", "ll", "--x", "1", "--r", "0.5", "--mode", "mc",
        "--delta-nu", "0", "--tau=-1e-6:1e-6:11", "--out", "-",
    )
    assert code == 2
    assert "degenerate" in err


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    args = ["g2", "--pair", "lt", "--x", "1", "--r", "0.4", "--mode", "mc", "--n", "5000"]
    monkeypatch.setenv("ABS_SEED", "99")
    run(capsys, *args, "--out", str(tmp_path / "env.csv"))
    monkeypatch.delenv("ABS_SEED")
    run(capsys, *args, "--seed", "99", "--out", str(tmp_path / "flag.csv"))
    assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_validate_quick_cell_passes(capsys):
    code, out, _ = run(
        capsys, "validate", "--pair", "ss,ll", "--x", "1", "--r", "0.5",
        "--n", "5000", "--seed", "11",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 2
    assert all(line.endswith("PASS") for line in lines)


def test_validate_default_grid_passes(capsys):
    # all six pairings on the default 3x3 grid, reduced realization count
    code, out, _ = run(capsys, "validate", "--n", "20000", "--seed", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 54
    assert all(line.endswith("PASS") for line in lines)


def test_validate_rejects_unknown_pair(capsys):
    code, _, err = run(capsys, "validate", "--pair", "zz", "--n", "100")
    assert code == 2
    assert "unknown pair" in err


def test_validate_exit_code_on_mismatch(capsys, monkeypatch):
    # force a wrong reference value to exercise the failure contract
    import absg2.cli as cli_mod

    monkeypatch.setattr(cli_mod, "visibility_analytic", lambda pair, x, r: 0.123)
    code, out, _ = run(
        capsys, "validate", "--pair", "ll", "--x", "1", "--r", "0.5",
        "--n", "5000", "--seed", "11",
    )
    assert code == 1
    assert "FAIL" in out
    assert "1 cell(s) failed" in out


def test_sweep_round_trip_is_stable_at_declared_precision(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    run(capsys, "sweep", "--pair", "tt", "--x", "log:0.1:10:7", "--r", "0.2:0.8:5", "--out", str(out))
    rows = list(csv.DictReader(out.read_text().splitlines()))
    for row in rows:
        for key in ("x", "R", "visibility"):
            assert format(float(row[key]), ".9g") == row[key]


def test_sweep_to_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--pair", "ll", "--x", "1", "--r", "0.5")
    assert code == 0
    assert out.splitlines() == ["pair,x,R,visibility", "ll,1,0.5,0.5"]
    path = tmp_path / "grid.csv"
    grid = ["sweep", "--pair", "lt", "--x", "log:0.1:10:7", "--r", "0:1:9"]
    run(capsys, *grid, "--out", str(path))
    assert run(capsys, *grid, "--out", "-")[1].encode() == path.read_bytes()


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = {row["pair"]: row for row in payload["rows"]}
    assert set(rows) == {"lt", "ll", "tt", "ss", "sl", "st"}
    assert rows["lt"]["v_max"] == pytest.approx(1 / (math.sqrt(2) + 1), abs=1e-6)
    assert rows["lt"]["x_max"] == pytest.approx(math.sqrt(2) / 2, abs=1e-4)
    assert rows["ss"]["x_flat"] is True
    assert rows["sl"]["x_at_cap"] is True
    assert all(row["r_max"] == 0.5 for row in payload["rows"])


def test_table1_text_mentions_cap(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "any" in out
    assert "x capped at" in out
