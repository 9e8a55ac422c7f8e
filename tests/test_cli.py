"""Command line round trips and exit codes."""

import math

import numpy as np
import pytest

from planarz.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " "):
            return line.split(" ", 1)[1]
    raise KeyError(key)


def test_gen_solve_oracle_round_trip(tmp_path, capsys):
    # 2x2 so the two-core stays under the loop enumeration cap
    model = tmp_path / "m.txt"
    code, out, _ = _run(
        capsys,
        "gen", "--grid", "2", "--beta", "1", "--theta", "0.1",
        "--seed", "3", "--out", str(model),
    )
    assert code == 0
    assert model.read_text().startswith("factorgraph 4")

    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "z_empty")
    assert code == 0
    est = float(_value(out, "log_z"))
    assert _value(out, "converged") == "true"

    code, out, _ = _run(capsys, "oracle", "--model", str(model), "--exact")
    assert code == 0
    exact = float(_value(out, "log_z"))
    assert abs(est - exact) / abs(exact) < 1e-3

    code, out, _ = _run(capsys, "oracle", "--model", str(model), "--loops")
    assert code == 0
    loop_est = float(_value(out, "log_z"))
    assert abs(loop_est - est) < 1e-6


def test_gen_to_stdout(capsys):
    code, out, _ = _run(capsys, "gen", "--spiderweb", "1", "3", "--beta", "0.5")
    assert code == 0
    assert out.startswith("factorgraph 4")


def test_solve_forney_model(tmp_path, capsys):
    model = tmp_path / "f.txt"
    model.write_text(
        "forney 3\n"
        "edge a b\nedge b c\nedge c a\n"
        "factor a 1 0.5 0.5 1\n"
        "factor b 1 0.7 0.7 1\n"
        "factor c 1 0.9 0.9 1\n"
    )
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "pfaffian")
    assert code == 0
    got = float(_value(out, "log_z"))
    code, out, _ = _run(capsys, "oracle", "--model", str(model), "--exact")
    want = float(_value(out, "log_z"))
    assert got == pytest.approx(want, rel=1e-10)


def _wheel(hub_table):
    # planar wheel W4 in normal form: hub h of degree 4, rim r0..r3 of degree 3
    rng = np.random.default_rng(5)
    edges = [f"edge h r{i}\n" for i in range(4)] + [f"edge r{i} r{(i + 1) % 4}\n" for i in range(4)]
    factors = ["factor h " + " ".join(map(str, hub_table)) + "\n"]
    factors += [f"factor r{i} " + " ".join(map(str, rng.uniform(0.5, 2.0, 8))) + "\n" for i in range(4)]
    return "forney 5\n" + "".join(edges + factors)


def test_forney_model_of_degree_four(tmp_path, capsys):
    # an equality-like degree-4 hub is split like factor-graph input is
    model = tmp_path / "w4.txt"
    model.write_text(_wheel([2.0] + [0.0] * 14 + [1.0]))
    code, out, _ = _run(capsys, "oracle", "--model", str(model), "--exact")
    assert code == 0
    want = float(_value(out, "log_z"))
    for method in ("pfaffian", "z_empty"):
        code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", method)
        assert code == 0, method
        if method == "pfaffian":
            assert float(_value(out, "log_z")) == pytest.approx(want, rel=1e-10)
    code, out, _ = _run(capsys, "oracle", "--model", str(model), "--loops")
    assert code == 0
    assert float(_value(out, "log_z")) == pytest.approx(want, rel=1e-10)
    # a general hub table cannot be split; BP and the exact oracle still run
    model.write_text(_wheel(np.linspace(0.5, 2.0, 16)))
    for argv in (("solve", "--method", "bp"), ("oracle", "--exact")):
        code, out, _ = _run(capsys, *argv, "--model", str(model))
        assert code == 0, argv
        assert math.isfinite(float(_value(out, "log_z")))


def test_solve_exact_method(tmp_path, capsys):
    model = tmp_path / "m.txt"
    _run(capsys, "gen", "--grid", "3", "--beta", "0.5", "--out", str(model))
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "exact")
    assert code == 0
    assert float(_value(out, "log_z")) > 0


def test_run_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "generator = grid\nsizes = 3\nbetas = 1\nthetas = 0.1\n"
        "seeds = 0\nmethods = bp z_empty\n"
    )
    out_csv = tmp_path / "r.csv"
    code, _, _ = _run(capsys, "run", "--config", str(cfg), "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("row,instance")
    assert len(lines) == 1 + 2 + 4  # header, 2 data rows, 4 summary rows


def test_missing_model_file_errors(capsys):
    code, _, err = _run(capsys, "solve", "--model", "/nonexistent/x.txt")
    assert code == 1
    assert "error:" in err


def test_bad_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("generator = grid\nsizes = 3\nbetas = 1\nwhat = 7\n")
    code, _, err = _run(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in err


def test_out_of_range_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("generator = grid\nsizes = 3\nbetas = 1\nthreshold = 0\nmax_psi = -1\n")
    out_csv = tmp_path / "r.csv"
    code, _, err = _run(capsys, "run", "--config", str(cfg), "--out", str(out_csv))
    assert code == 1
    assert "error: config key" in err
    assert not out_csv.exists()


def test_schedule_flag(tmp_path, capsys):
    model = tmp_path / "m.txt"
    _run(capsys, "gen", "--grid", "3", "--beta", "1", "--out", str(model))
    code, out, _ = _run(
        capsys, "solve", "--model", str(model), "--method", "bp", "--schedule", "residual"
    )
    assert code == 0
    assert math.isfinite(float(_value(out, "log_z")))


def test_non_planar_model_errors(tmp_path, capsys):
    # K3,3 as a Forney model: every node has degree 3, and BP runs before
    # the embedding finds it non-planar
    model = tmp_path / "k33.txt"
    edges = "".join(f"edge a{i} b{j}\n" for i in range(3) for j in range(3))
    factors = "".join(f"factor {v}{i} 1 1 1 1 1 1 1 1\n" for v in "ab" for i in range(3))
    model.write_text("forney 6\n" + edges + factors)
    code, _, err = _run(capsys, "solve", "--model", str(model), "--method", "z_empty")
    assert code == 1
    assert "not planar" in err


def test_invalid_bp_option_errors(tmp_path, capsys):
    model = tmp_path / "m.txt"
    _run(capsys, "gen", "--grid", "3", "--beta", "1", "--out", str(model))
    code, _, err = _run(capsys, "solve", "--model", str(model), "--threshold", "0")
    assert code == 1
    assert "error: threshold must be positive" in err


def test_negative_max_psi_errors(tmp_path, capsys):
    model = tmp_path / "m.txt"
    _run(capsys, "gen", "--grid", "3", "--beta", "1", "--out", str(model))
    code, _, err = _run(
        capsys, "solve", "--model", str(model), "--method", "pfaffian", "--max-psi", "-1"
    )
    assert code == 1
    assert "max_psi_size must be non-negative" in err
