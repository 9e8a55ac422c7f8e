"""Command line round trips and exit codes."""

import csv
import importlib
import math

import numpy as np
import pytest

from planarz import bench
from planarz.bp import BPNumericError
from planarz.cli import main
from planarz.io import read_model
from planarz.slog import SignedLog

model_module = importlib.import_module("planarz.model")


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
    # a 2x2 grid through z_empty and both reference methods
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

    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "exact")
    assert code == 0
    exact = float(_value(out, "log_z"))
    assert abs(est - exact) / abs(exact) < 1e-3

    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "loop_oracle")
    assert code == 0
    loop_est = float(_value(out, "log_z"))
    assert abs(loop_est - est) < 1e-6


def test_loop_oracle_matches_exact_on_a_grid(tmp_path, capsys):
    # BP times the loop sum over the 5x5 grid's two-core, 110 edges and
    # 238,281,249 generalized loops, is the exact log Z
    model = tmp_path / "g5.txt"
    _run(capsys, "gen", "--grid", "5", "--beta", "1", "--theta", "1", "--out", str(model))
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "loop_oracle")
    assert code == 0
    assert _value(out, "note") == "loops-238281249"
    loops = float(_value(out, "log_z"))
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "exact")
    assert code == 0
    exact = float(_value(out, "log_z"))
    assert abs(loops - exact) <= 1e-9 * abs(exact)


def test_gen_to_stdout(capsys):
    code, out, _ = _run(capsys, "gen", "--spiderweb", "1", "3", "--beta", "0.5")
    assert code == 0
    assert out.startswith("factorgraph 4")


_CYCLE = (
    "forney 3\n"
    "edge a b\nedge b c\nedge c a\n"
    "factor a 1 0.5 0.5 1\n"
    "factor b 1 0.7 0.7 1\n"
    "factor c 1 0.9 0.9 1\n"
)


def test_solve_forney_model(tmp_path, capsys):
    model = tmp_path / "f.txt"
    model.write_text(_CYCLE)
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "pfaffian")
    assert code == 0
    got = float(_value(out, "log_z"))
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "exact")
    want = float(_value(out, "log_z"))
    assert got == pytest.approx(want, rel=1e-10)


def test_unnormalizable_messages_exit_two(tmp_path, capsys):
    # a table at the top of the float range overflows BP's first message sum
    model = tmp_path / "big.txt"
    model.write_text(
        "forney 3\n"
        "edge a b\nedge b c\nedge c a\n"
        "factor a 1e308 1e308 1e308 1e308\n"
        "factor b 1 0.7 0.7 1\n"
        "factor c 1 0.9 0.9 1\n"
    )
    for method in ("bp", "z_empty"):
        code, out, err = _run(capsys, "solve", "--model", str(model), "--method", method)
        assert code == 2, method
        assert out == ""
        assert err.startswith("error: message 'a'->'b' is not normalizable"), err


_SUMMED_OVERFLOW = (
    "factorgraph 3\n"
    "var x\nvar y\nvar z\n"
    "factor f x y 1e308 1e308 1e308 1e308\n"
    "factor g x z 1 2 3 4\n"
    "factor h z x 1 1 1 1\n"
)
_ABSORBED_UNDERFLOW = (
    "forney 4\n"
    "edge a b\nedge b c\nedge b d\nedge c d\n"
    "factor a 1e-200 1e-200\n"
    "factor b" + " 1e-200" * 8 + "\n"
    "factor c 1 2 3 4\n"
    "factor d 1 2 3 4\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        (_SUMMED_OVERFLOW, "table of 'f' has non-finite entries"),
        (_ABSORBED_UNDERFLOW, "table of 'b' is identically zero"),
    ],
    ids=["summed-overflow", "absorbed-underflow"],
)
def test_computed_table_faults_exit_one(tmp_path, capsys, text, message):
    # a table the conversion computes leaves the float range: one error
    # line and exit 1, with no RuntimeWarning before it
    model = tmp_path / "m.txt"
    model.write_text(text)
    code, out, err = _run(capsys, "solve", "--model", str(model), "--method", "z_empty")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


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
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "exact")
    assert code == 0
    want = float(_value(out, "log_z"))
    for method in ("pfaffian", "z_empty"):
        code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", method)
        assert code == 0, method
        if method == "pfaffian":
            assert float(_value(out, "log_z")) == pytest.approx(want, rel=1e-10)
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "loop_oracle")
    assert code == 0
    assert float(_value(out, "log_z")) == pytest.approx(want, rel=1e-10)
    # a general hub table cannot be split; BP and the exact oracle still run
    model.write_text(_wheel(np.linspace(0.5, 2.0, 16)))
    for argv in (("solve", "--method", "bp"), ("solve", "--method", "exact")):
        code, out, _ = _run(capsys, *argv, "--model", str(model))
        assert code == 0, argv
        assert math.isfinite(float(_value(out, "log_z")))


def test_unsplittable_factor_runs_bp(tmp_path, capsys):
    # a general table over four variables cannot be split, in a factor-graph
    # file as in a Forney one: bp and exact run on it, the series names it
    model = tmp_path / "fg4.txt"
    rng = np.random.default_rng(1)
    lines = ["factorgraph 4"] + [f"var x{i}" for i in range(4)]
    lines.append("factor F x0 x1 x2 x3 " + " ".join(map(str, rng.uniform(0.5, 2.0, 16))))
    for i in range(4):
        table = " ".join(map(str, rng.uniform(0.5, 2.0, 4)))
        lines.append(f"factor J{i} x{i} x{(i + 1) % 4} {table}")
    model.write_text("\n".join(lines) + "\n")
    for method in ("bp", "exact"):
        code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", method)
        assert code == 0, method
        assert math.isfinite(float(_value(out, "log_z")))
    code, _, err = _run(capsys, "solve", "--model", str(model), "--method", "z_empty")
    assert code == 1
    assert "reduced graph" in err


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


def test_run_reports_exact_up_to_the_bucket_cap(tmp_path, capsys):
    # a 6x6 grid, 36 variables, has its exact log Z; a 24x24 grid's buckets
    # would outgrow the cap, so its row notes exact-unavailable and the
    # sweep exits 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("generator = grid\nsizes = 6 24\nbetas = 1\nthetas = 1\nseeds = 0\nmethods = exact\n")
    code, out, _ = _run(capsys, "run", "--config", str(cfg))
    assert code == 2
    rows = {r["size"]: r for r in csv.DictReader(out.splitlines()) if r["row"] == "data"}
    assert float(rows["6"]["logz_exact"]) == float(rows["6"]["logz_est"])
    assert rows["6"]["note"] == ""
    assert rows["24"]["logz_exact"] == "" and rows["24"]["note"] == "exact-unavailable"


def test_solve_past_the_bucket_cap_exits_two(tmp_path, capsys, monkeypatch):
    # a reference the elimination refuses is unavailable, as run's
    # exact-unavailable row: exit 2 and its error line, for both methods
    model = tmp_path / "g4.txt"
    assert _run(capsys, "gen", "--grid", "4", "--beta", "1", "--theta", "1", "--out", str(model))[0] == 0
    monkeypatch.setattr(model_module, "MAX_BUCKET", 4)
    for method in ("exact", "loop_oracle"):
        code, out, err = _run(capsys, "solve", "--model", str(model), "--method", method)
        assert code == 2, method
        assert out == ""
        assert err.startswith("error: exact elimination needs a bucket of ") and err.endswith(", capped at 4\n"), err


def test_missing_model_file_errors(capsys):
    code, _, err = _run(capsys, "solve", "--model", "/nonexistent/x.txt")
    assert code == 1
    assert "error:" in err


def test_overflowing_gen_errors(capsys):
    code, out, err = _run(capsys, "gen", "--grid", "2", "--beta", "1e7")
    assert code == 1
    assert out == ""
    assert err.startswith("error: table of 'J0_0_h' overflows")


def test_bad_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("generator = grid\nsizes = 3\nbetas = 1\nwhat = 7\n")
    code, _, err = _run(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in err


def test_out_of_range_config_errors(tmp_path, capsys):
    # a sweep with no method, or a reversed seed range, computes nothing:
    # an error too, not a CSV that holds only its header; a negative seed,
    # a size its generator rejects and a negative beta or theta are named
    # before any instance is built, so no earlier cell is solved first
    grid = {"generator": "grid", "sizes": "3", "betas": "1"}
    spiderweb = {"generator": "spiderweb", "sizes": "1:4", "betas": "1"}
    lines = ["max_psi = -1", "methods =", "seeds = 0 4..2", "seeds = -2"]
    lines += ["sizes = 3 1", "betas = 1 -1", "thetas = -0.5"]
    cases = [(grid, line) for line in lines] + [(spiderweb, "sizes = 1:4 0:3"), (spiderweb, "sizes = 1:4 1:2")]
    for base, line in cases:
        key = line.split()[0]
        cfg = tmp_path / "bad.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items() if k != key) + line + "\n")
        out_csv = tmp_path / "r.csv"
        code, out, err = _run(capsys, "run", "--config", str(cfg), "--out", str(out_csv))
        assert code == 1 and out == ""
        assert f"error: config key {key!r}" in err
        assert not out_csv.exists()


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
    code, _, err = _run(capsys, "solve", "--model", str(model), "--max-iterations", "0")
    assert code == 1
    assert "error: max_iterations must be at least 1" in err


def test_usage_errors_exit_one(tmp_path, capsys):
    # exit 2 means an unavailable estimate, so argparse's usage errors take 1;
    # BP's threshold is a constant, and setting it is one of them
    model = tmp_path / "m.txt"
    _run(capsys, "gen", "--grid", "3", "--beta", "1", "--out", str(model))
    for extra in (("--threshold", "1e-3"), ("--method", "nope")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", str(model), *extra])
        assert exc.value.code == 1, extra
        assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_exact_record_is_the_same_for_both_file_kinds(tmp_path, capsys):
    grid = tmp_path / "g.txt"
    _run(
        capsys,
        "gen", "--grid", "2", "--beta", "1", "--theta", "0.1",
        "--seed", "3", "--out", str(grid),
    )
    cycle = tmp_path / "f.txt"
    cycle.write_text(_CYCLE)
    records = []
    for model in (grid, cycle):
        code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "exact")
        assert code == 0
        records.append([line.split(" ", 1) for line in out.splitlines()])
    assert [k for k, _ in records[0]] == [k for k, _ in records[1]]
    assert [k for k, _ in records[0]] == ["method", "log_z", "bp_iterations", "converged", "note"]
    assert records[0][3:] == [["converged", "true"], ["note", "-"]]


def test_negative_max_psi_errors(tmp_path, capsys):
    model = tmp_path / "m.txt"
    _run(capsys, "gen", "--grid", "3", "--beta", "1", "--out", str(model))
    code, _, err = _run(
        capsys, "solve", "--model", str(model), "--method", "pfaffian", "--max-psi", "-1"
    )
    assert code == 1
    assert "max_psi_size must be non-negative" in err


def test_gen_names_a_non_finite_parameter(capsys):
    # the parameter, not the first table it makes non-finite
    for name, args in (("beta", ("--beta", "nan")), ("theta", ("--beta", "1", "--theta", "nan"))):
        code, _, err = _run(capsys, "gen", "--grid", "3", *args)
        assert code == 1
        assert f"error: {name} must be finite, got nan" in err


def test_every_method_rejects_invalid_options(tmp_path, capsys):
    # an option is checked before the method runs, whether it uses it or not
    model = tmp_path / "g.txt"
    _run(
        capsys,
        "gen", "--grid", "2", "--beta", "1", "--theta", "0.1",
        "--seed", "3", "--out", str(model),
    )
    for method, option, value in (
        ("exact", "--max-iterations", "0"),
        ("z_empty", "--max-psi", "-1"),
        ("bp", "--max-psi", "-1"),
        ("exact", "--max-psi", "-5"),
    ):
        code, out, err = _run(
            capsys, "solve", "--model", str(model), "--method", method, option, value
        )
        assert code == 1, (method, option)
        assert out == ""
        assert err.startswith("error:"), err


# node a has degree 4 and an equality table, and its first chain node
# would be named a_s0, which the model already uses
_COLLISION = (
    "forney 5\n"
    "edge a b\nedge a c\nedge a d\nedge a a_s0\n"
    "edge b c\nedge c d\nedge d a_s0\nedge a_s0 b\n"
    "factor a 2" + " 0" * 14 + " 1\n"
    + "".join(f"factor {v} 1 0.5 0.7 1 1 0.9 0.6 1\n" for v in ("b", "c", "d", "a_s0"))
)


def test_chain_name_collision_is_an_error(tmp_path, capsys):
    # only a table that cannot be split keeps the graph as given
    model = tmp_path / "collide.txt"
    model.write_text(_COLLISION)
    for method in ("bp", "z_empty"):
        code, out, err = _run(capsys, "solve", "--model", str(model), "--method", method)
        assert code == 1, method
        assert out == ""
        assert "generated chain id 'a_s0' collides with an existing node" in err


def test_nonpositive_correction_exits_two(tmp_path, capsys, monkeypatch):
    model = tmp_path / "f.txt"
    model.write_text(_CYCLE)
    monkeypatch.setattr(bench, "z_empty", lambda g, res: SignedLog(-1, 0.0))
    r = bench.solve_forney(read_model(str(model)), method="z_empty")
    assert r["log_z"] is None
    assert r["note"] == "nonpositive-correction"
    code, out, _ = _run(capsys, "solve", "--model", str(model), "--method", "z_empty")
    assert code == 2
    assert _value(out, "log_z") == "unavailable"
    assert _value(out, "note") == "nonpositive-correction"


def test_failed_solve_is_a_row_and_run_exits_two(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise BPNumericError("messages left the representable range")

    monkeypatch.setattr(bench, "run_bp", fail)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "generator = grid\nsizes = 2\nbetas = 1\nthetas = 0.1\nseeds = 0\nmethods = bp exact\n"
    )
    out_csv = tmp_path / "r.csv"
    code, _, _ = _run(capsys, "run", "--config", str(cfg), "--out", str(out_csv))
    assert code == 2
    rows = {
        r["method"]: r
        for r in csv.DictReader(out_csv.read_text().splitlines())
        if r["row"] == "data"
    }
    assert rows["bp"]["logz_est"] == ""
    assert rows["bp"]["note"] == "failed:BPNumericError"
    assert rows["exact"]["logz_est"] != ""
