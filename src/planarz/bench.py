"""Instance generators, solve drivers, and the experiment runner.

Generators draw couplings with a counter-based RNG keyed on (seed, stream)
so instances are reproducible across runs and platforms. Drivers compose
the pipeline (two-core, BP, correction) into flat result rows; the runner
sweeps a config over sizes, temperatures, and seeds and emits CSV.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import statistics
import time

import numpy as np

from .bp import run_bp
from .model import (
    FactorGraph,
    ForneyGraph,
    ModelError,
    ModelParams,
    _is_equality_like,
    exact_log_z,
    exact_log_z_factor,
    factor_to_forney,
    reduce_degree,
    two_core,
)
from .series import loop_correction, pfaffian_series, z_empty
from .slog import SignedLog

METHODS = ("bp", "z_empty", "pfaffian", "exact", "loop_oracle")

CSV_COLUMNS = (
    "row",
    "instance",
    "generator",
    "size",
    "beta",
    "theta",
    "seed",
    "method",
    "logz_est",
    "logz_exact",
    "error",
    "bp_iterations",
    "converged",
    "wall_ms",
    "note",
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence([seed, stream])))


def normal_draws(gen: np.random.Generator, count: int, std: float) -> np.ndarray:
    """std * N(0,1) samples via inverse CDF of explicitly generated uniforms.

    Uniforms come from the top 53 bits of raw 64-bit words, offset half a
    step so 0 and 1 are unreachable. Draw positions depend only on order,
    never on std, so a zero std consumes the same words as any other.
    """
    raw = gen.integers(0, 1 << 64, size=count, dtype=np.uint64, endpoint=False)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    nd = statistics.NormalDist()
    return np.array([nd.inv_cdf(x) for x in u]) * std


def _pair_table(j: float) -> np.ndarray:
    # agreement states get e^J, disagreement e^-J
    return np.array([math.exp(j), math.exp(-j), math.exp(-j), math.exp(j)])


def _field_table(h: float) -> np.ndarray:
    return np.array([math.exp(-h), math.exp(h)])


def _draw_factors(variables, pairs, params: ModelParams, field_id) -> FactorGraph:
    """Pair factors with couplings N(0, beta/2), in the order of pairs, then
    for theta > 0 one field N(0, beta*theta) per variable, in the order of
    variables, named field_id(variable). Draws follow that order. A draw
    whose table exp cannot represent raises ModelError naming the factor."""
    gen = _rng(params.seed, 0)
    js = normal_draws(gen, len(pairs), math.sqrt(params.beta / 2.0))
    draws = [(fid, scope, _pair_table, j) for (fid, scope), j in zip(pairs, js)]
    if params.theta > 0:
        hs = normal_draws(gen, len(variables), math.sqrt(params.beta * params.theta))
        draws += [(field_id(v), (v,), _field_table, h) for v, h in zip(variables, hs)]
    factors = []
    for fid, scope, table, x in draws:
        try:
            factors.append((fid, scope, table(abs(x) if params.attractive else x)))
        except OverflowError:
            raise ModelError(
                f"table of {fid!r} overflows: exp(±{abs(x):.6g}) is out of range"
            ) from None
    return FactorGraph(variables, factors)


def grid_factor_graph(n: int, params: ModelParams) -> FactorGraph:
    """n x n nearest-neighbor model, pair couplings N(0, beta/2).

    Fields N(0, beta*theta) are attached only when theta > 0. Factors are
    created row-major, right neighbor before down neighbor, and draws are
    consumed in creation order (pairs first, then fields).
    """
    if n < 2:
        raise ModelError("grid needs n >= 2")
    variables = [f"x{r}_{c}" for r in range(n) for c in range(n)]
    pairs = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                pairs.append((f"J{r}_{c}_h", (f"x{r}_{c}", f"x{r}_{c + 1}")))
            if r + 1 < n:
                pairs.append((f"J{r}_{c}_v", (f"x{r}_{c}", f"x{r + 1}_{c}")))
    return _draw_factors(variables, pairs, params, lambda v: f"h{v[1:]}")


def spiderweb_factor_graph(rings: int, spokes: int, params: ModelParams) -> FactorGraph:
    """Hub joined to concentric rings; rings=1, spokes=3 is the complete K4.

    Pair factors: hub spokes first, then per ring its cycle edges then the
    radial links outward. Fields (theta > 0) follow, hub before ring
    vertices. Draw order matches creation order.
    """
    if rings < 1 or spokes < 3:
        raise ModelError("spiderweb needs rings >= 1 and spokes >= 3")
    variables = ["hub"] + [f"r{r}_{k}" for r in range(1, rings + 1) for k in range(spokes)]
    pairs = [(f"s{k}", ("hub", f"r1_{k}")) for k in range(spokes)]
    for r in range(1, rings + 1):
        for k in range(spokes):
            pairs.append((f"R{r}_{k}", (f"r{r}_{k}", f"r{r}_{(k + 1) % spokes}")))
        if r < rings:
            for k in range(spokes):
                pairs.append((f"m{r}_{k}", (f"r{r}_{k}", f"r{r + 1}_{k}")))
    return _draw_factors(variables, pairs, params, lambda v: f"h_{v}")


def gen_grid(n: int, params: ModelParams) -> tuple[FactorGraph, ForneyGraph]:
    fg = grid_factor_graph(n, params)
    return fg, _normal_form(fg)


def gen_spiderweb(rings: int, spokes: int, params: ModelParams) -> tuple[FactorGraph, ForneyGraph]:
    fg = spiderweb_factor_graph(rings, spokes, params)
    return fg, _normal_form(fg)


def error_metric(log_est: float, log_exact: float) -> float:
    """Relative log-partition error; nan when the reference log is zero."""
    if log_exact == 0.0:
        return float("nan")
    return abs(log_est - log_exact) / abs(log_exact)


def solve_forney(
    model: FactorGraph | ForneyGraph,
    method: str = "z_empty",
    max_psi_size: int | None = None,
    max_iterations: int = 10000,
) -> dict:
    """Run one estimator on a model as read and return a flat result dict.

    Keys: log_z (None when the estimate is undefined), bp_iterations,
    converged, note. Every method rejects a max_iterations below 1 and a
    negative max_psi_size with a ModelError, before it runs, whether it
    uses them or not. exact eliminates the variables of the model as given:
    a factor graph through its factor-level oracle, a normal-form graph
    through its edge variables; one whose buckets would outgrow
    model.MAX_BUCKET raises model.BucketCapError, a ModelError, and so
    does a loop_oracle whose two-core's does. Every other method runs on
    the reduced normal form (see _normal_form). BP runs once, on its
    two-core; a run that does not converge within max_iterations sweeps
    notes bp-not-converged and the estimate still comes from its final
    messages. The two-core constant
    from dangling-tree absorption is folded back into every estimate.
    """
    if method not in METHODS:
        raise ModelError(f"unknown method {method!r}")
    if max_iterations < 1:
        raise ModelError("max_iterations must be at least 1")
    if max_psi_size is not None and max_psi_size < 0:
        raise ModelError(f"max_psi_size must be non-negative, got {max_psi_size!r}")
    if method == "exact":
        if isinstance(model, FactorGraph):
            log_z = exact_log_z_factor(model)
        else:
            log_z = exact_log_z(model)
        return {"log_z": log_z, "bp_iterations": 0, "converged": True, "note": ""}

    core, log_const = two_core(_normal_form(model))
    res = run_bp(core, max_iterations=max_iterations)
    out = {
        "log_z": None,
        "bp_iterations": res.iterations,
        "converged": res.converged,
        "note": "" if res.converged else "bp-not-converged",
    }
    base = log_const + res.log_z_bp
    if method == "bp":
        out["log_z"] = base
        return out
    if method == "z_empty":
        corr = z_empty(core, res)
    elif method == "pfaffian":
        series = pfaffian_series(core, res, max_psi_size=max_psi_size)
        corr = series.z_total
        if not series.complete:
            out["note"] = _join_note(out["note"], f"series-truncated-{len(series.terms)}-terms")
    else:  # loop_oracle
        total, count = loop_correction(core, res)
        corr = SignedLog.from_float(total)
        out["note"] = _join_note(out["note"], f"loops-{count}")
    if corr.sign <= 0:
        out["note"] = _join_note(out["note"], "nonpositive-correction")
        return out
    out["log_z"] = base + corr.log_magnitude
    return out


def _normal_form(model: FactorGraph | ForneyGraph) -> ForneyGraph:
    """The model as a normal-form graph with every node of degree above
    three split. A graph with a node above degree three whose table is not
    equality-like cannot be split and is kept as given, which bp still runs
    on; any other error of reduce_degree propagates."""
    g = factor_to_forney(model) if isinstance(model, FactorGraph) else model
    if any(g.degree(a) > 3 and not _is_equality_like(g.tables[a]) for a in g.nodes):
        return g
    return reduce_degree(g)


def _join_note(a: str, b: str) -> str:
    return f"{a};{b}" if a else b


_DEFAULTS = {
    "generator": None,
    "sizes": None,
    "betas": None,
    "thetas": "0",
    "seeds": "0",
    "methods": "z_empty",
    "attractive": "false",
    "max_psi": "",
    "max_iterations": "10000",
}


def parse_config(text: str) -> dict:
    """key = value lines; '#' comments; lists are space separated.

    seeds are non-negative and accept ranges like 0..24 (inclusive), whose
    end may not be below their start. sizes are ints of at least 2 for
    grid and rings:spokes pairs, rings >= 1 and spokes >= 3, for
    spiderweb; betas and thetas are finite and non-negative. sizes, betas,
    thetas, seeds and methods may not be empty: a sweep that computes
    nothing is an error. Every value is checked here, before any instance
    is built.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"config line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ModelError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ModelError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    for key, default in _DEFAULTS.items():
        if key not in raw:
            if default is None:
                raise ModelError(f"config missing required key {key!r}")
            raw[key] = default

    cfg = {"generator": raw["generator"]}
    if cfg["generator"] not in ("grid", "spiderweb"):
        raise ModelError(f"unknown generator {raw['generator']!r}")
    if cfg["generator"] == "grid":
        cfg["sizes"] = [_number("sizes", s, int) for s in raw["sizes"].split()]
    else:
        sizes = []
        for s in raw["sizes"].split():
            r, _, d = s.partition(":")
            if not d:
                raise ModelError(f"spiderweb size must be rings:spokes, got {s!r}")
            sizes.append((_number("sizes", r, int), _number("sizes", d, int)))
        cfg["sizes"] = sizes
    cfg["betas"] = [_number("betas", s) for s in raw["betas"].split()]
    cfg["thetas"] = [_number("thetas", s) for s in raw["thetas"].split()]
    cfg["seeds"] = _parse_seeds(raw["seeds"])
    cfg["methods"] = raw["methods"].split()
    for m in cfg["methods"]:
        if m not in METHODS:
            raise ModelError(f"unknown method {m!r}")
    cfg["attractive"] = _parse_bool(raw["attractive"])
    cfg["max_psi"] = _number("max_psi", raw["max_psi"], int) if raw["max_psi"] else None
    cfg["max_iterations"] = _number("max_iterations", raw["max_iterations"], int)
    for key in ("sizes", "betas", "thetas", "methods"):
        _require(key, bool(cfg[key]), "a non-empty list")
    for key in ("betas", "thetas"):
        _require(key, all(math.isfinite(x) for x in cfg[key]), "finite")
        _require(key, min(cfg[key]) >= 0, "non-negative")
    if cfg["generator"] == "grid":
        _require("sizes", min(cfg["sizes"]) >= 2, "at least 2 for grid")
    else:
        _require("sizes", all(r >= 1 and d >= 3 for r, d in cfg["sizes"]), "rings >= 1 and spokes >= 3 for spiderweb")
    _require("max_psi", cfg["max_psi"] is None or cfg["max_psi"] >= 0, "non-negative")
    _require("max_iterations", cfg["max_iterations"] >= 1, "at least 1")
    return cfg


def _number(key: str, text: str, kind=float):
    """text as kind (int or float), or a ModelError that names the config key."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ModelError(f"config key {key!r}: {text!r} is not {what}") from None


def _require(key: str, ok: bool, what: str) -> None:
    """A ModelError naming the config key unless its value is ok."""
    if not ok:
        raise ModelError(f"config key {key!r} must be {what}")


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for tok in text.split():
        if ".." in tok:
            lo, hi = (_number("seeds", x, int) for x in tok.split("..", 1))
            if hi < lo:
                raise ModelError(f"config key 'seeds': range {tok!r} ends below its start")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(_number("seeds", tok, int))
    _require("seeds", bool(seeds), "a non-empty list")
    _require("seeds", min(seeds) >= 0, "non-negative")
    return seeds


def _parse_bool(text: str) -> bool:
    t = text.lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ModelError(f"expected a boolean, got {text!r}")


def _instance(cfg: dict, size, beta: float, theta: float, seed: int):
    params = ModelParams(beta=beta, theta=theta, attractive=cfg["attractive"], seed=seed)
    if cfg["generator"] == "grid":
        return grid_factor_graph(size, params), str(size)
    return spiderweb_factor_graph(size[0], size[1], params), f"{size[0]}:{size[1]}"


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "" if math.isnan(v) else f"{v:.17g}"
    return str(v)


def run_experiment(cfg: dict) -> list[dict]:
    """Sweep the config grid and return data rows plus per-cell summaries.

    Cells iterate in (size, beta, theta) product order with seeds inside;
    each instance produces one row per method, every method solving the
    instance's factor graph. logz_exact comes from the factor-graph oracle
    when its elimination fits under the bucket cap (see _exact_row), and an
    exact row's wall_ms is the time of that elimination.
    """
    rows = []
    for size, beta, theta in itertools.product(cfg["sizes"], cfg["betas"], cfg["thetas"]):
        cell_rows = {m: [] for m in cfg["methods"]}
        label = None
        for seed in cfg["seeds"]:
            fg, label = _instance(cfg, size, beta, theta, seed)
            exact, exact_ms = _exact_row(fg)
            log_exact = exact["log_z"]
            for method in cfg["methods"]:
                note = ""
                if method == "exact":
                    r, wall_ms = exact, exact_ms
                else:
                    t0 = time.perf_counter()
                    try:
                        r = solve_forney(
                            fg,
                            method=method,
                            max_psi_size=cfg["max_psi"],
                            max_iterations=cfg["max_iterations"],
                        )
                    except (ValueError, RuntimeError) as exc:
                        r = {"log_z": None, "bp_iterations": 0, "converged": False, "note": ""}
                        note = f"failed:{type(exc).__name__}"
                    wall_ms = (time.perf_counter() - t0) * 1000.0
                note = _join_note(r["note"], note) if note else r["note"]
                err = None
                if r["log_z"] is not None and log_exact is not None:
                    err = error_metric(r["log_z"], log_exact)
                row = {
                    "row": "data",
                    "instance": f"{cfg['generator']}{label}_b{beta:g}_t{theta:g}_s{seed}",
                    "generator": cfg["generator"],
                    "size": label,
                    "beta": f"{beta:g}",
                    "theta": f"{theta:g}",
                    "seed": seed,
                    "method": method,
                    "logz_est": r["log_z"],
                    "logz_exact": log_exact,
                    "error": err,
                    "bp_iterations": r["bp_iterations"],
                    "converged": r["converged"],
                    "wall_ms": wall_ms,
                    "note": note,
                }
                rows.append(row)
                cell_rows[method].append(row)
        for method in cfg["methods"]:
            errs = [
                r["error"]
                for r in cell_rows[method]
                if r["error"] is not None and not math.isnan(r["error"])
            ]
            for stat, fn in (("mean", statistics.fmean), ("median", statistics.median)):
                rows.append(
                    {
                        **dict.fromkeys(CSV_COLUMNS),
                        "row": stat,
                        "instance": f"{cfg['generator']}{label}_b{beta:g}_t{theta:g}",
                        "generator": cfg["generator"],
                        "size": label,
                        "beta": f"{beta:g}",
                        "theta": f"{theta:g}",
                        "method": method,
                        "error": fn(errs) if errs else None,
                        "note": f"over-{len(errs)}-rows",
                    }
                )
    return rows


def _exact_row(fg: FactorGraph) -> tuple[dict, float | None]:
    """The exact method's result on fg and the milliseconds its elimination
    took; a model the elimination refuses, one whose buckets would outgrow
    MAX_BUCKET, notes exact-unavailable and has no time."""
    t0 = time.perf_counter()
    try:
        r = solve_forney(fg, method="exact")
    except ModelError:
        return {"log_z": None, "bp_iterations": 0, "converged": True, "note": "exact-unavailable"}, None
    return r, (time.perf_counter() - t0) * 1000.0


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for row in rows:
        w.writerow([_fmt_cell(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()
