"""Experiment runner: config ingestion, CSV emission, plot rendering, and the
split-comparison summary table."""
from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bounds_mod
from . import joint_sgld as joint_mod
from . import meta_sgld as meta_mod
from .core import DECAY_CONSTANT, ConfigurationError, RunConfig, Schedules
from .records import RunRecord, format_value, write_csv
from .task_env import EnvironmentSpec

OUTPUT_DIR_ENV_VAR = "METASGLD_OUTPUT_DIR"

MODE_ALTERNATE = "alternate"
MODE_JOINT = "joint"


@dataclass(frozen=True)
class Outputs:
    csv_path: str
    plot_path: Optional[str]
    eval_cadence: int

    def __post_init__(self):
        if self.eval_cadence < 1:
            raise ValueError("outputs.eval_cadence must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    env: EnvironmentSpec
    run: Optional[RunConfig]                 # alternate mode
    joint: Optional[joint_mod.JointConfig]   # joint mode
    outputs: Outputs
    name: str = "experiment"


class ConfigParseError(ValueError):
    pass


# --------------------------------------------------------------- schema

_ENV_KEYS = {"dim": True, "mean": True, "cov_scale": True, "trunc_lo": True,
             "trunc_hi": True, "task_cov_scale": True}
_EXPERIMENT_KEYS = {"mode": True, "name": False}
_OUTPUT_KEYS = {"csv": True, "plot": False, "eval_cadence": False}
# beta and the gammas belong to alternate mode only; joint mode rejects them
_SCHEDULE_KEYS = {"eta": False, "decay_rule": False, "decay_c": False,
                  "decay_rate": False, "decay_period": False}
_ALT_RUN_KEYS = {**_SCHEDULE_KEYS,
                 "n": True, "m": True, "m_tr": True, "m_va": True,
                 "task_batch": True, "T": True, "K": True, "seed": True,
                 "eta": True, "beta": True, "gamma_outer": True,
                 "gamma_inner": True,
                 "mc_replicas": False, "test_adapt_steps": False,
                 "inner_batch": False, "noise": False, "init_u": False}
_JOINT_RUN_KEYS = {**_SCHEDULE_KEYS,
                   "n": True, "m": True, "T": True, "seed": True,
                   "coupling": False, "sigma_rule": False, "sigma0": False,
                   "fixed_l": False}


def _check_section(cp: configparser.ConfigParser, section: str,
                   schema: Dict[str, bool]) -> None:
    if not cp.has_section(section):
        required = ", ".join(f"{section}.{k}" for k, req in schema.items() if req)
        raise ConfigParseError(f"missing section [{section}] (required keys: {required})")
    present = set(cp.options(section))
    unknown = sorted(present - set(schema))
    if unknown:
        raise ConfigParseError(
            f"unknown keys in [{section}]: " + ", ".join(f"{section}.{k}" for k in unknown))
    missing = sorted(k for k, req in schema.items() if req and k not in present)
    if missing:
        raise ConfigParseError(
            "missing required keys: " + ", ".join(f"{section}.{k}" for k in missing))


def _get(cp, section, key, conv, default=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigParseError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def _vector(raw: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector")
    return tuple(float(p) for p in parts)


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _gamma(raw: str) -> float:
    return math.inf if raw.strip().lower() in ("inf", "infinity") else float(raw)


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str          # keep key case (T vs t)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc

    _check_section(cp, "experiment", _EXPERIMENT_KEYS)
    mode = cp.get("experiment", "mode").strip().lower()
    if mode not in (MODE_ALTERNATE, MODE_JOINT):
        raise ConfigParseError(
            f"experiment.mode must be {MODE_ALTERNATE!r} or {MODE_JOINT!r}, got {mode!r}")
    name = _get(cp, "experiment", "name", str, "experiment")

    _check_section(cp, "env", _ENV_KEYS)
    dim = _get(cp, "env", "dim", int)
    try:
        env = EnvironmentSpec(
            env_mean=np.array(_get(cp, "env", "mean", _vector)),
            env_cov_scale=_get(cp, "env", "cov_scale", float),
            trunc_lo=np.array(_get(cp, "env", "trunc_lo", _vector)),
            trunc_hi=np.array(_get(cp, "env", "trunc_hi", _vector)),
            task_cov_scale=_get(cp, "env", "task_cov_scale", float),
            dim=dim)
    except ValueError as exc:
        raise ConfigParseError(f"invalid [env] section: {exc}") from exc

    _check_section(cp, "outputs", _OUTPUT_KEYS)
    try:
        outputs = Outputs(csv_path=cp.get("outputs", "csv").strip(),
                          plot_path=_get(cp, "outputs", "plot", str),
                          eval_cadence=_get(cp, "outputs", "eval_cadence", int, 20))
    except ValueError as exc:
        raise ConfigParseError(f"invalid [outputs] section: {exc}") from exc

    schema = _ALT_RUN_KEYS if mode == MODE_ALTERNATE else _JOINT_RUN_KEYS
    _check_section(cp, "run", schema)
    try:
        schedules = Schedules(
            eta0=_get(cp, "run", "eta", float, 1.0),
            beta0=_get(cp, "run", "beta", float, 1.0),
            gamma_outer=_get(cp, "run", "gamma_outer", _gamma, math.inf),
            gamma_inner=_get(cp, "run", "gamma_inner", _gamma, math.inf),
            decay_rule=_get(cp, "run", "decay_rule", str, DECAY_CONSTANT).strip(),
            decay_c=_get(cp, "run", "decay_c", float, 1.0),
            decay_rate=_get(cp, "run", "decay_rate", float, 0.96),
            decay_period=_get(cp, "run", "decay_period", float, 1.0))
    except ValueError as exc:
        raise ConfigParseError(f"invalid schedule in [run]: {exc}") from exc

    run_cfg = joint_cfg = None
    if mode == MODE_ALTERNATE:
        m = _get(cp, "run", "m", int)
        m_tr = _get(cp, "run", "m_tr", int)
        m_va = _get(cp, "run", "m_va", int)
        if m_tr + m_va != m:
            raise ConfigParseError(
                f"run.m_tr + run.m_va must equal run.m ({m_tr} + {m_va} != {m})")
        init_u = _get(cp, "run", "init_u", _vector)
        try:
            run_cfg = RunConfig(
                n=_get(cp, "run", "n", int), m=m, m_tr=m_tr, m_va=m_va,
                task_batch=_get(cp, "run", "task_batch", int),
                T=_get(cp, "run", "T", int), K=_get(cp, "run", "K", int),
                schedules=schedules, seed=_get(cp, "run", "seed", int),
                mc_replicas=_get(cp, "run", "mc_replicas", int, 10),
                test_adapt_steps=_get(cp, "run", "test_adapt_steps", int, 10),
                inner_batch=_get(cp, "run", "inner_batch", int, 0),
                noise=_get(cp, "run", "noise", _bool, True),
                init_u=init_u)
        except ValueError as exc:
            raise ConfigParseError(f"invalid [run] section: {exc}") from exc
    else:
        try:
            joint_cfg = joint_mod.JointConfig(
                n=_get(cp, "run", "n", int), m=_get(cp, "run", "m", int),
                T=_get(cp, "run", "T", int), schedules=schedules,
                seed=_get(cp, "run", "seed", int),
                coupling=_get(cp, "run", "coupling", float, 1.0),
                sigma_rule=_get(cp, "run", "sigma_rule", str,
                                joint_mod.SIGMA_SQRT_ETA).strip(),
                sigma0=_get(cp, "run", "sigma0", float, 0.0),
                fixed_l=_get(cp, "run", "fixed_l", float))
        except ValueError as exc:
            raise ConfigParseError(f"invalid [run] section: {exc}") from exc

    return ExperimentConfig(mode=mode, env=env, run=run_cfg, joint=joint_cfg,
                            outputs=outputs, name=name)


def load_config_file(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def preset_path(name: str) -> str:
    """Filesystem path of a shipped preset config (toy_8_8, toy_15_1, ...)."""
    ref = resources.files("metasgld").joinpath("configs", f"{name}.ini")
    if not ref.is_file():
        raise FileNotFoundError(f"no shipped preset named {name!r}")
    return str(ref)


# --------------------------------------------------------------- running

def _resolve_out(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV_VAR)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _provenance(cfg: ExperimentConfig) -> List[str]:
    lines = [f"mode = {cfg.mode}", f"name = {cfg.name}"]
    env = cfg.env
    lines += [f"env.dim = {env.dim}",
              f"env.mean = {tuple(env.env_mean)}",
              f"env.cov_scale = {env.env_cov_scale}",
              f"env.trunc_lo = {tuple(env.trunc_lo)}",
              f"env.trunc_hi = {tuple(env.trunc_hi)}",
              f"env.task_cov_scale = {env.task_cov_scale}"]
    rc = cfg.run if cfg.mode == MODE_ALTERNATE else cfg.joint
    for field_name, value in sorted(vars(rc).items()):
        lines.append(f"run.{field_name} = {value}")
    lines.append(f"outputs.eval_cadence = {cfg.outputs.eval_cadence}")
    return lines


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured trainer and stream per-epoch rows to CSV."""
    csv_path = _resolve_out(cfg.outputs.csv_path)
    plot_path = _resolve_out(cfg.outputs.plot_path)
    comments = _provenance(cfg)
    if cfg.mode == MODE_ALTERNATE:
        records, _ = meta_mod.run_meta_sgld(cfg.run, cfg.env,
                                            eval_cadence=cfg.outputs.eval_cadence)
        record_type = RunRecord
        default_series = ["bound_total", "gnorm_bound_total"]
    else:
        sg = bounds_mod.subgaussian_mean_estimation(cfg.env, 0.4)
        records = joint_mod.run_joint_sgld(cfg.joint, cfg.env, sigma_sg=sg.sigma)
        record_type = joint_mod.JointRecord
        default_series = ["joint_bound", "closed_form"]
    write_csv(records, csv_path, comments, record_type)
    if plot_path:
        render_plot(csv_path, default_series, plot_path)
    return 0


# --------------------------------------------------------------- plotting

def _read_table(csv_path: str) -> Tuple[List[str], Dict[str, List[Optional[float]]]]:
    with open(csv_path, newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(body))))
    if not rows:
        raise ValueError(f"{csv_path} has no header row")
    names = rows[0]
    cols: Dict[str, List[Optional[float]]] = {n: [] for n in names}
    for row in rows[1:]:
        for n, v in zip(names, row):
            cols[n].append(None if v == "" else float(v))
    return names, cols

_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def render_plot(csv_path: str, series: Sequence[str], out_path: str) -> int:
    """Render the named CSV columns as an SVG line chart, plus one two-column
    .dat text file per series next to the SVG."""
    if not series:
        raise ValueError("series list must be non-empty")
    names, cols = _read_table(csv_path)
    x_name = names[0]
    unknown = [s for s in series if s not in names]
    if unknown:
        raise ValueError(f"unknown columns {unknown}; available: {names}")

    points = {}
    for s in series:
        xy = [(x, y) for x, y in zip(cols[x_name], cols[s])
              if x is not None and y is not None]
        points[s] = xy
    all_pts = [p for xy in points.values() for p in xy]
    if not all_pts:
        raise ValueError("no plottable data points in the selected series")

    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    width, height, margin = 640, 420, 60

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" '
                     f'font-size="11" text-anchor="middle">{xv:.6g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(yv):.1f}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">{yv:.6g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">{x_name}</text>')

    for idx, s in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        xy = points[s]
        if len(xy) >= 2:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in xy)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in (xy if len(xy) < 2 else []):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = margin + 16 * idx
        parts.append(f'<line x1="{width - margin - 140}" y1="{ly}" '
                     f'x2="{width - margin - 116}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - margin - 110}" y="{ly + 4}" '
                     f'font-size="12">{s}</text>')
    parts.append("</svg>")

    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")

    stem, _ = os.path.splitext(out_path)
    for s in series:
        with open(f"{stem}_{s}.dat", "w") as fh:
            for x, y in points[s]:
                fh.write(f"{format_value(x)} {format_value(y)}\n")
    return 0


# --------------------------------------------------------------- comparison

def compare_splits(configs: Sequence[ExperimentConfig]) -> List[dict]:
    """Run each alternate-mode preset and summarize final-epoch table rows."""
    if len(configs) < 2:
        raise ValueError("need at least two presets to compare")
    ref = configs[0]
    for c in configs[1:]:
        if c.mode != MODE_ALTERNATE or ref.mode != MODE_ALTERNATE:
            raise ValueError("compare supports alternate-mode presets only")
        if c.run.T != ref.run.T:
            raise ValueError(
                f"presets must share T: {ref.name} has T={ref.run.T}, "
                f"{c.name} has T={c.run.T}")
        if (c.env.dim != ref.env.dim
                or not np.array_equal(c.env.env_mean, ref.env.env_mean)
                or c.env.env_cov_scale != ref.env.env_cov_scale
                or c.env.task_cov_scale != ref.env.task_cov_scale):
            raise ValueError(f"presets must share the environment ({c.name} differs)")
    rows = []
    for c in configs:
        records, _ = meta_mod.run_meta_sgld(c.run, c.env,
                                            eval_cadence=c.outputs.eval_cadence)
        last = records[-1]
        gaps = [r.gap for r in records if r.gap is not None]
        rows.append({
            "name": c.name,
            "split": f"{c.run.m_tr}/{c.run.m_va}",
            "train_test_gap": last.gap if last.gap is not None else float("nan"),
            "mean_abs_gap": float(np.mean(np.abs(gaps))) if gaps else float("nan"),
            "lipschitz": last.lipschitz,
            "g_norm": last.gnorm_bound_total,
            "g_inco": last.bound_total,
        })
    return rows


def _print_comparison(rows: List[dict], out=sys.stdout) -> None:
    headers = ["preset", "split", "Train-Test gap", "Lipschitz", "G_norm", "G_inco"]
    table = [[r["name"], r["split"], format_value(r["train_test_gap"]),
              format_value(r["lipschitz"]), format_value(r["g_norm"]),
              format_value(r["g_inco"])] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
    print(fmt(headers), file=out)
    print(fmt(["-" * w for w in widths]), file=out)
    for row in table:
        print(fmt(row), file=out)


# --------------------------------------------------------------- entry point

def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    from dataclasses import replace
    if getattr(args, "eval_cadence", None):
        cfg = replace(cfg, outputs=replace(cfg.outputs, eval_cadence=args.eval_cadence))
    if getattr(args, "seed", None) is not None:
        if cfg.mode == MODE_ALTERNATE:
            cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
        else:
            cfg = replace(cfg, joint=replace(cfg.joint, seed=args.seed))
    return cfg


def _load(path_or_preset: str) -> ExperimentConfig:
    if os.path.exists(path_or_preset):
        return load_config_file(path_or_preset)
    return load_config_file(preset_path(path_or_preset))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metasgld",
        description="Meta-learning Langevin trainers with online "
                    "generalization-bound tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="config file path or shipped preset name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--eval-cadence", type=int, default=None)

    p_plot = sub.add_parser("plot", help="render CSV columns to SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--series", required=True,
                        help="comma-separated column names")
    p_plot.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", help="run several presets and summarize")
    p_cmp.add_argument("configs", nargs="+")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--eval-cadence", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _apply_overrides(_load(args.config), args)
            return run_experiment(cfg)
        if args.command == "plot":
            series = [s.strip() for s in args.series.split(",") if s.strip()]
            return render_plot(args.csv, series, args.out)
        cfgs = [_apply_overrides(_load(c), args) for c in args.configs]
        _print_comparison(compare_splits(cfgs))
        return 0
    except (ConfigParseError, ConfigurationError, ValueError,
            FileNotFoundError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
