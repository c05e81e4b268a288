"""Experiment runner: config ingestion, CSV emission, plot rendering, and the
split-comparison summary table."""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import joint_sgld as joint_mod
from . import meta_sgld as meta_mod
from .core import STREAM_BLOCK, RunConfig, Schedules
from .records import RunRecord, format_value, read_csv, write_csv
from .task_env import EnvironmentSpec

OUTPUT_DIR_ENV_VAR = "METASGLD_OUTPUT_DIR"

MODE_ALTERNATE = "alternate"
MODE_JOINT = "joint"


@dataclass(frozen=True)
class Outputs:
    csv_path: str
    plot_path: Optional[str] = None
    eval_cadence: int = 20

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

def _vector(raw: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector")
    return tuple(float(p) for p in parts)


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# One table per section: INI key -> (dataclass field, parser). A key is
# required exactly when its field has no default; an absent key takes the
# field's default. Key order is the order a missing section lists its
# required keys in.
_EXPERIMENT_KEYS = {"mode": ("mode", str.lower), "name": ("name", str)}
_ENV_KEYS = {"dim": ("dim", int), "mean": ("env_mean", _vector),
             "cov_scale": ("env_cov_scale", float),
             "trunc_lo": ("trunc_lo", _vector), "trunc_hi": ("trunc_hi", _vector),
             "task_cov_scale": ("task_cov_scale", float)}
_OUTPUT_KEYS = {"csv": ("csv_path", str), "plot": ("plot_path", str)}
_ALT_OUTPUT_KEYS = {**_OUTPUT_KEYS, "eval_cadence": ("eval_cadence", int)}
_SCHEDULE_KEYS = {"eta": ("eta0", float), "decay_rule": ("decay_rule", str),
                  "decay_c": ("decay_c", float), "decay_rate": ("decay_rate", float),
                  "decay_period": ("decay_period", float)}
_ALT_RUN_KEYS = {**_SCHEDULE_KEYS,
                 **{k: (k, int) for k in ("n", "m", "m_tr", "m_va", "task_batch",
                                          "T", "K", "seed")},
                 "beta": ("beta0", float), "gamma_outer": ("gamma_outer", float),
                 "gamma_inner": ("gamma_inner", float),
                 "test_adapt_steps": ("test_adapt_steps", int),
                 "inner_batch": ("inner_batch", int), "noise": ("noise", _bool),
                 "init_u": ("init_u", _vector)}
_JOINT_RUN_KEYS = {**_SCHEDULE_KEYS,
                   **{k: (k, int) for k in ("n", "m", "T", "seed")},
                   "coupling": ("coupling", float), "sigma0": ("sigma0", float),
                   "fixed_l": ("fixed_l", float)}
# beta and the gammas belong to alternate mode only, so joint mode rejects
# their keys and fills the Schedules fields with these; eta may override eta0
_JOINT_SCHEDULES = dict.fromkeys(("eta0", "beta0", "gamma_outer", "gamma_inner"), 1.0)
# mode -> ([run] table, trainer config, Schedules placeholders, [outputs] table)
_RUN_SCHEMA = {MODE_ALTERNATE: (_ALT_RUN_KEYS, RunConfig, {}, _ALT_OUTPUT_KEYS),
               MODE_JOINT: (_JOINT_RUN_KEYS, joint_mod.JointConfig, _JOINT_SCHEDULES,
                            _OUTPUT_KEYS)}


def _section(cp: configparser.ConfigParser, section: str,
             keys: Dict[str, Tuple[str, Callable[[str], Any]]],
             *classes: type, **given: Any) -> Dict[str, Any]:
    """Check [section] against keys and return given updated with each key
    present, parsed, by field name. A key is required when its field has no
    default in classes and no value in given."""
    defaults = {f.name: f.default for cls in classes for f in fields(cls)}
    required = [k for k, (field, _) in keys.items()
                if field not in given and defaults[field] is MISSING]
    if not cp.has_section(section):
        raise ConfigParseError(f"missing section [{section}] (required keys: "
                               + ", ".join(f"{section}.{k}" for k in required) + ")")
    present = cp.options(section)
    unknown = sorted(set(present) - set(keys))
    if unknown:
        raise ConfigParseError(
            f"unknown keys in [{section}]: " + ", ".join(f"{section}.{k}" for k in unknown))
    missing = sorted(set(required) - set(present))
    if missing:
        raise ConfigParseError(
            "missing required keys: " + ", ".join(f"{section}.{k}" for k in missing))
    values = dict(given)
    for key in present:
        field, conv = keys[key]
        raw = cp.get(section, key)
        try:
            if "\n" in raw:      # a newline would end a CSV header comment line
                raise ValueError("multi-line values are not supported")
            values[field] = conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    return values


def _build(cls: type, where: str, values: Dict[str, Any], **extra: Any):
    """cls from the entries of values that are its fields, plus extra."""
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in values.items() if k in names}, **extra)
    except ValueError as exc:
        raise ConfigParseError(f"invalid {where}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    # no interpolation: a % in a value is literal
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str          # keep key case (T vs t)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(f"malformed config: {exc}") from exc

    experiment = _section(cp, "experiment", _EXPERIMENT_KEYS, ExperimentConfig)
    mode = experiment["mode"]
    if mode not in _RUN_SCHEMA:
        raise ConfigParseError(
            f"experiment.mode must be {MODE_ALTERNATE!r} or {MODE_JOINT!r}, got {mode!r}")
    keys, trainer_cls, placeholders, output_keys = _RUN_SCHEMA[mode]
    env = _build(EnvironmentSpec, "[env] section",
                 _section(cp, "env", _ENV_KEYS, EnvironmentSpec))
    outputs = _build(Outputs, "[outputs] section",
                     _section(cp, "outputs", output_keys, Outputs))

    values = _section(cp, "run", keys, Schedules, trainer_cls, **placeholders)
    schedules = _build(Schedules, "schedule in [run]", values)
    if mode == MODE_ALTERNATE and values["m_tr"] + values["m_va"] != values["m"]:
        raise ConfigParseError(
            "run.m_tr + run.m_va must equal run.m "
            f"({values['m_tr']} + {values['m_va']} != {values['m']})")
    trainer = _build(trainer_cls, "[run] section", values, schedules=schedules)
    return ExperimentConfig(env=env, outputs=outputs,
                            run=trainer if mode == MODE_ALTERNATE else None,
                            joint=trainer if mode == MODE_JOINT else None, **experiment)


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
    alternate = cfg.mode == MODE_ALTERNATE      # from layout 7 on its streams are by block
    lines = [f"mode = {cfg.mode}", f"name = {cfg.name}", "stream_layout = 9",
             *[f"stream_block = {STREAM_BLOCK}"] * alternate, f"version = {__version__}"]
    trainer = cfg.run or cfg.joint      # it, its Schedules and env share no field name
    values = {**vars(cfg.env), **vars(trainer.schedules), **vars(trainer)}
    for section, keys in (("env", _ENV_KEYS), ("run", _RUN_SCHEMA[cfg.mode][0])):
        for key, (name, _) in keys.items():     # vectors as plain-float tuples
            v = values[name]
            lines.append(f"{section}.{key} = {tuple(map(float, v)) if np.ndim(v) else v}")
    if alternate:                               # a joint run evaluates no gap
        lines.append(f"outputs.eval_cadence = {cfg.outputs.eval_cadence}")
    return lines


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured trainer, then write its per-epoch rows to CSV."""
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

_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def render_plot(csv_path: str, series: Sequence[str], out_path: str) -> int:
    """Render the named CSV columns as an SVG line chart, plus one two-column
    .dat text file per series next to the SVG."""
    from html import escape    # here, so that a run without a plot skips the import
    if not series:
        raise ValueError("series list must be non-empty")
    cols = read_csv(csv_path)
    names = list(cols)
    x_name = names[0]
    unknown = [s for s in series if s not in cols]
    if unknown:
        raise ValueError(f"unknown columns {unknown}; available: {names}")
    if unsafe := [s for s in series if os.path.basename(s) != s or s in (os.curdir, os.pardir)]:
        raise ValueError(f"series {unsafe} are not file names, so they cannot name a .dat file")

    points = {s: [(x, y) for x, y in zip(cols[x_name], cols[s])
                  if all(v is not None and math.isfinite(v) for v in (x, y))]
              for s in series}
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
                 f'text-anchor="middle">{escape(x_name)}</text>')

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
                     f'font-size="12">{escape(s)}</text>')
    parts.append("</svg>")

    stem, _ = os.path.splitext(out_path)
    for s in series:
        with open(f"{stem}_{s}.dat", "w") as fh:
            for x, y in points[s]:
                fh.write(f"{format_value(x)} {format_value(y)}\n")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return 0


# --------------------------------------------------------------- comparison

def compare_splits(configs: Sequence[ExperimentConfig]) -> List[dict]:
    """Run each alternate-mode preset and summarize epoch T, the one it evaluates."""
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
        if not all(np.array_equal(getattr(c.env, f.name), getattr(ref.env, f.name))
                   for f in fields(EnvironmentSpec)):
            raise ValueError(f"presets must share the environment ({c.name} differs)")
    if ref.run.T < 1:
        raise ValueError(f"compare needs T >= 1, got T={ref.run.T}")
    rows = []
    for c in configs:
        last = meta_mod.run_meta_sgld(c.run, c.env, eval_cadence=c.run.T)[0][-1]
        rows.append({
            "name": c.name,
            "split": f"{c.run.m_tr}/{c.run.m_va}",
            "train_test_gap": last.gap,
            "lipschitz": last.lipschitz,
            "g_norm": last.gnorm_bound_total,
            "g_inco": last.bound_total,
        })
    return rows


def _print_comparison(rows: List[dict]) -> None:
    headers = ["preset", "split", "Train-Test gap", "Lipschitz", "G_norm", "G_inco"]
    table = [[r["name"], r["split"], format_value(r["train_test_gap"]),
              format_value(r["lipschitz"]), format_value(r["g_norm"]),
              format_value(r["g_inco"])] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
    print(fmt(headers))
    print(fmt(["-" * w for w in widths]))
    for row in table:
        print(fmt(row))


# --------------------------------------------------------------- entry point

def _apply_overrides(cfg: ExperimentConfig, seed, eval_cadence=None) -> ExperimentConfig:
    if eval_cadence is not None:
        if cfg.mode == MODE_JOINT:
            raise ValueError("--eval-cadence sets the gap evaluations of an alternate "
                             "run; a joint run evaluates none")
        cfg = replace(cfg, outputs=replace(cfg.outputs, eval_cadence=eval_cadence))
    if seed is not None:
        trainer = "run" if cfg.mode == MODE_ALTERNATE else "joint"
        cfg = replace(cfg, **{trainer: replace(getattr(cfg, trainer), seed=seed)})
    return cfg


def _load(name: str) -> ExperimentConfig:
    # a name with a directory or an .ini suffix is a file path, never a preset
    if os.path.exists(name) or name.endswith(".ini") or os.path.dirname(name):
        return load_config_file(name)
    return load_config_file(preset_path(name))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metasgld",
        description="Meta-learning Langevin trainers with online "
                    "generalization-bound tracking")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = argparse.ArgumentParser(add_help=False)   # run and compare
    seed.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", parents=[seed], help="run one experiment config")
    p_run.add_argument("config", help="config file path or shipped preset name")
    p_run.add_argument("--eval-cadence", type=int, default=None)

    p_plot = sub.add_parser("plot", help="render CSV columns to SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--series", required=True,
                        help="comma-separated column names")
    p_plot.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", parents=[seed],
                           help="run several presets and summarize")
    p_cmp.add_argument("configs", nargs="+")

    args = parser.parse_args(argv)
    # the run's own finite checks name where it overflowed; NumPy's warnings add nothing
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "run":
                return run_experiment(_apply_overrides(_load(args.config), args.seed,
                                                       args.eval_cadence))
            if args.command == "plot":
                series = [s.strip() for s in args.series.split(",") if s.strip()]
                return render_plot(args.csv, series, args.out)
            cfgs = [_apply_overrides(_load(c), args.seed) for c in args.configs]
            _print_comparison(compare_splits(cfgs))
            return 0
    except (ValueError, ArithmeticError, FileNotFoundError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
