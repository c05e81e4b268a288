"""metasgld benchmark: three trainer workloads, measured end to end and per layer.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload alt_train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run follows the user path from outside the package in a fresh worker
interpreter (perfbench/worker.py): ``cli.load_config_file(cli.preset_path(..))``,
then seed, T and eval-cadence overrides, then ``cli.run_experiment`` writing a
CSV into a temporary directory.  Load is a closed loop: one worker and one run
at a time, each with BLAS thread pools of size one.  Runs repeat until
``--seconds`` is used up; timings are reported as medians, with quartiles and
sample counts in the summary lines and the result file.

Every run's CSV is checked (perfbench/checks.py), and every run of one
invocation must write byte-identical CSVs, since all use the same seed.  A
worker that raises or times out, a failed check and a byte mismatch each count
as a failed run.

``--trace 0`` reports the end-to-end metrics: ``run_s`` and ``cpu_s``, the wall
and CPU seconds of one ``run_experiment`` call; ``setup_s``, the seconds from
spawning a fresh interpreter to a parsed and validated config; and
``peak_rss_mb``.  Times are in reference seconds: measured seconds rescaled to
a fixed CPU speed by perfbench/probe.py, because a CPU shared with other
tenants can change speed by 1.5x within seconds.  The times as measured are printed too
(``run_wall_s``, ``cpu_raw_s``, ``setup_wall_s``), with ``fail_frac``.
``--trace 1`` alternates untraced and traced runs (perfbench/spans.py) and
reports the per-layer metrics, in reference seconds, and the tracing overhead.

Beside the last line (one JSON object), each invocation prints a provenance
line and writes a result file with every sample to
.perfbench/results/<workload>-seed<seed>-trace<0|1>.json; the spans of the last
traced run go next to it.  Results compare only on the same machine.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    T: int
    eval_cadence: int


# alt_train: one gap evaluation (cadence = T), so the time is in the inner
#   paths, MC replicas, batch_grad and derive_stream.
# alt_eval: 20 gap evaluations (20,000 fresh tasks) and a 1/15 split, so the
#   time is in evaluate and sample_task, and a trainer tuned to 8/8 shows what
#   it does to another batch shape.
# joint: the joint step loop and per-step train-risk pass; no alternate-mode
#   code runs, and it writes the most CSV rows.
WORKLOADS = {w.name: w for w in (
    Workload("alt_train", "toy_8_8", T=200, eval_cadence=200),
    Workload("alt_eval", "toy_1_15", T=200, eval_cadence=10),
    Workload("joint", "joint_demo", T=500, eval_cadence=20),
)}

# Set-up-only workers before each run: one set-up varies by 2x, so it needs
# more samples than a run does, spread over the whole measurement.
SETUP_PROBES = 3
MIN_RUNS = 2           # the rerun identity check needs two runs
TIME_LIMIT_S = 170.0   # hard limit on one workload's measurement

# Times in reference seconds (probe.py); the same times as measured.
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
AS_MEASURED = {"run_wall_s": "s", "cpu_raw_s": "s", "setup_wall_s": "s"}
PER_LAYER = (
    "cli.parse_config.s", "cli.run_experiment.s",
    "core.derive_stream.calls", "core.derive_stream.s",
    "task_env.sample_task.calls", "task_env.sample_task.s",
    "task_env.sample_dataset.s", "task_env.sample_minibatch.calls",
    "model.batch_grad.calls", "model.batch_grad.s",
    "model.batch_risk.calls", "model.batch_risk.s",
    "meta_sgld.draw_task_batch.s", "meta_sgld.inner_adapt.calls",
    "meta_sgld.inner_adapt.live_s", "meta_sgld.estimate_eps_u.s",
    "meta_sgld.outer_step.s", "meta_sgld.outer_step.self_s",
    "bounds.assemble_alt_bound.s",
    "evaluate.observed_gap.s", "evaluate.adapt_eval.calls",
    "evaluate.tasks_per_s",
    "joint_sgld.joint_loss_grad.calls", "joint_sgld.joint_loss_grad.s",
    "joint_sgld.joint_sgld_step.s", "joint_sgld.run_joint_sgld.self_s",
    "records.write_s", "records.csv_bytes",
    "trace.overhead_frac", "src_loc",
)


UNITS = {**END_TO_END, **AS_MEASURED, "fail_frac": "ratio",
         "evaluate.tasks_per_s": "1/s", "records.csv_bytes": "bytes",
         "trace.overhead_frac": "ratio", "src_loc": "lines"}


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".tasks")):
        return "count"
    return UNITS.get(metric, "s")


def worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "METASGLD_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Session:
    """Workers for one workload and seed: spawns them one at a time, checks
    every output, and keeps the samples and the failure tally."""

    def __init__(self, wl: Workload, seed: int, tmp: Path, deadline: float):
        from checks import check_output
        self._check = check_output
        self.wl, self.seed, self.tmp, self.deadline = wl, seed, tmp, deadline
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[bytes] = None
        self.env = worker_env()

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def spawn(self, setup_only: bool = False,
              spans: Optional[Path] = None) -> Optional[dict]:
        """One worker; returns its measurements, or None if the run failed."""
        self.attempted += 1
        label = f"worker {self.attempted}"
        csv_path = self.tmp / f"run{self.attempted}.csv"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--preset", self.wl.preset, "--T", str(self.wl.T),
               "--eval-cadence", str(self.wl.eval_cadence),
               "--seed", str(self.seed), "--csv", str(csv_path)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.fail(f"{label}: no time left before the {TIME_LIMIT_S} s limit")
            return None
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail(f"{label}: timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.fail(f"{label}: exit {proc.returncode}: {' | '.join(tail)}")
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if setup_only:
                return result
            data = csv_path.read_bytes()
            csv_path.unlink()
        except (IndexError, ValueError, OSError) as exc:
            self.fail(f"{label}: no measurements or no CSV ({exc})")
            return None
        return result if self.judge(label, result["mode"], data) else None

    def judge(self, label: str, mode: str, data: bytes) -> bool:
        """Check one run's CSV bytes and compare them with the first run's;
        a problem counts the run as failed."""
        problems = self._check(data.decode("utf-8", "replace"), mode,
                               self.wl.preset, self.wl.T, self.wl.eval_cadence)
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("CSV bytes differ from the first run of this seed")
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:3]))
        return not problems


def run_end_to_end(s: Session, seconds: float) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {m: [] for m in {**END_TO_END, **AS_MEASURED}}
    begin = time.monotonic()
    s.spawn(setup_only=True)             # warm-up: bytecode and file caches
    durations: List[float] = []
    while time.monotonic() < s.deadline:
        t = time.monotonic()
        for _ in range(SETUP_PROBES):
            r = s.spawn(setup_only=True)
            if r:
                samples["setup_s"].append(r["setup_s"])
                samples["setup_wall_s"].append(r["setup_wall_s"])
        r = s.spawn()
        durations.append(time.monotonic() - t)
        if r:
            for m in samples:
                samples[m].append(r[m])
        if (len(durations) >= MIN_RUNS and time.monotonic()
                + statistics.median(durations) > begin + seconds):
            break
    return samples


def layer_metrics(layers: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics derived from one traced worker's span summary."""
    out = dict(layers)
    if "records.write.s" in layers:
        out["records.write_s"] = layers["records.write.s"]
    if "evaluate.observed_gap.s" in layers:
        gap_s = layers["evaluate.observed_gap.s"]
        tasks = layers.get("evaluate.observed_gap.tasks", 0)
        out["evaluate.tasks_per_s"] = tasks / gap_s if gap_s > 0 else 0.0
    return out


def run_traced(s: Session, seconds: float) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {"untraced_run_s": [], "traced_run_s": []}
    begin = time.monotonic()
    s.spawn(setup_only=True)             # warm-up: bytecode and file caches
    spans = s.tmp / "spans.tsv"
    durations: List[float] = []
    counts: Optional[Dict[str, float]] = None
    while time.monotonic() < s.deadline:
        t = time.monotonic()
        plain = s.spawn()
        traced = s.spawn(spans=spans)
        durations.append(time.monotonic() - t)
        if plain:
            samples["untraced_run_s"].append(plain["run_s"])
        if traced:
            samples["traced_run_s"].append(traced["run_s"])
            layers = layer_metrics(traced["layers"])
            these = {k: v for k, v in layers.items()
                     if k.endswith((".calls", ".tasks"))}
            if counts is None:
                counts = these
            elif these != counts:
                s.fail("call counts differ between traced runs of one seed")
            for k, v in layers.items():
                samples.setdefault(k, []).append(v)
        if time.monotonic() + statistics.median(durations) > begin + seconds:
            break
    return samples


def src_loc() -> int:
    return sum(p.read_text().count("\n")
               for p in sorted((SRC / "metasgld").rglob("*.py")))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    return {"git_commit": git_commit(), "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "src_loc": src_loc()}


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            out=sys.stdout) -> Tuple[Session, Dict[str, dict]]:
    """Measure one workload; returns the session and metric -> statistics."""
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH / "tmp") as tmp:
        s = Session(wl, seed, Path(tmp), time.monotonic() + TIME_LIMIT_S)
        if trace:
            samples = run_traced(s, seconds)
            spans = Path(tmp) / "spans.tsv"
            if spans.exists():
                shutil.copyfile(spans, results / f"{wl.name}-seed{seed}.spans.tsv")
        else:
            samples = run_end_to_end(s, seconds)

    stats: Dict[str, dict] = {}
    for name, values in samples.items():
        if values and name.endswith((".calls", ".tasks")):
            # identical in every traced run, or the runs were counted failed
            stats[name] = {"value": values[0], "n": len(values),
                           "unit": unit_of(name)}
        elif values:
            q1, med, q3 = quartiles(values)
            stats[name] = {"value": med, "q1": q1, "q3": q3, "n": len(values),
                           "unit": unit_of(name), "samples": values}
    if trace:
        extra = {"src_loc": src_loc()}
        if s.reference is not None:
            extra["records.csv_bytes"] = len(s.reference)
        if "traced_run_s" in stats and "untraced_run_s" in stats:
            extra["trace.overhead_frac"] = (stats["traced_run_s"]["value"]
                                            / stats["untraced_run_s"]["value"] - 1)
        for name, value in extra.items():
            stats[name] = {"value": value, "n": 1, "unit": unit_of(name)}
    stats["fail_frac"] = {"value": s.failed / max(1, s.attempted),
                          "n": s.attempted, "unit": unit_of("fail_frac")}

    shown = PER_LAYER if trace else (*END_TO_END, *AS_MEASURED, "fail_frac")
    for name in shown:
        st = stats.get(name)
        if st is None:
            print(f"{wl.name:9s} {name:34s} absent", file=out)
        elif "q1" in st:
            print(f"{wl.name:9s} {name:34s} median {st['value']:.6g} {st['unit']}"
                  f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n {st['n']}", file=out)
        else:
            print(f"{wl.name:9s} {name:34s} {st['value']:.6g} {st['unit']}", file=out)
    print(f"{wl.name:9s} {s.failed} failed of {s.attempted} attempted", file=out)
    for problem in s.problems:
        print(f"{wl.name:9s} FAILED {problem}", file=out)

    record = {"workload": wl.name, "trace": int(trace), "seconds": seconds,
              "provenance": provenance(seed), "attempted": s.attempted,
              "failed": s.failed, "problems": s.problems, "metrics": stats}
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return s, stats


def main(argv=None, workloads: Dict[str, Workload] = WORKLOADS,
         out=sys.stdout) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "metasgld" / "cli.py").is_file():
        print(f"error: no metasgld source under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The parent imports the package only for the output checks; a single
    # BLAS thread keeps this process single-threaded too.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    chosen = list(workloads.values()) if args.workload == "all" \
        else [workloads[args.workload]]
    names = PER_LAYER if args.trace else tuple(END_TO_END)
    attempted = failed = 0
    metrics = {}
    for wl in chosen:
        s, stats = measure(wl, args.seed, args.seconds, bool(args.trace), out)
        attempted += s.attempted
        failed += s.failed
        prefix = f"{wl.name}." if len(chosen) > 1 else ""
        for name in names:
            if name in stats:
                metrics[prefix + name] = {"value": stats[name]["value"],
                                          "unit": stats[name]["unit"]}
    print("provenance " + json.dumps(provenance(args.seed)), file=out)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
