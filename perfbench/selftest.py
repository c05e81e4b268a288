"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, with T cut to a few epochs, and
asserts that every metric BENCHMARK.json names is printed with its unit and
that no run failed.  Then it feeds corrupted outputs (a NaN cell, one changed
byte between reruns) and a worker that raises through the same accounting and
asserts that each counts as a failed run.  Last, it asserts that the benchmark
exits non-zero, without a result, when only BENCHMARK.json and the benchmark's
own files are present.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

TINY = {
    "alt_train": run.Workload("alt_train", "toy_8_8", T=3, eval_cadence=3),
    "alt_eval": run.Workload("alt_eval", "toy_1_15", T=4, eval_cadence=2),
    "joint": run.Workload("joint", "joint_demo", T=5, eval_cadence=20),
}
SEED = 1


def declared() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), \
        "BENCHMARK.json workloads differ from run.WORKLOADS"
    return spec


def check_printed(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in TINY:
            buf = io.StringIO()
            code = run.main(["--workload", name, "--seed", str(SEED),
                             "--seconds", "0.1", "--trace", str(trace)],
                            workloads=TINY, out=buf)
            lines = buf.getvalue().splitlines()
            result = json.loads(lines[-1])
            assert code == 0, (name, trace, code)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
            assert result["attempted"] >= run.MIN_RUNS
            assert lines[-2].startswith("provenance ")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                assert got is not None, f"{name} trace={trace}: {metric['name']} missing"
                assert got["unit"] == metric["unit"], (metric, got)
                assert isinstance(got["value"], (int, float)), got
            if trace == 0:
                assert any(line.split()[1:2] == ["fail_frac"] for line in lines)
            print(f"ok  {name} trace={trace}: {len(spec[key])} metrics with units")


def check_failures_counted() -> None:
    wl = TINY["alt_train"]
    with tempfile.TemporaryDirectory(dir=run.SCRATCH / "tmp") as tmp:
        s = run.Session(wl, SEED, Path(tmp), time.monotonic() + run.TIME_LIMIT_S)
        assert s.spawn() is not None and s.failed == 0, s.problems
        good = s.reference
        assert s.judge("same bytes", "alternate", good) and s.failed == 0

        lines = good.decode().splitlines(keepends=True)
        cells = lines[-1].split(",")
        cells[1] = "nan"
        nan_row = "".join(lines[:-1] + [",".join(cells)]).encode()
        assert not s.judge("nan row", "alternate", nan_row) and s.failed == 1
        assert "finite" in s.problems[-1], s.problems

        at = max(i for i, c in enumerate(good) if chr(c).isdigit())
        digit = ord("0") + (good[at] - ord("0") + 1) % 10
        flipped = good[:at] + bytes([digit]) + good[at + 1:]
        assert not s.judge("changed byte", "alternate", flipped) and s.failed == 2
        assert "differ" in s.problems[-1], s.problems

        broken = run.Session(run.Workload("alt_train", "no_such_preset", 3, 3),
                             SEED, Path(tmp), time.monotonic() + 60)
        assert broken.spawn() is None and broken.failed == 1
    print("ok  NaN cell, changed byte and a raising worker each count as a failure")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=run.SCRATCH / "tmp") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(run.BENCH_DIR.name) / "run.py"),
             "--workload", "joint", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=tmp, capture_output=True, text=True,
            timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok  exits non-zero without a result when the source is missing")


def main() -> int:
    run.SCRATCH = run.ROOT / ".perfbench" / "selftest"
    (run.SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    spec = declared()
    check_printed(spec)
    check_failures_counted()
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
