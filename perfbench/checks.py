"""Correctness checks on one run's CSV output.

Each check returns a list of problems; an empty list means the output is
correct.  The checks read the CSV text only, so a corrupted file is judged
exactly as the run left it.
"""
from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Optional

from metasgld.records import FIELD_NAMES

# Reference bound values at epoch 180 from the paper's table, as pinned in
# tests/test_acceptance.py: preset -> (G_inco = bound_total,
# G_norm = gnorm_bound_total).
PAPER_EPOCH = 180
PAPER_TABLE = {"toy_8_8": (0.7424, 14.014), "toy_1_15": (2.149, 10.42)}
PAPER_TOLERANCE = 0.30

ACCUMULATORS = ("eps_u", "eps_w", "gnorm_u", "gnorm_w")
JOINT_COLUMNS = ("t", "mi_sum", "joint_bound", "closed_form")


def _table(text: str):
    rows = list(csv.reader(io.StringIO(
        "".join(line for line in text.splitlines(keepends=True)
                if not line.startswith("#")))))
    if not rows:
        return None, []
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def _number(raw: str) -> Optional[float]:
    try:
        return float(raw)
    except ValueError:
        return None


def _finite_cells(rows: List[Dict[str, str]], allow_empty: bool) -> List[str]:
    for i, row in enumerate(rows, 1):
        for name, raw in row.items():
            if raw == "" and allow_empty:
                continue
            x = _number(raw)
            if x is None or not math.isfinite(x):
                return [f"row {i}: {name} = {raw!r} is not a finite number"]
    return []


def _never_decreases(rows, column: str) -> List[str]:
    prev = -math.inf
    for i, row in enumerate(rows, 1):
        x = float(row[column])
        if x < prev:
            return [f"row {i}: {column} decreased from {prev!r} to {x!r}"]
        prev = x
    return []


def check_alternate(text: str, preset: str, T: int,
                    eval_cadence: int) -> List[str]:
    header, rows = _table(text)
    if header != FIELD_NAMES:
        return [f"header {header} != records.FIELD_NAMES"]
    if any(len(r) != len(FIELD_NAMES) for r in rows):
        return ["a row has the wrong number of cells"]
    if len(rows) != T:
        return [f"{len(rows)} rows, expected T = {T}"]
    problems = _finite_cells(rows, allow_empty=True)
    if problems:
        return problems
    if [int(r["epoch"]) for r in rows] != list(range(1, T + 1)):
        return ["epochs are not 1..T in order"]
    for column in ACCUMULATORS:
        problems += _never_decreases(rows, column)
    for r in rows:
        t = int(r["epoch"])
        if (t % eval_cadence == 0 or t == T) and r["gap"] == "":
            problems.append(f"epoch {t}: gap missing at a cadence epoch")
    if preset in PAPER_TABLE and T >= PAPER_EPOCH:
        row = rows[PAPER_EPOCH - 1]
        for column, ref in zip(("bound_total", "gnorm_bound_total"),
                               PAPER_TABLE[preset]):
            rel = float(row[column]) / ref - 1.0
            if abs(rel) > PAPER_TOLERANCE:
                problems.append(f"epoch {PAPER_EPOCH}: {column} = {row[column]} "
                                f"is {rel:+.1%} off the paper's {ref}")
    return problems


def check_joint(text: str, T: int) -> List[str]:
    header, rows = _table(text)
    if header is None or not set(JOINT_COLUMNS) <= set(header):
        return [f"header {header} lacks one of {JOINT_COLUMNS}"]
    if any(len(r) != len(header) for r in rows):
        return ["a row has the wrong number of cells"]
    if len(rows) != T:
        return [f"{len(rows)} rows, expected T = {T}"]
    problems = _finite_cells(rows, allow_empty=False)
    if problems:
        return problems
    problems += _never_decreases(rows, "mi_sum")
    for r in rows:
        if float(r["joint_bound"]) > float(r["closed_form"]) + 1e-12:
            problems.append(f"step {r['t']}: joint_bound {r['joint_bound']} "
                            f"exceeds closed_form {r['closed_form']}")
            break
    return problems


def check_output(text: str, mode: str, preset: str, T: int,
                 eval_cadence: int) -> List[str]:
    """Problems with one run's CSV text, for a run in the given mode."""
    if mode == "joint":
        return check_joint(text, T)
    return check_alternate(text, preset, T, eval_cadence)
