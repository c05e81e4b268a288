"""Per-epoch run records and their CSV serialization."""
from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class RunRecord:
    """One epoch of accumulator snapshots, assembled bounds, and (optionally)
    the observed train/test losses."""

    epoch: int
    eps_u: float
    eps_w: float
    gnorm_u: float
    gnorm_w: float
    lipschitz: float
    bound_u: float
    bound_w: float
    bound_total: float
    gnorm_bound_u: float
    gnorm_bound_w: float
    gnorm_bound_total: float
    train_loss: Optional[float] = None
    test_loss: Optional[float] = None
    gap: Optional[float] = None


FIELD_NAMES = [f.name for f in fields(RunRecord)]


def format_value(x) -> str:
    """Decimal (non-scientific) notation with at least 6 significant digits."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return np.format_float_positional(float(x), precision=8, unique=False,
                                      fractional=False, trim="-")


def write_csv(records: Sequence, path, comment_lines: Iterable[str] = (),
              record_type: type = RunRecord) -> None:
    """Write records with a `#`-comment provenance header and a column header
    row, one column per field of the record dataclass ``record_type``.  A row
    is one ``%`` on a ``%.8g`` template with its empty cells left out; a cell
    where that writes an exponent is formatted again by format_value."""
    names = [f.name for f in fields(record_type)]
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in comment_lines)
        fh.write(",".join(names) + "\n")
        for row in map(attrgetter(*names), records):
            line = (",".join("" if x is None else "%.8g" for x in row)
                    % tuple(x for x in row if x is not None))
            if "e" in line:
                line = ",".join(cell if "e" not in cell else format_value(x)
                                for cell, x in zip(line.split(","), row))
            fh.write(line + "\n")


def read_csv(path) -> Dict[str, List[Optional[float]]]:
    """The columns of a CSV of either record type, in header order:
    {name: [value, or None for an empty cell]}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if not rows or not rows[0]:
        raise ValueError(f"{path} has no header row")
    cols: Dict[str, List[Optional[float]]] = {name: [] for name in rows[0]}
    if len(cols) < len(rows[0]):
        raise ValueError(f"{path} repeats the column name {max(cols, key=rows[0].count)!r}")
    for row in rows[1:]:
        if row and len(row) != len(cols):
            raise ValueError(f"{path}: the line {','.join(row)!r} does not match the header")
        for name, v in zip(rows[0], row):
            cols[name].append(None if v == "" else float(v))
    return cols
