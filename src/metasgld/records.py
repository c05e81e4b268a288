"""Per-epoch run records and their CSV serialization."""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence

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
    row, one column per field of the record dataclass ``record_type``."""
    names = [f.name for f in fields(record_type)]
    with open(path, "w", newline="") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(names)
        for r in records:
            w.writerow([format_value(getattr(r, name)) for name in names])


def read_csv(path) -> List[RunRecord]:
    with open(path, newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(body))))
    if not rows or rows[0] != FIELD_NAMES:
        raise ValueError(f"unexpected CSV header in {path}: {rows[:1]}")
    out = []
    for row in rows[1:]:
        vals = dict(zip(FIELD_NAMES, row))
        kwargs = {"epoch": int(vals["epoch"])}
        for name in FIELD_NAMES[1:]:
            v = vals[name]
            kwargs[name] = None if v == "" else float(v)
        out.append(RunRecord(**kwargs))
    return out

