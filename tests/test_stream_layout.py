"""Pinned stream layout: digests of the CSV rows of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover the
rows under the ``#`` provenance header only, because the header prints
``np.float64(...)`` reprs that vary with the NumPy version.  They were taken
from the per-path and per-task loop trainers, before the array engines
replaced them.
"""
import hashlib
from dataclasses import replace

import pytest

from metasgld.cli import load_config_file, preset_path, run_experiment

# preset -> SHA-256 of the data rows of a T = 6, eval_cadence = 3 run
DIGESTS = {
    "toy_8_8": "aaba3bd493ccf1f5e4462f174503098ec6687655376c5c5add8d74fd38ddca59",
    "toy_1_15": "b09509bf9bff6cda72d257f40fd0d01d6375c9cf90f63428af2d63033d82bd73",
    "toy_15_1": "9e3af60fad3c994c3e274a79e8fcd47930c5acce97bddfbed2825161b3667f39",
    "joint_demo": "9958112bb3be554c0d345b43ec0c6061e7a712b5d6b2dd9f4a6371a7dc733809",
}


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_rows_match_pinned_layout(preset, tmp_path):
    cfg = load_config_file(preset_path(preset))
    out = tmp_path / "run.csv"
    outputs = replace(cfg.outputs, csv_path=str(out), plot_path=None,
                      eval_cadence=3)
    if cfg.joint is not None:
        cfg = replace(cfg, joint=replace(cfg.joint, T=6), outputs=outputs)
    else:
        cfg = replace(cfg, run=replace(cfg.run, T=6), outputs=outputs)
    run_experiment(cfg)
    rows = b"".join(line for line in out.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"#"))
    assert hashlib.sha256(rows).hexdigest() == DIGESTS[preset], (
        f"{preset}: the CSV rows changed, so the random-stream layout or the "
        "arithmetic order changed.  An intended layout change must bump a "
        "layout version, be logged in CHANGES.md, and update these digests.")
