"""Pinned stream layout: digests of the CSV rows of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover the
rows under the ``#`` provenance header only; the header names the layout
version, ``stream_layout = 2``.  The ``joint_demo`` digest was taken from the
per-task loop trainer.  Layout 2 takes the full-batch meta-level terms of the
alternate presets from one noise-free mean row instead of Monte-Carlo
replicas; their digests were re-taken then.
"""
import hashlib
from dataclasses import replace

import pytest

from metasgld.cli import load_config_file, preset_path, run_experiment

# preset -> SHA-256 of the data rows of a T = 6, eval_cadence = 3 run
DIGESTS = {
    "toy_8_8": "68cd85b96c02596812223539d15d3945df9c5e6a5f87e9b417bf2f47b32ba7a8",
    "toy_1_15": "bab9e454e28154d996aeac2b779c20752e2b85c6ea2052e2b7a4b2ed7b2f43c0",
    "toy_15_1": "c1a9646a8cb1c18c037b39f4e956fb63bbb4c357acc45496b4e512a7f7a42a13",
    "joint_demo": "9958112bb3be554c0d345b43ec0c6061e7a712b5d6b2dd9f4a6371a7dc733809",
}


def short_run(preset, tmp_path):
    """The CSV lines of a T = 6, eval_cadence = 3 run of a preset."""
    cfg = load_config_file(preset_path(preset))
    out = tmp_path / "run.csv"
    outputs = replace(cfg.outputs, csv_path=str(out), plot_path=None,
                      eval_cadence=3)
    if cfg.joint is not None:
        cfg = replace(cfg, joint=replace(cfg.joint, T=6), outputs=outputs)
    else:
        cfg = replace(cfg, run=replace(cfg.run, T=6), outputs=outputs)
    run_experiment(cfg)
    return out.read_bytes().splitlines(keepends=True)


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_rows_match_pinned_layout(preset, tmp_path):
    rows = b"".join(line for line in short_run(preset, tmp_path)
                    if not line.startswith(b"#"))
    assert hashlib.sha256(rows).hexdigest() == DIGESTS[preset], (
        f"{preset}: the CSV rows changed, so the random-stream layout or the "
        "arithmetic order changed.  An intended layout change must bump a "
        "layout version, be logged in CHANGES.md, and update these digests.")


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_header_names_the_layout_and_no_numpy_repr(preset, tmp_path):
    header = [line for line in short_run(preset, tmp_path) if line.startswith(b"#")]
    assert b"# stream_layout = 2\n" in header
    assert b"# env.mean = (-4.0, -4.0)\n" in header
    assert not [line for line in header if b"np." in line]
