"""Pinned stream layout: digests of the CSVs of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover
the whole file, the ``#`` provenance header included: the header is a pure
function of the config and names the layout version, ``stream_layout = 3``.
Layout 3 draws each epoch's task batch (means, data, split keys) from one
``(P_TASK, t)`` stream and the live inner noise as one ``(K, B, dim)`` array
from ``(P_NOISE_W, t)``; the evaluation draws its tasks the same way from
``(P_TEST, t)`` and ``(P_TRAIN_PROBE, t)``, and the joint datasets come from
``(P_TASK, 0)``.
"""
import hashlib
from dataclasses import replace

import pytest

from metasgld.cli import load_config_file, preset_path, run_experiment

# preset -> SHA-256 of the CSV of a T = 6, eval_cadence = 3 run
DIGESTS = {
    "toy_8_8": "68ff76359cf80794a54c769ec8e926349df6dd6355ff8af660047b4790105075",
    "toy_1_15": "b19ac780dabcdeeee83d8225ff85462c02f31947f6d9363b1f3f1e82cc96a828",
    "toy_15_1": "50a2642b227744fb073824235405e999ee22a0055314a3b6a23c9296b0ee785b",
    "joint_demo": "5cfedace6c6dc2d3b6630c1c5d27ec82757dc96f4525578aee4090fa000c6b69",
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
    csv = b"".join(short_run(preset, tmp_path))
    assert hashlib.sha256(csv).hexdigest() == DIGESTS[preset], (
        f"{preset}: the CSV changed, so the random-stream layout, the "
        "arithmetic order or the header changed.  An intended layout change "
        "must bump a layout version, be logged in CHANGES.md, and update "
        "these digests.")


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_header_names_the_layout_and_no_numpy_repr(preset, tmp_path):
    header = [line for line in short_run(preset, tmp_path) if line.startswith(b"#")]
    assert b"# stream_layout = 3\n" in header
    assert b"# env.mean = (-4.0, -4.0)\n" in header
    assert not [line for line in header if b"np." in line]
