"""Pinned stream layout: digests of the CSVs of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover
the whole file, the ``#`` provenance header included: the header is a pure
function of the config and names the layout version, ``stream_layout = 4``,
and the package version.  Layout 4 draws each epoch's task batch (means,
data, split keys) from one ``(P_TASK, t)`` stream, the live inner noise as
one ``(K, B, dim)`` array from ``(P_NOISE_W, t)`` and, with ``inner_batch >
0``, the live minibatch keys as one ``(K, B, m_tr)`` array from ``(P_BATCH,
t)``; the evaluation draws its tasks the same way from ``(P_TEST, t)`` and
``(P_TRAIN_PROBE, t)``, and the joint datasets come from ``(P_TASK, 0)``.
"""
import hashlib
from dataclasses import replace

import pytest

from metasgld import __version__
from metasgld.cli import load_config_file, preset_path, run_experiment

# preset -> SHA-256 of the CSV of a T = 6, eval_cadence = 3 run
DIGESTS = {
    "toy_8_8": "2ff33bb5a7e2e4aa14307cbe30674b29fad93ee5ce0aae9635e2f8e0aa2287cc",
    "toy_1_15": "780d95426c410d34bf5b592f2c3c8cb6be0f6ea3203228796cae03735893b9e6",
    "toy_15_1": "bcdeb3c2d9feb52d943e3c0928e9018a3471653c851ebf6cd1f389b5a0173a6c",
    "joint_demo": "dd41aaf878362af72e6ab58aa9a0c080e6bf5eb3d464cb2aa348c91f460bc092",
}
# SHA-256 of the same run of toy_8_8 with inner_batch = 3: the live
# minibatches of layout 4
MINIBATCH_DIGEST = "e89f0fa8e38215bbf0cb2798d1c1e4a25a2bb16b90442f1ed1e20b8e7b19f25f"


def short_run(preset, tmp_path, **run):
    """The CSV lines of a T = 6, eval_cadence = 3 run of a preset, with the
    [run] overrides ``run``."""
    cfg = load_config_file(preset_path(preset))
    out = tmp_path / "run.csv"
    outputs = replace(cfg.outputs, csv_path=str(out), plot_path=None,
                      eval_cadence=3)
    if cfg.joint is not None:
        cfg = replace(cfg, joint=replace(cfg.joint, T=6), outputs=outputs)
    else:
        cfg = replace(cfg, run=replace(cfg.run, T=6, **run), outputs=outputs)
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


def test_minibatch_rows_match_pinned_layout(tmp_path):
    csv = b"".join(short_run("toy_8_8", tmp_path, inner_batch=3))
    assert hashlib.sha256(csv).hexdigest() == MINIBATCH_DIGEST


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_header_names_the_layout_and_no_numpy_repr(preset, tmp_path):
    header = [line for line in short_run(preset, tmp_path) if line.startswith(b"#")]
    assert b"# stream_layout = 4\n" in header
    assert f"# version = {__version__}\n".encode() in header
    assert b"# env.mean = (-4.0, -4.0)\n" in header
    assert not [line for line in header if b"np." in line]
