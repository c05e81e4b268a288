"""Pinned stream layout: digests of the CSVs of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover
the whole file, the ``#`` provenance header included: the header is a pure
function of the config and names the layout version, ``stream_layout = 5``,
and the package version.  Layout 5 draws each epoch's task batch (means,
data, split keys) from one ``(P_TASK, t)`` stream, the live inner noise as
one ``(K, B, dim)`` array from ``(P_NOISE_W, t)`` and, with ``inner_batch >
0``, the live minibatch keys as one ``(K, B, m_tr)`` array from ``(P_BATCH,
t)``; the evaluation draws its tasks the same way from ``(P_TEST, t)`` and
``(P_TRAIN_PROBE, t)``, and the joint datasets come from ``(P_TASK, 0)``.
These are layout 4's streams: layout 5 changed only the joint header, which
records one optional ``sigma0`` and no sigma rule.
"""
import hashlib
import itertools
from dataclasses import astuple, replace

import numpy as np
import pytest

from metasgld import __version__
from metasgld.cli import (OUTPUT_DIR_ENV_VAR, load_config_file, main, preset_path,
                          run_experiment)
from metasgld.core import (DECAY_CONSTANT, DECAY_EXPONENTIAL, DECAY_INVERSE_T,
                           RunConfig, Schedules)
from metasgld.meta_sgld import run_meta_sgld
from metasgld.task_env import EnvironmentSpec

# preset -> SHA-256 of the CSV of a T = 6, eval_cadence = 3 run
DIGESTS = {
    "toy_8_8": "fbe483e1368db8b10bbad2d423c07a284b5a5f8fd694be2ef17e4b1ca6a5e066",
    "toy_1_15": "a170ca201cabb85dc0b49d66a03a2733e2d4e21cb08e4617d3e31378e548b90b",
    "toy_15_1": "1ab841f65ac76fb404052b8f6ae13e311f8476a6cc8b2146c5ba785d4f1f01b6",
    "joint_demo": "428256b2d909cca2e5fed64f41193e6c0a174f38bdb8c2d2175f2b124fbb1e6c",
}
# SHA-256 of the same run of toy_8_8 with inner_batch = 3: the live
# minibatches of layout 4, unchanged in layout 5
MINIBATCH_DIGEST = "e7ff82470115da5f1807d48f4b39c63536696f7eb725ffb0f0a2a92fd5ddb49b"


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


# SHA-256 of the CSVs of ``metasgld run <preset> --seed S``, S = 1-10, for
# each preset in this order, concatenated: whole preset runs, and what a
# NumPy upgrade that changed its seeding algorithm would move
PRESET_RUNS = ("toy_8_8", "toy_1_15", "toy_15_1", "joint_demo")
PRESET_RUNS_DIGEST = "5ca99c45a092e3d6ac7061b79f053969370c355fd0643ad4b026df2f398275f2"


def test_preset_runs_match_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV_VAR, str(tmp_path))
    digest = hashlib.sha256()
    for preset in PRESET_RUNS:
        for seed in range(1, 11):
            assert main(["run", preset, "--seed", str(seed)]) == 0
            digest.update((tmp_path / f"{preset}.csv").read_bytes())
    assert digest.hexdigest() == PRESET_RUNS_DIGEST


@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_header_names_the_layout_and_no_numpy_repr(preset, tmp_path):
    header = [line for line in short_run(preset, tmp_path) if line.startswith(b"#")]
    assert b"# stream_layout = 5\n" in header
    assert f"# version = {__version__}\n".encode() in header
    assert b"# env.mean = (-4.0, -4.0)\n" in header
    assert not [line for line in header if b"np." in line]


# ------------------------------------------------------------ the trainer grid
#
# The presets all decay at a constant rate; the grid below runs every decay
# rule, both noise settings and both batch modes over K in {0, 1, 4} and
# task batches of 1 and 5, from U = 0 and from a set init_u.  Each digest is
# the SHA-256 (first 16 hex digits) of the repr of a T = 5, eval_cadence = 2
# run's records and final U, taken with the per-epoch trainer of layout 4.

GRID_ENV = EnvironmentSpec(env_mean=np.array([-4.0, -4.0]), env_cov_scale=5.0,
                           trunc_lo=np.array([-12.0, -12.0]),
                           trunc_hi=np.array([4.0, 4.0]), task_cov_scale=0.1,
                           dim=2)
GRID = list(itertools.product(
    (DECAY_CONSTANT, DECAY_INVERSE_T, DECAY_EXPONENTIAL), (True, False),
    (0, 3), (0, 1, 4), (1, 5), (None, (-3.0, -5.0))))


def grid_id(decay_rule, noise, inner_batch, K, task_batch, init_u):
    return (f"{decay_rule}-{'noise' if noise else 'quiet'}-b{inner_batch}-K{K}"
            f"-B{task_batch}-{'u' if init_u else 'zero'}")


def grid_digest(decay_rule, noise, inner_batch, K, task_batch, init_u):
    # gamma_inner = 25 makes the inner noise a visible share of every term
    cfg = RunConfig(n=100, m=16, m_tr=8, m_va=8, task_batch=task_batch, T=5,
                    K=K, schedules=Schedules(eta0=0.2, beta0=0.3,
                                             gamma_outer=1e4, gamma_inner=25.0,
                                             decay_rule=decay_rule, decay_c=0.4,
                                             decay_rate=0.8, decay_period=2.0),
                    seed=3, inner_batch=inner_batch, noise=noise, init_u=init_u)
    records, u = run_meta_sgld(cfg, GRID_ENV, eval_cadence=2, n_test=40,
                               n_train_probe=40)
    text = repr([astuple(r) for r in records] + [u.tolist()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GRID_DIGESTS = {
    "constant-noise-b0-K0-B1-zero": "d41e8fcd44becdfd",
    "constant-noise-b0-K0-B1-u": "45d6fde69a515152",
    "constant-noise-b0-K0-B5-zero": "9cb93a0ee769665b",
    "constant-noise-b0-K0-B5-u": "6435722d13a3fd49",
    "constant-noise-b0-K1-B1-zero": "53b6bd2417fa3c6c",
    "constant-noise-b0-K1-B1-u": "6270c0b1aa7f55b5",
    "constant-noise-b0-K1-B5-zero": "5f13019300e9df35",
    "constant-noise-b0-K1-B5-u": "69016122d7299b81",
    "constant-noise-b0-K4-B1-zero": "3acc1a0ee453c241",
    "constant-noise-b0-K4-B1-u": "a474c3961b664aac",
    "constant-noise-b0-K4-B5-zero": "5e7d19cef7802e28",
    "constant-noise-b0-K4-B5-u": "3b31544dfb5f44ce",
    "constant-noise-b3-K0-B1-zero": "d41e8fcd44becdfd",
    "constant-noise-b3-K0-B1-u": "45d6fde69a515152",
    "constant-noise-b3-K0-B5-zero": "9cb93a0ee769665b",
    "constant-noise-b3-K0-B5-u": "6435722d13a3fd49",
    "constant-noise-b3-K1-B1-zero": "7cbd23d100645d5d",
    "constant-noise-b3-K1-B1-u": "89b683f866a3e217",
    "constant-noise-b3-K1-B5-zero": "24fb0a5ceb05672a",
    "constant-noise-b3-K1-B5-u": "763b9b8ff9caf0cd",
    "constant-noise-b3-K4-B1-zero": "3c4be48fd31122e1",
    "constant-noise-b3-K4-B1-u": "def8bc24d688c95c",
    "constant-noise-b3-K4-B5-zero": "c68491d3a582502e",
    "constant-noise-b3-K4-B5-u": "ed17690f5ca9b5ba",
    "constant-quiet-b0-K0-B1-zero": "96734e9b78f79b11",
    "constant-quiet-b0-K0-B1-u": "aee5cd87d7121b86",
    "constant-quiet-b0-K0-B5-zero": "05d1c2c45156c4c2",
    "constant-quiet-b0-K0-B5-u": "570ed89069328530",
    "constant-quiet-b0-K1-B1-zero": "b3443a33c1c972ba",
    "constant-quiet-b0-K1-B1-u": "b08c058ca7124c60",
    "constant-quiet-b0-K1-B5-zero": "16eac36dddf60073",
    "constant-quiet-b0-K1-B5-u": "3be5c143ce13489a",
    "constant-quiet-b0-K4-B1-zero": "ee94efc96697c90b",
    "constant-quiet-b0-K4-B1-u": "593e4c511e1f8c63",
    "constant-quiet-b0-K4-B5-zero": "619ba64e8f2aef09",
    "constant-quiet-b0-K4-B5-u": "597b70fae8ccb672",
    "constant-quiet-b3-K0-B1-zero": "96734e9b78f79b11",
    "constant-quiet-b3-K0-B1-u": "aee5cd87d7121b86",
    "constant-quiet-b3-K0-B5-zero": "05d1c2c45156c4c2",
    "constant-quiet-b3-K0-B5-u": "570ed89069328530",
    "constant-quiet-b3-K1-B1-zero": "4f551eb8f4eeefde",
    "constant-quiet-b3-K1-B1-u": "ee0e08779c55d69a",
    "constant-quiet-b3-K1-B5-zero": "0c8ab5da1fd046e3",
    "constant-quiet-b3-K1-B5-u": "224d1e41784d2f31",
    "constant-quiet-b3-K4-B1-zero": "2fa085ab8a56ac86",
    "constant-quiet-b3-K4-B1-u": "efc430b18fa79ec0",
    "constant-quiet-b3-K4-B5-zero": "b966106e9f722a64",
    "constant-quiet-b3-K4-B5-u": "e8ca7b540092a255",
    "inverse_t-noise-b0-K0-B1-zero": "860b45a198d29cbb",
    "inverse_t-noise-b0-K0-B1-u": "a45fbcfd6f242237",
    "inverse_t-noise-b0-K0-B5-zero": "e66464eeaa2e2532",
    "inverse_t-noise-b0-K0-B5-u": "0343d619ce2f151f",
    "inverse_t-noise-b0-K1-B1-zero": "57bc365a7a6d8561",
    "inverse_t-noise-b0-K1-B1-u": "10d1eddd74b2ba44",
    "inverse_t-noise-b0-K1-B5-zero": "16c0211d0f7abb8c",
    "inverse_t-noise-b0-K1-B5-u": "71dddd8c799018ae",
    "inverse_t-noise-b0-K4-B1-zero": "ad84dcd2ae86d5fd",
    "inverse_t-noise-b0-K4-B1-u": "6164193497b0bfef",
    "inverse_t-noise-b0-K4-B5-zero": "6cad042b6cc39a91",
    "inverse_t-noise-b0-K4-B5-u": "2199637b709eab50",
    "inverse_t-noise-b3-K0-B1-zero": "860b45a198d29cbb",
    "inverse_t-noise-b3-K0-B1-u": "a45fbcfd6f242237",
    "inverse_t-noise-b3-K0-B5-zero": "e66464eeaa2e2532",
    "inverse_t-noise-b3-K0-B5-u": "0343d619ce2f151f",
    "inverse_t-noise-b3-K1-B1-zero": "7374ed1813ef5781",
    "inverse_t-noise-b3-K1-B1-u": "e5bc70485e48e70f",
    "inverse_t-noise-b3-K1-B5-zero": "186a8d15bdbd9296",
    "inverse_t-noise-b3-K1-B5-u": "4cc9971ae4ebd173",
    "inverse_t-noise-b3-K4-B1-zero": "e5235dd2414fb0b0",
    "inverse_t-noise-b3-K4-B1-u": "7f660473fac97ce0",
    "inverse_t-noise-b3-K4-B5-zero": "179bcc146995664c",
    "inverse_t-noise-b3-K4-B5-u": "43af8d4635404bef",
    "inverse_t-quiet-b0-K0-B1-zero": "b8701d06e7782740",
    "inverse_t-quiet-b0-K0-B1-u": "1e3aedb2990a6269",
    "inverse_t-quiet-b0-K0-B5-zero": "f3a1c4e6c9fe3978",
    "inverse_t-quiet-b0-K0-B5-u": "c4fef4ca67c1f363",
    "inverse_t-quiet-b0-K1-B1-zero": "addf5f802ee92604",
    "inverse_t-quiet-b0-K1-B1-u": "8e83539a8672130d",
    "inverse_t-quiet-b0-K1-B5-zero": "dbe4c5034842b4ce",
    "inverse_t-quiet-b0-K1-B5-u": "dc2b649b25df8118",
    "inverse_t-quiet-b0-K4-B1-zero": "08c2547bb159b000",
    "inverse_t-quiet-b0-K4-B1-u": "9ef94dc7cfbf239b",
    "inverse_t-quiet-b0-K4-B5-zero": "8cab7f9d5dea0996",
    "inverse_t-quiet-b0-K4-B5-u": "d528ea1e46160403",
    "inverse_t-quiet-b3-K0-B1-zero": "b8701d06e7782740",
    "inverse_t-quiet-b3-K0-B1-u": "1e3aedb2990a6269",
    "inverse_t-quiet-b3-K0-B5-zero": "f3a1c4e6c9fe3978",
    "inverse_t-quiet-b3-K0-B5-u": "c4fef4ca67c1f363",
    "inverse_t-quiet-b3-K1-B1-zero": "e1d1e57f2db1d375",
    "inverse_t-quiet-b3-K1-B1-u": "4f0e29b7affb360f",
    "inverse_t-quiet-b3-K1-B5-zero": "5a7429e65608e138",
    "inverse_t-quiet-b3-K1-B5-u": "0f3bc3380fd14200",
    "inverse_t-quiet-b3-K4-B1-zero": "5ea40bcbd1d30331",
    "inverse_t-quiet-b3-K4-B1-u": "1acc455ce4b0cd41",
    "inverse_t-quiet-b3-K4-B5-zero": "2890e85b664d1a59",
    "inverse_t-quiet-b3-K4-B5-u": "ceb734a0cb12f92a",
    "exponential-noise-b0-K0-B1-zero": "46558e1c47ee1a7f",
    "exponential-noise-b0-K0-B1-u": "2f107a88ce9077c6",
    "exponential-noise-b0-K0-B5-zero": "9aa0028e25ddce2f",
    "exponential-noise-b0-K0-B5-u": "6db5b4ee94fa7aa6",
    "exponential-noise-b0-K1-B1-zero": "56b57d614b3495c8",
    "exponential-noise-b0-K1-B1-u": "fdc89d0e62791e84",
    "exponential-noise-b0-K1-B5-zero": "d0896d8ca653b84e",
    "exponential-noise-b0-K1-B5-u": "5406c6d2670b95d2",
    "exponential-noise-b0-K4-B1-zero": "e423ead3d42668f9",
    "exponential-noise-b0-K4-B1-u": "57069ca46c114eae",
    "exponential-noise-b0-K4-B5-zero": "8275c3145a3f9996",
    "exponential-noise-b0-K4-B5-u": "517bf27fb6cea37a",
    "exponential-noise-b3-K0-B1-zero": "46558e1c47ee1a7f",
    "exponential-noise-b3-K0-B1-u": "2f107a88ce9077c6",
    "exponential-noise-b3-K0-B5-zero": "9aa0028e25ddce2f",
    "exponential-noise-b3-K0-B5-u": "6db5b4ee94fa7aa6",
    "exponential-noise-b3-K1-B1-zero": "8caebd6377f1d113",
    "exponential-noise-b3-K1-B1-u": "fc4940e9b81d013d",
    "exponential-noise-b3-K1-B5-zero": "064e78fce3054d4c",
    "exponential-noise-b3-K1-B5-u": "894ac9c52994c409",
    "exponential-noise-b3-K4-B1-zero": "b916969077d020a4",
    "exponential-noise-b3-K4-B1-u": "269d2c4abd63a69e",
    "exponential-noise-b3-K4-B5-zero": "e0458519cdb698f9",
    "exponential-noise-b3-K4-B5-u": "dfe4d84639864921",
    "exponential-quiet-b0-K0-B1-zero": "0157f22c33261298",
    "exponential-quiet-b0-K0-B1-u": "bb40740d4ef507c3",
    "exponential-quiet-b0-K0-B5-zero": "153d1157c8888a9a",
    "exponential-quiet-b0-K0-B5-u": "9f62482bd4721276",
    "exponential-quiet-b0-K1-B1-zero": "8baaab2795805def",
    "exponential-quiet-b0-K1-B1-u": "63279bb33fe56cfc",
    "exponential-quiet-b0-K1-B5-zero": "feed461ed6557ed4",
    "exponential-quiet-b0-K1-B5-u": "d8106b40314ed0df",
    "exponential-quiet-b0-K4-B1-zero": "e0cfa0a1bef88fd6",
    "exponential-quiet-b0-K4-B1-u": "7b6f4c8eaad08890",
    "exponential-quiet-b0-K4-B5-zero": "7b74d18c7392244b",
    "exponential-quiet-b0-K4-B5-u": "83a445387d931a53",
    "exponential-quiet-b3-K0-B1-zero": "0157f22c33261298",
    "exponential-quiet-b3-K0-B1-u": "bb40740d4ef507c3",
    "exponential-quiet-b3-K0-B5-zero": "153d1157c8888a9a",
    "exponential-quiet-b3-K0-B5-u": "9f62482bd4721276",
    "exponential-quiet-b3-K1-B1-zero": "f045d33b94d0dc17",
    "exponential-quiet-b3-K1-B1-u": "cdfa5c392f17e112",
    "exponential-quiet-b3-K1-B5-zero": "4776cbe6dd53e3db",
    "exponential-quiet-b3-K1-B5-u": "add786030133c9e0",
    "exponential-quiet-b3-K4-B1-zero": "7f3d0ac33faf249e",
    "exponential-quiet-b3-K4-B1-u": "e54404812a92f50f",
    "exponential-quiet-b3-K4-B5-zero": "f6ef12038ae01724",
    "exponential-quiet-b3-K4-B5-u": "541edc715e3d536d",
}


@pytest.mark.parametrize("point", GRID, ids=[grid_id(*p) for p in GRID])
def test_trainer_grid_matches_pinned_records(point):
    assert grid_digest(*point) == GRID_DIGESTS[grid_id(*point)]
