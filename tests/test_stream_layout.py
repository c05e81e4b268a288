"""Pinned stream layout: digests of the CSVs of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover
the whole file, the ``#`` provenance header included: the header is a pure
function of the config and names the layout version, ``stream_layout = 7``,
the package version and, in alternate mode, ``stream_block = 256``.  Layout 7
draws an alternate run's arrays by kind, each from one stream per block of
256 epochs, ``(purpose, (t - 1) // 256)``, C-ordered with the epoch first:
the task-mean normals ``(B, dim)`` per epoch from ``P_MEANS``, the datasets'
normals ``(B, m, dim)`` from ``P_SAMPLES``, their split keys ``(B, m)`` from
``P_SPLIT``, the live inner noise ``(K, B, dim)`` from ``P_NOISE_W``, with
``inner_batch > 0`` the live minibatch keys ``(K, B, m_tr)`` from
``P_BATCH``, and the meta noise ``(dim,)`` from ``P_NOISE_U``.  An epoch with
a task mean outside the box draws its means and datasets again from ``(P_TASK,
t)``.  The evaluation draws its tasks from ``(P_TEST, t)`` and ``(P_TRAIN_PROBE,
t)``, and the joint run its datasets from ``(P_TASK, 0)`` and its noise from
``(P_NOISE_U, 0)``, as in layouts 4 to 6.  Every line of a layout-7 CSV ends
in ``\n``; before it the column header and the rows ended in ``\r\n``.
"""
import hashlib
import itertools
from dataclasses import astuple, replace

import numpy as np
import pytest

from metasgld import __version__, core, meta_sgld
from metasgld.cli import (OUTPUT_DIR_ENV_VAR, load_config_file, main, preset_path,
                          run_experiment)
from metasgld.core import (DECAY_CONSTANT, DECAY_EXPONENTIAL, DECAY_INVERSE_T,
                           P_MEANS, P_TASK, STREAM_BLOCK, RunConfig, Schedules,
                           derive_stream)
from metasgld.meta_sgld import run_meta_sgld
from metasgld.task_env import EnvironmentSpec

# preset -> SHA-256 of the CSV of a T = 6, eval_cadence = 3 run
DIGESTS = {
    "toy_8_8": "c47bef79a976eae297352c6d27f23676b683853609500980c22bde4af133ef05",
    "toy_1_15": "a2b6110d3260d91159864f4bdcdee356cd6667ffe592520033e5fd6c0d14f3ba",
    "toy_15_1": "f03a50abed531eff095bf679642a94f64e4ef44f2c74daaa2af2108a3ea8e8a4",
    "joint_demo": "14fbb8f453434fe4aa368a4a6a1289758744a9bb7eff80d8b88c951684f32f31",
}
# SHA-256 of the same run of toy_8_8 with inner_batch = 3: the live
# minibatch keys of layout 7
MINIBATCH_DIGEST = "c19a674142ab66ae5551c3f1be4bf70562529a9178e1aa78a0f415d1f60a4e80"


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
PRESET_RUNS_DIGEST = "1e70746eff0665723f515a449528c7bcdb5cb500ab3d94c7c08861ea392e3aa3"


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
    assert b"# stream_layout = 7\n" in header
    # an alternate run names its stream block length; a joint run has none
    assert (b"# stream_block = 256\n" in header) == (preset != "joint_demo")
    assert f"# version = {__version__}\n".encode() in header
    assert b"# env.mean = (-4.0, -4.0)\n" in header
    assert not [line for line in header if b"np." in line]


# ------------------------------------------------------------ the trainer grid
#
# The presets all decay at a constant rate; the grid below runs every decay
# rule, both noise settings and both batch modes over K in {0, 1, 4} and
# task batches of 1 and 5, from U = 0 and from a set init_u.  Each digest is
# the SHA-256 (first 16 hex digits) of the repr of a T = 5, eval_cadence = 2
# run's records and final U, taken with layout 7's streams.

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
    "constant-noise-b0-K0-B1-zero": "36a2d403d5f31037",
    "constant-noise-b0-K0-B1-u": "705a58779d2c7e6f",
    "constant-noise-b0-K0-B5-zero": "1142ac94feae838b",
    "constant-noise-b0-K0-B5-u": "2f1cd8a63373c131",
    "constant-noise-b0-K1-B1-zero": "8b57ed1c96f8ab10",
    "constant-noise-b0-K1-B1-u": "63ab3f142205e055",
    "constant-noise-b0-K1-B5-zero": "f9ab46d5b3b127d0",
    "constant-noise-b0-K1-B5-u": "218ab0b1ee3482a4",
    "constant-noise-b0-K4-B1-zero": "4d564972dad5977a",
    "constant-noise-b0-K4-B1-u": "6cd1eed1981b082d",
    "constant-noise-b0-K4-B5-zero": "5f1f2f496df3d477",
    "constant-noise-b0-K4-B5-u": "cc1b5c98f42f197e",
    "constant-noise-b3-K0-B1-zero": "36a2d403d5f31037",
    "constant-noise-b3-K0-B1-u": "705a58779d2c7e6f",
    "constant-noise-b3-K0-B5-zero": "1142ac94feae838b",
    "constant-noise-b3-K0-B5-u": "2f1cd8a63373c131",
    "constant-noise-b3-K1-B1-zero": "4625ef1706b3a222",
    "constant-noise-b3-K1-B1-u": "26e472f5c75ce80a",
    "constant-noise-b3-K1-B5-zero": "efbf292df0e207fa",
    "constant-noise-b3-K1-B5-u": "378355f98b8bd2c2",
    "constant-noise-b3-K4-B1-zero": "34f55b8a3673521e",
    "constant-noise-b3-K4-B1-u": "5a53f1c44a3cc3c5",
    "constant-noise-b3-K4-B5-zero": "694faffca6470321",
    "constant-noise-b3-K4-B5-u": "2efa81239066aedb",
    "constant-quiet-b0-K0-B1-zero": "07fad34e4fe9ae0d",
    "constant-quiet-b0-K0-B1-u": "078fae3b8c9355f8",
    "constant-quiet-b0-K0-B5-zero": "0c50fea8297832cc",
    "constant-quiet-b0-K0-B5-u": "05cdbd61f6f6c76c",
    "constant-quiet-b0-K1-B1-zero": "dc5535eef9be8561",
    "constant-quiet-b0-K1-B1-u": "cadaf2fe87f27fdf",
    "constant-quiet-b0-K1-B5-zero": "dfb594095a41699e",
    "constant-quiet-b0-K1-B5-u": "d9e73b43bcf962db",
    "constant-quiet-b0-K4-B1-zero": "fc56d526f726257e",
    "constant-quiet-b0-K4-B1-u": "9140ac261941db9a",
    "constant-quiet-b0-K4-B5-zero": "299532013a67475f",
    "constant-quiet-b0-K4-B5-u": "9da67eb36696c6e1",
    "constant-quiet-b3-K0-B1-zero": "07fad34e4fe9ae0d",
    "constant-quiet-b3-K0-B1-u": "078fae3b8c9355f8",
    "constant-quiet-b3-K0-B5-zero": "0c50fea8297832cc",
    "constant-quiet-b3-K0-B5-u": "05cdbd61f6f6c76c",
    "constant-quiet-b3-K1-B1-zero": "9280a5e3e68abb95",
    "constant-quiet-b3-K1-B1-u": "342064a4f586fd0a",
    "constant-quiet-b3-K1-B5-zero": "8be6c11b08e629e2",
    "constant-quiet-b3-K1-B5-u": "a8825c10241f4bc3",
    "constant-quiet-b3-K4-B1-zero": "62b934cd458e299e",
    "constant-quiet-b3-K4-B1-u": "cb855cd7845bd9d0",
    "constant-quiet-b3-K4-B5-zero": "730e9da6d53e358e",
    "constant-quiet-b3-K4-B5-u": "9520618c50f087c9",
    "inverse_t-noise-b0-K0-B1-zero": "7d1ccbe6a8ac7a8d",
    "inverse_t-noise-b0-K0-B1-u": "7508d1ce932c05e9",
    "inverse_t-noise-b0-K0-B5-zero": "0dade27125494714",
    "inverse_t-noise-b0-K0-B5-u": "2b0f89a14cb07ad6",
    "inverse_t-noise-b0-K1-B1-zero": "29df4fceca8246f5",
    "inverse_t-noise-b0-K1-B1-u": "57cfc75544474256",
    "inverse_t-noise-b0-K1-B5-zero": "8625f7bf2030d4cc",
    "inverse_t-noise-b0-K1-B5-u": "c87f50db4f47da59",
    "inverse_t-noise-b0-K4-B1-zero": "a5bba5ded2b61525",
    "inverse_t-noise-b0-K4-B1-u": "34e0a1cac1926fdb",
    "inverse_t-noise-b0-K4-B5-zero": "92664b4d5e09f7b5",
    "inverse_t-noise-b0-K4-B5-u": "89aed47a5a00eb5f",
    "inverse_t-noise-b3-K0-B1-zero": "7d1ccbe6a8ac7a8d",
    "inverse_t-noise-b3-K0-B1-u": "7508d1ce932c05e9",
    "inverse_t-noise-b3-K0-B5-zero": "0dade27125494714",
    "inverse_t-noise-b3-K0-B5-u": "2b0f89a14cb07ad6",
    "inverse_t-noise-b3-K1-B1-zero": "108106b26d8e3f3f",
    "inverse_t-noise-b3-K1-B1-u": "8943f213c2d4432f",
    "inverse_t-noise-b3-K1-B5-zero": "3183f984d1161774",
    "inverse_t-noise-b3-K1-B5-u": "10d0b3078a800f51",
    "inverse_t-noise-b3-K4-B1-zero": "9d859ca77b0ef27f",
    "inverse_t-noise-b3-K4-B1-u": "c4b844b7615a2b7b",
    "inverse_t-noise-b3-K4-B5-zero": "ad20939de204275a",
    "inverse_t-noise-b3-K4-B5-u": "68572109ce1c62ef",
    "inverse_t-quiet-b0-K0-B1-zero": "a4b4babcef660ca6",
    "inverse_t-quiet-b0-K0-B1-u": "ab96921dbaf93e8b",
    "inverse_t-quiet-b0-K0-B5-zero": "49efa51bd497a2ef",
    "inverse_t-quiet-b0-K0-B5-u": "c316f1663e67d69c",
    "inverse_t-quiet-b0-K1-B1-zero": "c103c678c16fcb8e",
    "inverse_t-quiet-b0-K1-B1-u": "f88942c72c4fe479",
    "inverse_t-quiet-b0-K1-B5-zero": "bda7d869ff50d997",
    "inverse_t-quiet-b0-K1-B5-u": "8697df39b624b038",
    "inverse_t-quiet-b0-K4-B1-zero": "0dd2330eb16998ef",
    "inverse_t-quiet-b0-K4-B1-u": "ad4a150d4ecfc453",
    "inverse_t-quiet-b0-K4-B5-zero": "48d34ffcaa7fe3a8",
    "inverse_t-quiet-b0-K4-B5-u": "5b1485623b366cc5",
    "inverse_t-quiet-b3-K0-B1-zero": "a4b4babcef660ca6",
    "inverse_t-quiet-b3-K0-B1-u": "ab96921dbaf93e8b",
    "inverse_t-quiet-b3-K0-B5-zero": "49efa51bd497a2ef",
    "inverse_t-quiet-b3-K0-B5-u": "c316f1663e67d69c",
    "inverse_t-quiet-b3-K1-B1-zero": "721f5d5e8e5e35de",
    "inverse_t-quiet-b3-K1-B1-u": "d8ccbb60df9c88de",
    "inverse_t-quiet-b3-K1-B5-zero": "e82ec5003cfefecf",
    "inverse_t-quiet-b3-K1-B5-u": "44f4872df900028c",
    "inverse_t-quiet-b3-K4-B1-zero": "c65d7c0be7b37d0d",
    "inverse_t-quiet-b3-K4-B1-u": "263365406ff0a923",
    "inverse_t-quiet-b3-K4-B5-zero": "9d391951ccb660a8",
    "inverse_t-quiet-b3-K4-B5-u": "53de7514b8cf6576",
    "exponential-noise-b0-K0-B1-zero": "c15145403498826f",
    "exponential-noise-b0-K0-B1-u": "c9de326599d47539",
    "exponential-noise-b0-K0-B5-zero": "bac341ebb91e964a",
    "exponential-noise-b0-K0-B5-u": "77bb82af2f3ad2e9",
    "exponential-noise-b0-K1-B1-zero": "0dc8f551810cd837",
    "exponential-noise-b0-K1-B1-u": "3d55c28029ffb219",
    "exponential-noise-b0-K1-B5-zero": "a42962620e64ea9e",
    "exponential-noise-b0-K1-B5-u": "59586095f8137907",
    "exponential-noise-b0-K4-B1-zero": "f725a149e361206b",
    "exponential-noise-b0-K4-B1-u": "3ba3ef73c7f7599d",
    "exponential-noise-b0-K4-B5-zero": "de8f7552c5659f19",
    "exponential-noise-b0-K4-B5-u": "4994bfb542ad8e04",
    "exponential-noise-b3-K0-B1-zero": "c15145403498826f",
    "exponential-noise-b3-K0-B1-u": "c9de326599d47539",
    "exponential-noise-b3-K0-B5-zero": "bac341ebb91e964a",
    "exponential-noise-b3-K0-B5-u": "77bb82af2f3ad2e9",
    "exponential-noise-b3-K1-B1-zero": "40fda88d5b3ef25e",
    "exponential-noise-b3-K1-B1-u": "c122950a8eca12b6",
    "exponential-noise-b3-K1-B5-zero": "6406dd0100711fe7",
    "exponential-noise-b3-K1-B5-u": "10731a3bcafb93ec",
    "exponential-noise-b3-K4-B1-zero": "8031bb479dfecfbe",
    "exponential-noise-b3-K4-B1-u": "6af852e5fbd2702f",
    "exponential-noise-b3-K4-B5-zero": "002ea89659c5907f",
    "exponential-noise-b3-K4-B5-u": "bd1ae919a12bab7e",
    "exponential-quiet-b0-K0-B1-zero": "bdef3ef7cbb75bde",
    "exponential-quiet-b0-K0-B1-u": "f1aa9508f83a59f4",
    "exponential-quiet-b0-K0-B5-zero": "0893c5a73c315b92",
    "exponential-quiet-b0-K0-B5-u": "873ece26619bb0fa",
    "exponential-quiet-b0-K1-B1-zero": "0b3550c208febd14",
    "exponential-quiet-b0-K1-B1-u": "63147e5e4bd4c182",
    "exponential-quiet-b0-K1-B5-zero": "ecf288ecc45504ab",
    "exponential-quiet-b0-K1-B5-u": "a8c19fce2e8247df",
    "exponential-quiet-b0-K4-B1-zero": "d7379c6f9b1c00f4",
    "exponential-quiet-b0-K4-B1-u": "16d3bb56df65f906",
    "exponential-quiet-b0-K4-B5-zero": "03fd223985e0a415",
    "exponential-quiet-b0-K4-B5-u": "10370b3f4cdeff74",
    "exponential-quiet-b3-K0-B1-zero": "bdef3ef7cbb75bde",
    "exponential-quiet-b3-K0-B1-u": "f1aa9508f83a59f4",
    "exponential-quiet-b3-K0-B5-zero": "0893c5a73c315b92",
    "exponential-quiet-b3-K0-B5-u": "873ece26619bb0fa",
    "exponential-quiet-b3-K1-B1-zero": "20395caa113485cc",
    "exponential-quiet-b3-K1-B1-u": "70051aac8bdad7d1",
    "exponential-quiet-b3-K1-B5-zero": "4d8c0759af0b2bbf",
    "exponential-quiet-b3-K1-B5-u": "6ba070f82c3b24f0",
    "exponential-quiet-b3-K4-B1-zero": "5871492ad012755f",
    "exponential-quiet-b3-K4-B1-u": "682b30d55a4127a0",
    "exponential-quiet-b3-K4-B5-zero": "10b31fff78a2a19f",
    "exponential-quiet-b3-K4-B5-u": "3a0fab5dd6dd7081",
}


@pytest.mark.parametrize("point", GRID, ids=[grid_id(*p) for p in GRID])
def test_trainer_grid_matches_pinned_records(point):
    assert grid_digest(*point) == GRID_DIGESTS[grid_id(*point)]


# ------------------------------------------------------------ prefixes
#
# A run's draws for epoch t do not depend on T or on the run's block length,
# so a run of T epochs gives the first T records of a longer run.

def preset_records(preset, T, cadence, **run):
    cfg = load_config_file(preset_path(preset))
    records, u = run_meta_sgld(replace(cfg.run, T=T, **run), cfg.env, eval_cadence=cadence)
    return [repr(astuple(r)) for r in records], u


@pytest.mark.parametrize("block", (None, 7))
@pytest.mark.parametrize("inner_batch", (0, 3))
def test_short_run_is_a_prefix_of_a_long_run(inner_batch, block, monkeypatch):
    # a run block of 7 epochs ends inside the streams' blocks and, at T = 300,
    # holds epochs on both sides of epoch 256
    want, want_u = preset_records("toy_8_8", 300, 10, inner_batch=inner_batch)
    if block is not None:
        monkeypatch.setattr(meta_sgld, "BLOCK", block)
    short, _ = preset_records("toy_8_8", 50, 10, inner_batch=inner_batch)
    long, u = preset_records("toy_8_8", 300, 10, inner_batch=inner_batch)
    assert len(short) == 50 and short == want[:50]
    assert long == want and u.tobytes() == want_u.tobytes()


@pytest.mark.parametrize("inner_batch", (0, 3))
def test_run_builds_two_generators_per_purpose_and_one_per_redraw(inner_batch, monkeypatch):
    # each array kind comes from one (purpose, block) stream, so 300 epochs
    # build two generators per purpose (five, six with minibatches); an epoch
    # with a task mean outside the box (175 and 182 at seed 1) draws again
    # from a (P_TASK, t) stream of its own
    cfg = load_config_file(preset_path("toy_8_8"))
    run, env = replace(cfg.run, T=300, inner_batch=inner_batch), cfg.env
    z = np.concatenate([derive_stream(run.seed, (P_MEANS, block)).standard_normal(
        (STREAM_BLOCK, run.task_batch, env.dim)) for block in (0, 1)])[:300]
    mus = env.env_mean + np.sqrt(env.env_cov_scale) * z
    inside = np.all((mus >= env.trunc_lo) & (mus <= env.trunc_hi), axis=(1, 2))
    redrawn = (np.flatnonzero(~inside) + 1).tolist()
    assert run.seed == 1 and redrawn == [175, 182]
    paths = []

    def counted(seed, path):
        paths.append(tuple(path))
        return derive_stream(seed, path)

    monkeypatch.setattr(core, "derive_stream", counted)
    monkeypatch.setattr(meta_sgld, "derive_stream", counted)
    run_meta_sgld(run, env, eval_cadence=10)
    purposes = 6 if inner_batch else 5
    assert len(paths) == 2 * purposes + len(redrawn)
    assert [p for p in paths if p[0] == P_TASK] == [(P_TASK, t) for t in redrawn]
