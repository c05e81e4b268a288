"""Pinned stream layout: digests of the CSVs of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover
the whole file, the ``#`` provenance header included: the header is a pure
function of the config and names the layout version, ``stream_layout = 8``,
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
Layout 8 draws an evaluation's tasks already split: after the means, one
``(n, m, dim)`` normals array on the test side, rows ``:m_tr`` tr and
``m_tr:`` va, and only ``(n, m_tr, dim)`` on the train side, with no split
keys; only the ``train_loss``, ``test_loss`` and ``gap`` cells moved.
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
    "toy_8_8": "a0de80af0ead0ffedd5a1d37adfeb4623a0f3d6e4bc55b2394fb94696ee8a3a2",
    "toy_1_15": "98cc598c26f635dcd28eebfd4829ab804c8c50a53542bccf104ea2806521b644",
    "toy_15_1": "9254c4fbee1d22dd31578affe125810f5b74d675c37aebb7b0030d81bb8af541",
    "joint_demo": "1e47f42311d1d1e0a5e23980b3e0c27d6e7b022482fa7a478bbec8039577211d",
}
# SHA-256 of the same run of toy_8_8 with inner_batch = 3: the live
# minibatch keys of layout 7, the gap evaluations of layout 8
MINIBATCH_DIGEST = "07ea212dca7bf07ca9118d40192f539face193f56a431885ad77102396bbda84"


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
PRESET_RUNS_DIGEST = "d6276c27471d4039c929de43d034683f5cc5ce75f4d4a4b5add8711a61955000"


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
    assert b"# stream_layout = 8\n" in header
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
# run's records and final U, taken with layout 8's streams.

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
    "constant-noise-b0-K0-B1-zero": "0d2bf7a8abe7da31",
    "constant-noise-b0-K0-B1-u": "d4e50c5cf37c403d",
    "constant-noise-b0-K0-B5-zero": "3ea78b3a8bdba9c3",
    "constant-noise-b0-K0-B5-u": "8d1846db2241d52d",
    "constant-noise-b0-K1-B1-zero": "99d6801c51896ce2",
    "constant-noise-b0-K1-B1-u": "3d8cb773a3de8231",
    "constant-noise-b0-K1-B5-zero": "f0b6a03e8fd3d629",
    "constant-noise-b0-K1-B5-u": "1af0631f0a166c15",
    "constant-noise-b0-K4-B1-zero": "97c9a834a03c8168",
    "constant-noise-b0-K4-B1-u": "599d6b62f2d2f0dc",
    "constant-noise-b0-K4-B5-zero": "b9f89febe5b73e13",
    "constant-noise-b0-K4-B5-u": "70ba6ae5e29ae145",
    "constant-noise-b3-K0-B1-zero": "0d2bf7a8abe7da31",
    "constant-noise-b3-K0-B1-u": "d4e50c5cf37c403d",
    "constant-noise-b3-K0-B5-zero": "3ea78b3a8bdba9c3",
    "constant-noise-b3-K0-B5-u": "8d1846db2241d52d",
    "constant-noise-b3-K1-B1-zero": "bb2b1e5f677271c5",
    "constant-noise-b3-K1-B1-u": "d93f7edda288f654",
    "constant-noise-b3-K1-B5-zero": "f5c5cef9a03df290",
    "constant-noise-b3-K1-B5-u": "dce03449af536ce1",
    "constant-noise-b3-K4-B1-zero": "fc1bb391cab7ee3e",
    "constant-noise-b3-K4-B1-u": "3bb598e6fa3b2075",
    "constant-noise-b3-K4-B5-zero": "73e22f075491a94d",
    "constant-noise-b3-K4-B5-u": "4e5588cdbe9f609a",
    "constant-quiet-b0-K0-B1-zero": "cc242e6bcdc9b16c",
    "constant-quiet-b0-K0-B1-u": "e7cda68f4393e49d",
    "constant-quiet-b0-K0-B5-zero": "d23e0cf74f10b901",
    "constant-quiet-b0-K0-B5-u": "b3c13d650cfcefcc",
    "constant-quiet-b0-K1-B1-zero": "cc92264f0580cf9c",
    "constant-quiet-b0-K1-B1-u": "c034c5fb5f839cea",
    "constant-quiet-b0-K1-B5-zero": "c8b1fd609955c3e9",
    "constant-quiet-b0-K1-B5-u": "55f72bd26d986d26",
    "constant-quiet-b0-K4-B1-zero": "26fcb9081021cdbb",
    "constant-quiet-b0-K4-B1-u": "06daa8fea4f61067",
    "constant-quiet-b0-K4-B5-zero": "26f32dbafc1111da",
    "constant-quiet-b0-K4-B5-u": "fff4071d52e63358",
    "constant-quiet-b3-K0-B1-zero": "cc242e6bcdc9b16c",
    "constant-quiet-b3-K0-B1-u": "e7cda68f4393e49d",
    "constant-quiet-b3-K0-B5-zero": "d23e0cf74f10b901",
    "constant-quiet-b3-K0-B5-u": "b3c13d650cfcefcc",
    "constant-quiet-b3-K1-B1-zero": "c4d5d3e17062dc22",
    "constant-quiet-b3-K1-B1-u": "75be1a164ff72c88",
    "constant-quiet-b3-K1-B5-zero": "7445b58a2bfa5a8a",
    "constant-quiet-b3-K1-B5-u": "f33aab6a82c7985f",
    "constant-quiet-b3-K4-B1-zero": "89f33fb964e7213f",
    "constant-quiet-b3-K4-B1-u": "bb7f194ebbf7978c",
    "constant-quiet-b3-K4-B5-zero": "71424a0b8960f1e4",
    "constant-quiet-b3-K4-B5-u": "a8059eb57667e124",
    "inverse_t-noise-b0-K0-B1-zero": "e1400042e45b9927",
    "inverse_t-noise-b0-K0-B1-u": "fe76acc57e09d6b8",
    "inverse_t-noise-b0-K0-B5-zero": "316495381c09f3e2",
    "inverse_t-noise-b0-K0-B5-u": "cf6a925587ec97c6",
    "inverse_t-noise-b0-K1-B1-zero": "6e2912cbd3fef957",
    "inverse_t-noise-b0-K1-B1-u": "0b1906b4fa1be3e5",
    "inverse_t-noise-b0-K1-B5-zero": "217ce70509b645e7",
    "inverse_t-noise-b0-K1-B5-u": "d2e841defbcb175f",
    "inverse_t-noise-b0-K4-B1-zero": "0da14729b3fe42c1",
    "inverse_t-noise-b0-K4-B1-u": "bbd52a4f126ebc3c",
    "inverse_t-noise-b0-K4-B5-zero": "dec3e5709e57b6e8",
    "inverse_t-noise-b0-K4-B5-u": "b160284730218f44",
    "inverse_t-noise-b3-K0-B1-zero": "e1400042e45b9927",
    "inverse_t-noise-b3-K0-B1-u": "fe76acc57e09d6b8",
    "inverse_t-noise-b3-K0-B5-zero": "316495381c09f3e2",
    "inverse_t-noise-b3-K0-B5-u": "cf6a925587ec97c6",
    "inverse_t-noise-b3-K1-B1-zero": "12ccd7dcaaf8e315",
    "inverse_t-noise-b3-K1-B1-u": "efd84f016c5d397c",
    "inverse_t-noise-b3-K1-B5-zero": "784e0bb2f65f136c",
    "inverse_t-noise-b3-K1-B5-u": "a02033bef9ed39ec",
    "inverse_t-noise-b3-K4-B1-zero": "ae58a8e2fdb1b4fd",
    "inverse_t-noise-b3-K4-B1-u": "8ec181902be46ff3",
    "inverse_t-noise-b3-K4-B5-zero": "29a08d12611f0316",
    "inverse_t-noise-b3-K4-B5-u": "aa36e98aebf650cb",
    "inverse_t-quiet-b0-K0-B1-zero": "7fed70f5143ca4c1",
    "inverse_t-quiet-b0-K0-B1-u": "90ad303d4cc990d6",
    "inverse_t-quiet-b0-K0-B5-zero": "ebd76b3f59d80f54",
    "inverse_t-quiet-b0-K0-B5-u": "d67eff53872cac22",
    "inverse_t-quiet-b0-K1-B1-zero": "e7cdbdca3ae36d24",
    "inverse_t-quiet-b0-K1-B1-u": "ab14d07e2be9fcc3",
    "inverse_t-quiet-b0-K1-B5-zero": "e6604599878be80d",
    "inverse_t-quiet-b0-K1-B5-u": "599fd06e1f00a9d7",
    "inverse_t-quiet-b0-K4-B1-zero": "b59d3c992110575b",
    "inverse_t-quiet-b0-K4-B1-u": "0915ed6ed6385759",
    "inverse_t-quiet-b0-K4-B5-zero": "974927c7596c62f3",
    "inverse_t-quiet-b0-K4-B5-u": "2575cc30dce7f800",
    "inverse_t-quiet-b3-K0-B1-zero": "7fed70f5143ca4c1",
    "inverse_t-quiet-b3-K0-B1-u": "90ad303d4cc990d6",
    "inverse_t-quiet-b3-K0-B5-zero": "ebd76b3f59d80f54",
    "inverse_t-quiet-b3-K0-B5-u": "d67eff53872cac22",
    "inverse_t-quiet-b3-K1-B1-zero": "f33dcd08113a93ad",
    "inverse_t-quiet-b3-K1-B1-u": "49d0af46e1e703d9",
    "inverse_t-quiet-b3-K1-B5-zero": "c006eb64484dc75c",
    "inverse_t-quiet-b3-K1-B5-u": "7990fc4d0b08b993",
    "inverse_t-quiet-b3-K4-B1-zero": "4b7e6967e22a6f43",
    "inverse_t-quiet-b3-K4-B1-u": "fbf954bca0367f90",
    "inverse_t-quiet-b3-K4-B5-zero": "1b3d62e5100d982b",
    "inverse_t-quiet-b3-K4-B5-u": "c72ec5cb8d90b790",
    "exponential-noise-b0-K0-B1-zero": "6ece982d17720cc6",
    "exponential-noise-b0-K0-B1-u": "0e27ba6ff1795059",
    "exponential-noise-b0-K0-B5-zero": "3ff09c8bc73ea13e",
    "exponential-noise-b0-K0-B5-u": "362e0a3d120b0c8e",
    "exponential-noise-b0-K1-B1-zero": "4be526eda1ab8354",
    "exponential-noise-b0-K1-B1-u": "cc48249ffd7c5aa0",
    "exponential-noise-b0-K1-B5-zero": "ba845d6b850dac41",
    "exponential-noise-b0-K1-B5-u": "6170815b4f5cf630",
    "exponential-noise-b0-K4-B1-zero": "f6111aab8025b618",
    "exponential-noise-b0-K4-B1-u": "bdb849bd26f289f6",
    "exponential-noise-b0-K4-B5-zero": "35c19965974f0783",
    "exponential-noise-b0-K4-B5-u": "1971db050d11d2bb",
    "exponential-noise-b3-K0-B1-zero": "6ece982d17720cc6",
    "exponential-noise-b3-K0-B1-u": "0e27ba6ff1795059",
    "exponential-noise-b3-K0-B5-zero": "3ff09c8bc73ea13e",
    "exponential-noise-b3-K0-B5-u": "362e0a3d120b0c8e",
    "exponential-noise-b3-K1-B1-zero": "0d860ed2eab1f54a",
    "exponential-noise-b3-K1-B1-u": "ad6021381d29ca00",
    "exponential-noise-b3-K1-B5-zero": "7ee710a342243f49",
    "exponential-noise-b3-K1-B5-u": "c16d4fd51347534c",
    "exponential-noise-b3-K4-B1-zero": "66192fbcb0f30d4f",
    "exponential-noise-b3-K4-B1-u": "3a14335000421d0b",
    "exponential-noise-b3-K4-B5-zero": "2bc0d541d43bfa26",
    "exponential-noise-b3-K4-B5-u": "727876cb1d47b160",
    "exponential-quiet-b0-K0-B1-zero": "6e0bfda65dde1145",
    "exponential-quiet-b0-K0-B1-u": "aec8e519653773b8",
    "exponential-quiet-b0-K0-B5-zero": "68e075ec43c1c2dd",
    "exponential-quiet-b0-K0-B5-u": "f8a5810871e78fed",
    "exponential-quiet-b0-K1-B1-zero": "7958b30d3c4debf8",
    "exponential-quiet-b0-K1-B1-u": "0c6918e24dd9e9ae",
    "exponential-quiet-b0-K1-B5-zero": "63a0c978b4db1beb",
    "exponential-quiet-b0-K1-B5-u": "86e0a8e407aa30ee",
    "exponential-quiet-b0-K4-B1-zero": "9cc3cfa55627650e",
    "exponential-quiet-b0-K4-B1-u": "eccd43987203d5c6",
    "exponential-quiet-b0-K4-B5-zero": "ac6f626334f069a8",
    "exponential-quiet-b0-K4-B5-u": "d90a5199aefed3e8",
    "exponential-quiet-b3-K0-B1-zero": "6e0bfda65dde1145",
    "exponential-quiet-b3-K0-B1-u": "aec8e519653773b8",
    "exponential-quiet-b3-K0-B5-zero": "68e075ec43c1c2dd",
    "exponential-quiet-b3-K0-B5-u": "f8a5810871e78fed",
    "exponential-quiet-b3-K1-B1-zero": "52d7e41946c98896",
    "exponential-quiet-b3-K1-B1-u": "daf36a7c0f61b119",
    "exponential-quiet-b3-K1-B5-zero": "be2eca6bb2645c93",
    "exponential-quiet-b3-K1-B5-u": "b28a4793af4e0186",
    "exponential-quiet-b3-K4-B1-zero": "2f8ed525f0a4453c",
    "exponential-quiet-b3-K4-B1-u": "df5416d4fc57e6dc",
    "exponential-quiet-b3-K4-B5-zero": "a2e1d4219af3a512",
    "exponential-quiet-b3-K4-B5-u": "4cc09cdc0895bbca",
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
