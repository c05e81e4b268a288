"""Pinned stream layout: digests of the CSVs of short preset runs.

Every number a run prints follows from the addresses of its random streams
and from the order in which each stream is read.  The digests below cover
the whole file, the ``#`` provenance header included: the header is a pure
function of the config and names the layout version, ``stream_layout = 9``,
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
Layout 9 draws each evaluation task's sufficient statistics, not its rows:
after the means, one ``(n, s, dim)`` normals array, ``s = 2`` on the test side
(the tr-mean and the va-mean noise) and ``s = 1`` on the train side (the
tr-mean noise), then, when the scored split has ``k >= 2`` rows, ``n``
chi-squares with ``dim (k - 1)`` degrees of freedom, the scored rows'
scatter; again only the ``train_loss``, ``test_loss`` and ``gap`` cells
moved.
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
                           P_MEANS, P_TASK, P_TEST, P_TRAIN_PROBE, STREAM_BLOCK,
                           RunConfig, Schedules, derive_stream)
from metasgld.meta_sgld import run_meta_sgld
from metasgld.task_env import EnvironmentSpec

# preset -> SHA-256 of the CSV of a T = 6, eval_cadence = 3 run
DIGESTS = {
    "toy_8_8": "a0129745d4adb33bf8a9e52211444a41f37172c4fd74e8c7370e3826c40311be",
    "toy_1_15": "9ef43fdcf31c6ed4ed27c25b44a9d5dd2629156dcd64afe42b14b1b784bf1fe6",
    "toy_15_1": "946407796a76ae399bad72d9ceecc78eac42234fad6248837dd99e57f3598283",
    "joint_demo": "119e53bfff1fc5f3a12dfdf7f14019c495f0df453d2a1715772612d61ab354e4",
}
# SHA-256 of the same run of toy_8_8 with inner_batch = 3: the live
# minibatch keys of layout 7, the gap evaluations of layout 9
MINIBATCH_DIGEST = "e774ef5fe1cdaeb86bdbc5621cd809c82d2bf168b8bf1f78ebd145c4c2cdd9de"


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
PRESET_RUNS_DIGEST = "7e0b5a6325ec16014935bcacec0c5512dc462d5b90ed7e2efbae1eb53ca56470"


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
    assert b"# stream_layout = 9\n" in header
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
# run's records and final U, taken with layout 9's streams.

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
    "constant-noise-b0-K0-B1-zero": "4649e36df85f0a7f",
    "constant-noise-b0-K0-B1-u": "b693d34c85b3f612",
    "constant-noise-b0-K0-B5-zero": "39f2f605f84ba848",
    "constant-noise-b0-K0-B5-u": "0d910b45830fb4d3",
    "constant-noise-b0-K1-B1-zero": "7f4730d799df1ca3",
    "constant-noise-b0-K1-B1-u": "15ef80696a7dce3a",
    "constant-noise-b0-K1-B5-zero": "ccf667ede4f6c980",
    "constant-noise-b0-K1-B5-u": "284aa30841762314",
    "constant-noise-b0-K4-B1-zero": "229ee58f6b5a9fe5",
    "constant-noise-b0-K4-B1-u": "cd60c57831c27b0f",
    "constant-noise-b0-K4-B5-zero": "2704156d117e21d2",
    "constant-noise-b0-K4-B5-u": "f6bb746a37c7e226",
    "constant-noise-b3-K0-B1-zero": "4649e36df85f0a7f",
    "constant-noise-b3-K0-B1-u": "b693d34c85b3f612",
    "constant-noise-b3-K0-B5-zero": "39f2f605f84ba848",
    "constant-noise-b3-K0-B5-u": "0d910b45830fb4d3",
    "constant-noise-b3-K1-B1-zero": "e54d0c474b7b16f3",
    "constant-noise-b3-K1-B1-u": "72120db330256d6b",
    "constant-noise-b3-K1-B5-zero": "b08c4bc17c0be668",
    "constant-noise-b3-K1-B5-u": "faa6bbbd82744b86",
    "constant-noise-b3-K4-B1-zero": "ae33f6e9629101ed",
    "constant-noise-b3-K4-B1-u": "d171e0e54b363006",
    "constant-noise-b3-K4-B5-zero": "fcbb336669e3c03f",
    "constant-noise-b3-K4-B5-u": "c2c1ab8aec7aceb1",
    "constant-quiet-b0-K0-B1-zero": "4b173287a6cb4110",
    "constant-quiet-b0-K0-B1-u": "91eae456e67c272c",
    "constant-quiet-b0-K0-B5-zero": "bf2aba8c215f8392",
    "constant-quiet-b0-K0-B5-u": "1e7e1a6332f121ea",
    "constant-quiet-b0-K1-B1-zero": "e9ee78a896ed0bb7",
    "constant-quiet-b0-K1-B1-u": "2f8d6b6d2c9d8322",
    "constant-quiet-b0-K1-B5-zero": "86e5ba9bdad135ad",
    "constant-quiet-b0-K1-B5-u": "dd408464d21beb23",
    "constant-quiet-b0-K4-B1-zero": "2df811bb28633839",
    "constant-quiet-b0-K4-B1-u": "d1bd341600e626c2",
    "constant-quiet-b0-K4-B5-zero": "dc76fc2f07dd03ca",
    "constant-quiet-b0-K4-B5-u": "13a452b51b57d11e",
    "constant-quiet-b3-K0-B1-zero": "4b173287a6cb4110",
    "constant-quiet-b3-K0-B1-u": "91eae456e67c272c",
    "constant-quiet-b3-K0-B5-zero": "bf2aba8c215f8392",
    "constant-quiet-b3-K0-B5-u": "1e7e1a6332f121ea",
    "constant-quiet-b3-K1-B1-zero": "7466f54f1f86dec2",
    "constant-quiet-b3-K1-B1-u": "9fff9d6dbc799e91",
    "constant-quiet-b3-K1-B5-zero": "bd824ca5a1c30f3b",
    "constant-quiet-b3-K1-B5-u": "94fb81524d35913c",
    "constant-quiet-b3-K4-B1-zero": "137a40f71a6913bb",
    "constant-quiet-b3-K4-B1-u": "3d1d2684ecc458e8",
    "constant-quiet-b3-K4-B5-zero": "d6a949329a824aaf",
    "constant-quiet-b3-K4-B5-u": "b09b37daa82c6c97",
    "inverse_t-noise-b0-K0-B1-zero": "4a3b9647e98ce2c3",
    "inverse_t-noise-b0-K0-B1-u": "31d42da15e604dbd",
    "inverse_t-noise-b0-K0-B5-zero": "570b182cce1e6ad0",
    "inverse_t-noise-b0-K0-B5-u": "5bbc1c4c3fabacd8",
    "inverse_t-noise-b0-K1-B1-zero": "b6231b28f5c244af",
    "inverse_t-noise-b0-K1-B1-u": "b29e3504341fc3d3",
    "inverse_t-noise-b0-K1-B5-zero": "83ccb01ff03e29b2",
    "inverse_t-noise-b0-K1-B5-u": "de5009847f722080",
    "inverse_t-noise-b0-K4-B1-zero": "ef0d7464debbe802",
    "inverse_t-noise-b0-K4-B1-u": "ee922e4723f8a960",
    "inverse_t-noise-b0-K4-B5-zero": "a39b4a279e17c326",
    "inverse_t-noise-b0-K4-B5-u": "934a26afc9eab6ab",
    "inverse_t-noise-b3-K0-B1-zero": "4a3b9647e98ce2c3",
    "inverse_t-noise-b3-K0-B1-u": "31d42da15e604dbd",
    "inverse_t-noise-b3-K0-B5-zero": "570b182cce1e6ad0",
    "inverse_t-noise-b3-K0-B5-u": "5bbc1c4c3fabacd8",
    "inverse_t-noise-b3-K1-B1-zero": "4acc933f64d5ec0c",
    "inverse_t-noise-b3-K1-B1-u": "6c6bf0dcb49f4d47",
    "inverse_t-noise-b3-K1-B5-zero": "cba3844cb232d40f",
    "inverse_t-noise-b3-K1-B5-u": "b99b4bea34e715a4",
    "inverse_t-noise-b3-K4-B1-zero": "2804f78416f99a69",
    "inverse_t-noise-b3-K4-B1-u": "a400c1addd7349f1",
    "inverse_t-noise-b3-K4-B5-zero": "f589b4052b78dd30",
    "inverse_t-noise-b3-K4-B5-u": "35ec3f11a35252b9",
    "inverse_t-quiet-b0-K0-B1-zero": "3e69c764ba8f0042",
    "inverse_t-quiet-b0-K0-B1-u": "8c9c96dc8b5226b9",
    "inverse_t-quiet-b0-K0-B5-zero": "c6b3b7fa3983c170",
    "inverse_t-quiet-b0-K0-B5-u": "1f32a44e238052be",
    "inverse_t-quiet-b0-K1-B1-zero": "a8b1eebc1bbec294",
    "inverse_t-quiet-b0-K1-B1-u": "3e115aaec2a6bf19",
    "inverse_t-quiet-b0-K1-B5-zero": "0e3c7705050c7ab8",
    "inverse_t-quiet-b0-K1-B5-u": "cf57de095a843a4f",
    "inverse_t-quiet-b0-K4-B1-zero": "d4d90420e6d3e1dd",
    "inverse_t-quiet-b0-K4-B1-u": "253c990916972088",
    "inverse_t-quiet-b0-K4-B5-zero": "6f11b634fbeddd5e",
    "inverse_t-quiet-b0-K4-B5-u": "49d61c503ccdf5fd",
    "inverse_t-quiet-b3-K0-B1-zero": "3e69c764ba8f0042",
    "inverse_t-quiet-b3-K0-B1-u": "8c9c96dc8b5226b9",
    "inverse_t-quiet-b3-K0-B5-zero": "c6b3b7fa3983c170",
    "inverse_t-quiet-b3-K0-B5-u": "1f32a44e238052be",
    "inverse_t-quiet-b3-K1-B1-zero": "6ed9fda081aa1d06",
    "inverse_t-quiet-b3-K1-B1-u": "9a3948cf0d72d9c2",
    "inverse_t-quiet-b3-K1-B5-zero": "889e23e6c6f290a3",
    "inverse_t-quiet-b3-K1-B5-u": "7e190c1adfa91046",
    "inverse_t-quiet-b3-K4-B1-zero": "49dca461aaebfffc",
    "inverse_t-quiet-b3-K4-B1-u": "67e4192a55196d33",
    "inverse_t-quiet-b3-K4-B5-zero": "49dc4f0d93945477",
    "inverse_t-quiet-b3-K4-B5-u": "6b7528fb737b1966",
    "exponential-noise-b0-K0-B1-zero": "6e0de72d280ef77f",
    "exponential-noise-b0-K0-B1-u": "6b6c91603eb77347",
    "exponential-noise-b0-K0-B5-zero": "8b93883d0545122c",
    "exponential-noise-b0-K0-B5-u": "8e18e9f77789c4bc",
    "exponential-noise-b0-K1-B1-zero": "811d846349088205",
    "exponential-noise-b0-K1-B1-u": "21605dec106d9022",
    "exponential-noise-b0-K1-B5-zero": "3f04084e200acb00",
    "exponential-noise-b0-K1-B5-u": "de957f54fecaf4e7",
    "exponential-noise-b0-K4-B1-zero": "ae0e0ecf7b40ecf3",
    "exponential-noise-b0-K4-B1-u": "7d77f047abc0bd8a",
    "exponential-noise-b0-K4-B5-zero": "89f5c74d1effbe07",
    "exponential-noise-b0-K4-B5-u": "6c1d7dd8e27412ab",
    "exponential-noise-b3-K0-B1-zero": "6e0de72d280ef77f",
    "exponential-noise-b3-K0-B1-u": "6b6c91603eb77347",
    "exponential-noise-b3-K0-B5-zero": "8b93883d0545122c",
    "exponential-noise-b3-K0-B5-u": "8e18e9f77789c4bc",
    "exponential-noise-b3-K1-B1-zero": "107e8244ae5a2cd6",
    "exponential-noise-b3-K1-B1-u": "2e31e69e6ec4416e",
    "exponential-noise-b3-K1-B5-zero": "e9f6ab4b3ecfe51f",
    "exponential-noise-b3-K1-B5-u": "083e1de42e803a3b",
    "exponential-noise-b3-K4-B1-zero": "49d080efeae34c17",
    "exponential-noise-b3-K4-B1-u": "226bdb0a59869570",
    "exponential-noise-b3-K4-B5-zero": "f03b002183ca5a10",
    "exponential-noise-b3-K4-B5-u": "9c58307a649f1668",
    "exponential-quiet-b0-K0-B1-zero": "8cf35dd02a5e4b6c",
    "exponential-quiet-b0-K0-B1-u": "8fe508fc0a9d4580",
    "exponential-quiet-b0-K0-B5-zero": "2d54b5ae40949dd5",
    "exponential-quiet-b0-K0-B5-u": "8bc11df8923eccd1",
    "exponential-quiet-b0-K1-B1-zero": "53cd08649917560c",
    "exponential-quiet-b0-K1-B1-u": "7056e536303db554",
    "exponential-quiet-b0-K1-B5-zero": "83ca0428a09c4dbc",
    "exponential-quiet-b0-K1-B5-u": "e1720fbfb48693f1",
    "exponential-quiet-b0-K4-B1-zero": "ad3a526cd0031a7c",
    "exponential-quiet-b0-K4-B1-u": "99292b59ef01c61f",
    "exponential-quiet-b0-K4-B5-zero": "c2541b7cab19de0a",
    "exponential-quiet-b0-K4-B5-u": "972921c5a93c1d1e",
    "exponential-quiet-b3-K0-B1-zero": "8cf35dd02a5e4b6c",
    "exponential-quiet-b3-K0-B1-u": "8fe508fc0a9d4580",
    "exponential-quiet-b3-K0-B5-zero": "2d54b5ae40949dd5",
    "exponential-quiet-b3-K0-B5-u": "8bc11df8923eccd1",
    "exponential-quiet-b3-K1-B1-zero": "c2530509005436b6",
    "exponential-quiet-b3-K1-B1-u": "86d60e2192be5518",
    "exponential-quiet-b3-K1-B5-zero": "e48a90c64123ab07",
    "exponential-quiet-b3-K1-B5-u": "156de5195a60af3c",
    "exponential-quiet-b3-K4-B1-zero": "0f7eda327b7558e0",
    "exponential-quiet-b3-K4-B1-u": "188bc0fd8895ab93",
    "exponential-quiet-b3-K4-B5-zero": "7dc4965edd41b2e3",
    "exponential-quiet-b3-K4-B5-u": "92eed4d033247b99",
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
    # from a (P_TASK, t) stream of its own, and each of the 30 gap evaluations
    # from (P_TEST, t), then (P_TRAIN_PROBE, t)
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
    assert len(paths) == 2 * purposes + len(redrawn) + 60
    assert [p for p in paths if p[0] == P_TASK] == [(P_TASK, t) for t in redrawn]
    assert ([p for p in paths if p[0] in (P_TEST, P_TRAIN_PROBE)]
            == [(p, t) for t in range(10, 301, 10) for p in (P_TEST, P_TRAIN_PROBE)])
