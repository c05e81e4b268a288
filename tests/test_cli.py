"""Config parsing, experiment runner, CSV round-trip, plotting, comparison."""
import configparser
import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import astuple, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasgld import cli
from metasgld import records as records_mod
from metasgld.cli import (ConfigParseError, ExperimentConfig, Outputs,
                          compare_splits, load_config_file, main, parse_config,
                          preset_path, render_plot, run_experiment)
from metasgld.bounds import subgaussian_mean_estimation
from metasgld.core import RunConfig, Schedules
from metasgld.joint_sgld import JointConfig, JointRecord, run_joint_sgld
from metasgld.records import RunRecord
from metasgld.task_env import EnvironmentSpec

SMALL_ALT = """
[experiment]
mode = alternate
name = tiny

[env]
dim = 2
mean = -4, -4
cov_scale = 5.0
trunc_lo = -12, -12
trunc_hi = 4, 4
task_cov_scale = 0.1

[run]
n = 100
m = 16
m_tr = 8
m_va = 8
task_batch = 2
T = {T}
K = 2
eta = 0.2
beta = 0.4
gamma_outer = 10000
gamma_inner = 10000
seed = 5
init_u = -4, -4

[outputs]
csv = {csv}
eval_cadence = 2
"""


ENV_SECTION = """
[env]
dim = 2
mean = -4, -4
cov_scale = 5.0
trunc_lo = -12, -12
trunc_hi = 4, 4
task_cov_scale = 0.1
"""
ENV = EnvironmentSpec(env_mean=(-4.0, -4.0), env_cov_scale=5.0,
                      trunc_lo=(-12.0, -12.0), trunc_hi=(4.0, 4.0),
                      task_cov_scale=0.1, dim=2)

# required keys only
MINIMAL_ALT = "[experiment]\nmode = alternate\n" + ENV_SECTION + """
[run]
n = 100
m = 16
m_tr = 8
m_va = 8
task_batch = 2
T = 3
K = 2
eta = 0.2
beta = 0.4
gamma_outer = 10000
gamma_inner = 1000
seed = 5

[outputs]
csv = out.csv
"""
MINIMAL_JOINT = "[experiment]\nmode = joint\n" + ENV_SECTION + """
[run]
n = 3
m = 4
T = 2
seed = 7

[outputs]
csv = j.csv
"""


def tiny_config(tmp_path, T=3, name="out.csv", extra=""):
    text = SMALL_ALT.format(T=T, csv=tmp_path / name) + extra
    return text


def joint_config(tmp_path, T=20, name="j.csv"):
    return load_text(preset_path("joint_demo")).replace(
        "T = 500", f"T = {T}").replace("csv = joint_demo.csv",
                                       f"csv = {tmp_path / name}")


def rewrite(path, out, record_type):
    """Read a CSV through records.read_csv and write it again."""
    cols = records_mod.read_csv(path)
    recs = [record_type(**dict(zip(cols, row))) for row in zip(*cols.values())]
    comments = [line[2:] for line in path.read_text().splitlines() if line.startswith("# ")]
    records_mod.write_csv(recs, out, comments, record_type)


class TestParseConfig:
    def test_shipped_preset_matches_reference_settings(self):
        cfg = load_config_file(preset_path("toy_8_8"))
        run = cfg.run
        assert (run.n, run.m, run.m_tr, run.m_va) == (20000, 16, 8, 8)
        assert (run.task_batch, run.T, run.K) == (5, 200, 4)
        assert run.schedules.eta0 == 0.2 and run.schedules.beta0 == 0.4
        assert run.schedules.gamma_outer == 1e4 and run.schedules.gamma_inner == 1e4
        assert run.test_adapt_steps == 10 and run.mc_replicas == 10
        assert cfg.env.dim == 2 and cfg.env.env_cov_scale == 5.0

    def test_all_presets_parse(self):
        for name in ("toy_8_8", "toy_15_1", "toy_1_15", "joint_demo"):
            cfg = load_config_file(preset_path(name))
            assert cfg.name == name

    def test_empty_document_lists_missing_keys(self):
        with pytest.raises(ConfigParseError) as exc:
            parse_config("")
        assert "experiment" in str(exc.value)

    def test_missing_run_keys_named(self, tmp_path):
        text = tiny_config(tmp_path).replace("m_va = 8\n", "")
        with pytest.raises(ConfigParseError) as exc:
            parse_config(text)
        assert "run.m_va" in str(exc.value)

    def test_split_invariant_names_keys(self, tmp_path):
        text = tiny_config(tmp_path).replace("m_tr = 8", "m_tr = 7")
        with pytest.raises(ConfigParseError) as exc:
            parse_config(text)
        msg = str(exc.value)
        assert "run.m_tr" in msg and "run.m_va" in msg and "run.m" in msg

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigParseError):
            parse_config(tiny_config(tmp_path).replace(
                "seed = 5", "seed = 5\nwarp_factor = 9"))

    def test_bad_type_reported_with_key_path(self, tmp_path):
        text = tiny_config(tmp_path).replace("T = 3", "T = soon")
        with pytest.raises(ConfigParseError) as exc:
            parse_config(text)
        assert "run.T" in str(exc.value)

    @pytest.mark.parametrize("old,new,key", [
        ("mean = -4, -4", "mean = -4, abc", "env.mean"),
        ("T = 3", "T = soon", "run.T"),
        ("seed = 5", "seed = 5\nnoise = maybe", "run.noise"),
        ("eval_cadence = 2", "eval_cadence = often", "outputs.eval_cadence"),
    ])
    def test_bad_value_is_reported_once(self, tmp_path, old, new, key):
        text = tiny_config(tmp_path)
        assert old in text
        with pytest.raises(ConfigParseError) as exc:
            parse_config(text.replace(old, new))
        assert str(exc.value).startswith(f"bad value for {key}: ")

    @pytest.mark.parametrize("old,new,key", [
        ("name = tiny", "name = tiny\n  more", "experiment.name"),
        ("mode = alternate", "mode =\n  alternate", "experiment.mode"),
    ])
    def test_multi_line_value_rejected(self, tmp_path, old, new, key):
        with pytest.raises(ConfigParseError) as exc:
            parse_config(tiny_config(tmp_path).replace(old, new))
        assert str(exc.value).startswith(f"bad value for {key}: ")
        assert "multi-line values are not supported" in str(exc.value)

    def test_absent_keys_take_the_dataclass_defaults(self):
        cfg = parse_config(MINIMAL_ALT)
        schedules = Schedules(eta0=0.2, beta0=0.4, gamma_outer=1e4, gamma_inner=1e3)
        expected = ExperimentConfig(
            mode="alternate", env=ENV, joint=None, outputs=Outputs(csv_path="out.csv"),
            run=RunConfig(n=100, m=16, m_tr=8, m_va=8, task_batch=2, T=3, K=2,
                          schedules=schedules, seed=5))
        np.testing.assert_equal(vars(cfg.env), vars(ENV))
        assert replace(cfg, env=ENV) == expected

    def test_absent_joint_keys_take_the_dataclass_defaults(self):
        cfg = parse_config(MINIMAL_JOINT)
        # joint mode fills the alternate-only Schedules fields with placeholders
        schedules = Schedules(eta0=1.0, beta0=1.0, gamma_outer=1.0, gamma_inner=1.0)
        expected = ExperimentConfig(
            mode="joint", env=ENV, run=None, outputs=Outputs(csv_path="j.csv"),
            joint=JointConfig(n=3, m=4, T=2, schedules=schedules, seed=7))
        np.testing.assert_equal(vars(cfg.env), vars(ENV))
        assert replace(cfg, env=ENV) == expected

    @pytest.mark.parametrize("key", ["beta", "gamma_outer", "gamma_inner"])
    def test_joint_rejects_alternate_only_keys(self, key):
        # joint mode has no inner loop and no temperatures to set
        text = load_text(preset_path("joint_demo")).replace(
            "seed = 1", f"seed = 1\n{key} = 0.5")
        with pytest.raises(ConfigParseError) as exc:
            parse_config(text)
        assert f"run.{key}" in str(exc.value)

    def test_bad_mode_rejected(self, tmp_path):
        text = tiny_config(tmp_path).replace("mode = alternate", "mode = hybrid")
        with pytest.raises(ConfigParseError):
            parse_config(text)


# None drops the key
FUZZ_VALUES = ["nan", "inf", "-inf", "1e999", "-1", "0", "abc", "%", "1,,2", "", None]


def _sections(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    return {section: dict(cp[section]) for section in cp.sections()}


def _floats(obj, name=""):
    """(field name, value) for every float reachable from a parsed config."""
    if is_dataclass(obj):
        for f in fields(obj):
            yield from _floats(getattr(obj, f.name), f.name)
    elif isinstance(obj, (tuple, np.ndarray)):
        for v in obj:
            yield from _floats(v, name)
    elif isinstance(obj, float):
        yield name, obj


@st.composite
def fuzzed_ini(draw):
    """A shipped preset with one to three keys set to junk, dropped or added,
    and now and then a whole section dropped."""
    # a seeded Random, whose choices are uniform: Hypothesis's own draws
    # favour first entries and small numbers
    rnd = draw(st.randoms(use_true_random=True))
    mode = rnd.choice([cli.MODE_ALTERNATE, cli.MODE_JOINT])
    doc = _sections(load_text(preset_path(
        "toy_8_8" if mode == cli.MODE_ALTERNATE else "joint_demo")))
    schema = {"experiment": cli._EXPERIMENT_KEYS, "env": cli._ENV_KEYS,
              "outputs": cli._RUN_SCHEMA[mode][3], "run": cli._RUN_SCHEMA[mode][0]}
    pairs = [(section, key) for section, keys in schema.items() for key in keys]
    pairs += [("run", "warp"), ("run", "t"), ("env", "[run]")]
    for _ in range(rnd.randint(1, 3)):
        section, key = rnd.choice(pairs)
        value = rnd.choice(FUZZ_VALUES)
        if value is None:
            doc[section].pop(key, None)
        else:
            doc[section][key] = value
    if rnd.random() < 0.05:
        del doc[rnd.choice(list(doc))]
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in doc.items())


class TestConfigFuzz:
    @settings(max_examples=500, deadline=None)
    @given(fuzzed_ini())
    def test_parse_returns_a_config_or_a_config_parse_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigParseError:
            return
        assert isinstance(cfg, ExperimentConfig)
        for name, value in _floats(cfg):
            assert math.isfinite(value), (name, value)


class TestRunExperiment:
    def test_t1_produces_one_data_row(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=1, name="one.csv"))
        assert run_experiment(cfg) == 0
        assert records_mod.read_csv(tmp_path / "one.csv")["epoch"] == [1.0]

    def test_row_count_matches_t(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=4, name="four.csv"))
        run_experiment(cfg)
        assert len(records_mod.read_csv(tmp_path / "four.csv")["epoch"]) == 4

    def test_same_seed_gives_byte_identical_csv(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            cfg = parse_config(tiny_config(tmp_path, T=3, name=name))
            run_experiment(cfg)
        assert (tmp_path / "a.csv").read_bytes().replace(b"a.csv", b"") \
            == (tmp_path / "b.csv").read_bytes().replace(b"b.csv", b"")

    def test_provenance_comment_header(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=1, name="p.csv"))
        run_experiment(cfg)
        head = (tmp_path / "p.csv").read_text().splitlines()
        assert head[0].startswith("# mode = alternate")
        assert any("run.seed = 5" in line for line in head if line.startswith("#"))

    @pytest.mark.parametrize("mode", [cli.MODE_ALTERNATE, cli.MODE_JOINT])
    def test_header_names_each_setting_by_its_ini_key(self, tmp_path, mode):
        text = (tiny_config(tmp_path, T=1, name="h.csv") if mode == cli.MODE_ALTERNATE
                else joint_config(tmp_path, T=1, name="h.csv"))
        cfg = parse_config(text)
        run_experiment(cfg)
        head = [line[2:] for line in (tmp_path / "h.csv").read_text().splitlines()
                if line.startswith("# ")]
        # the header looks each value up by field name on these three
        trainer = cfg.run or cfg.joint
        names = [f.name for obj in (cfg.env, trainer.schedules, trainer) for f in fields(obj)]
        assert len(names) == len(set(names))
        # a joint run evaluates no gap, so it has no cadence to record
        outputs = ["outputs.eval_cadence"] if mode == cli.MODE_ALTERNATE else []
        assert [line.split(" = ")[0] for line in head] == [
            "mode", "name", "stream_layout", "version",
            *(f"env.{key}" for key in cli._ENV_KEYS),
            *(f"run.{key}" for key in cli._RUN_SCHEMA[mode][0]), *outputs]
        if mode == cli.MODE_JOINT:
            assert head[10:] == [
                "run.eta = 1.0", "run.decay_rule = inverse_t", "run.decay_c = 0.1",
                "run.decay_rate = 0.96", "run.decay_period = 1.0", "run.n = 50",
                "run.m = 16", "run.T = 1", "run.seed = 1", "run.coupling = 1.0",
                "run.sigma0 = None", "run.fixed_l = None"]

    def test_csv_round_trip_preserves_values(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=3, name="rt.csv"))
        run_experiment(cfg)
        rewrite(tmp_path / "rt.csv", tmp_path / "rt2.csv", RunRecord)
        assert (tmp_path / "rt2.csv").read_bytes() == (tmp_path / "rt.csv").read_bytes()

    def test_joint_csv_round_trip_is_byte_identical(self, tmp_path):
        run_experiment(parse_config(joint_config(tmp_path)))
        rewrite(tmp_path / "j.csv", tmp_path / "j2.csv", JointRecord)
        assert (tmp_path / "j2.csv").read_bytes() == (tmp_path / "j.csv").read_bytes()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        outdir = tmp_path / "redirected"
        monkeypatch.setenv("METASGLD_OUTPUT_DIR", str(outdir))
        text = SMALL_ALT.format(T=1, csv="rel.csv")
        run_experiment(parse_config(text))
        assert (outdir / "rel.csv").exists()

    def test_joint_preset_runs(self, tmp_path):
        assert run_experiment(parse_config(joint_config(tmp_path))) == 0
        body = (tmp_path / "j.csv").read_text().splitlines()
        header = [l for l in body if not l.startswith("#")][0]
        assert header.split(",")[0] == "t"

    def test_nan_abort_reports_epoch(self, tmp_path):
        text = tiny_config(tmp_path, T=50, name="boom.csv").replace(
            "eta = 0.2", "eta = 1e12")
        cfg = parse_config(text)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            run_experiment(cfg)
        assert "epoch" in str(exc.value)


def load_text(path):
    with open(path) as fh:
        return fh.read()


# CSVs whose rows do not line up with their header names, each with the
# message read_csv refuses it with
MISALIGNED_CSVS = [
    pytest.param("epoch,a\n1,2\n2\n3,4,5\n", "the line '2' does not match the header",
                 id="short_row"),
    pytest.param("epoch,a\n1,2,9\n", "the line '1,2,9' does not match the header",
                 id="long_row"),
    pytest.param("epoch,a,a\n1,2,3\n2,4,5\n", "repeats the column name 'a'",
                 id="repeated_name"),
]


class TestReadCsv:
    @pytest.mark.parametrize("text,message", MISALIGNED_CSVS)
    def test_rows_must_match_the_header(self, tmp_path, text, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            records_mod.read_csv(csv_path)
        assert str(csv_path) in str(exc.value)

    def test_blank_lines_hold_no_row(self, tmp_path):
        (tmp_path / "blank.csv").write_text("epoch,a\n1,2\n\n2,\n")
        assert records_mod.read_csv(tmp_path / "blank.csv") == {"epoch": [1.0, 2.0],
                                                                "a": [2.0, None]}


class TestRenderPlot:
    def make_csv(self, tmp_path, T=3):
        cfg = parse_config(tiny_config(tmp_path, T=T, name="plot.csv"))
        run_experiment(cfg)
        return tmp_path / "plot.csv"

    def test_two_series_svg_and_dat(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        out = tmp_path / "fig.svg"
        assert render_plot(csv_path, ["bound_u", "gnorm_bound_u"], out) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert "bound_u" in svg and "gnorm_bound_u" in svg
        assert (tmp_path / "fig_bound_u.dat").exists()
        assert len((tmp_path / "fig_bound_u.dat").read_text().splitlines()) == 3

    def test_unknown_column_lists_available(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        with pytest.raises(ValueError) as exc:
            render_plot(csv_path, ["nope"], tmp_path / "x.svg")
        assert "epoch" in str(exc.value)

    def test_empty_series_rejected(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        with pytest.raises(ValueError):
            render_plot(csv_path, [], tmp_path / "x.svg")

    def test_single_row_uses_markers(self, tmp_path):
        csv_path = self.make_csv(tmp_path, T=1)
        out = tmp_path / "one.svg"
        render_plot(csv_path, ["bound_total"], out)
        svg = out.read_text()
        assert "<circle" in svg and "<polyline" not in svg

    def test_joint_csv(self, tmp_path):
        run_experiment(parse_config(joint_config(tmp_path)))
        out = tmp_path / "j.svg"
        assert render_plot(tmp_path / "j.csv", ["joint_bound", "closed_form"], out) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2 and ">t</text>" in svg
        assert len((tmp_path / "j_closed_form.dat").read_text().splitlines()) == 20

    def test_non_finite_points_are_skipped(self, tmp_path):
        # closed_form is NaN on every row of a joint run without inverse_t decay
        run_experiment(parse_config(joint_config(tmp_path).replace(
            "decay_rule = inverse_t", "decay_rule = constant")))
        out = tmp_path / "j.svg"
        assert render_plot(tmp_path / "j.csv", ["closed_form", "joint_bound"], out) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1 and not re.search(r"\b(nan|inf)\b", svg)
        assert (tmp_path / "j_closed_form.dat").read_text() == ""
        assert len((tmp_path / "j_joint_bound.dat").read_text().splitlines()) == 20

    def test_column_names_are_escaped_in_the_svg(self, tmp_path):
        csv_path = tmp_path / "f.csv"
        csv_path.write_text("t>0,a&b<c\n1,2\n2,3\n")
        out = tmp_path / "x.svg"
        assert main(["plot", str(csv_path), "--series", "a&b<c", "--out", str(out)]) == 0
        texts = [el.text for el in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-1] == "a&b<c" and "t>0" in texts    # the legend and the x label

    def test_inf_and_nan_cells_are_skipped(self, tmp_path):
        csv_path = tmp_path / "gap.csv"
        csv_path.write_text("epoch,gap,test_loss\n1,1.0,nan\n2,inf,nan\n"
                            "3,2.0,-inf\n4,nan,nan\n")
        render_plot(csv_path, ["gap"], tmp_path / "g.svg")
        assert (tmp_path / "g_gap.dat").read_text() == "1 1\n3 2\n"
        assert not re.search(r"\b(nan|inf)\b", (tmp_path / "g.svg").read_text())
        with pytest.raises(ValueError, match="no plottable data points"):
            render_plot(csv_path, ["test_loss"], tmp_path / "t.svg")

    @pytest.mark.parametrize("text", ["# mode = alternate\n", "\nepoch,gap\n1,2\n"])
    def test_headerless_csv_rejected(self, tmp_path, text):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(text)
        with pytest.raises(ValueError, match="no header row"):
            render_plot(csv_path, ["gap"], tmp_path / "x.svg")

    def test_pure_function_of_csv_bytes(self, tmp_path):
        csv_path = self.make_csv(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_plot(csv_path, ["bound_total"], a)
        render_plot(csv_path, ["bound_total"], b)
        assert a.read_bytes() == b.read_bytes()


class TestCompareSplits:
    def test_duplicate_preset_gives_identical_rows(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=2, name="c1.csv"))
        rows = compare_splits([cfg, cfg])
        assert rows[0]["g_inco"] == rows[1]["g_inco"]
        assert rows[0]["g_norm"] == rows[1]["g_norm"]

    def test_mismatched_t_rejected(self, tmp_path):
        a = parse_config(tiny_config(tmp_path, T=2, name="c2.csv"))
        b = parse_config(tiny_config(tmp_path, T=3, name="c3.csv"))
        with pytest.raises(ValueError):
            compare_splits([a, b])

    @pytest.mark.parametrize("box,value", [("trunc_lo", "-11, -12"),
                                           ("trunc_hi", "4, 5"),
                                           ("mean", "-4, -3"),
                                           ("cov_scale", "4.0"),
                                           ("task_cov_scale", "0.2")])
    def test_mismatched_truncation_box_rejected(self, tmp_path, box, value):
        a = parse_config(tiny_config(tmp_path, T=2, name="c5.csv"))
        text = tiny_config(tmp_path, T=2, name="c6.csv")
        # anchored, so cov_scale leaves task_cov_scale alone
        b = parse_config(re.sub(rf"^{box} = .*$", f"{box} = {value}", text, flags=re.M))
        assert sum(not np.array_equal(getattr(a.env, f.name), getattr(b.env, f.name))
                   for f in fields(EnvironmentSpec)) == 1
        with pytest.raises(ValueError, match="share the environment"):
            compare_splits([a, b])

    def test_single_preset_rejected(self, tmp_path):
        a = parse_config(tiny_config(tmp_path, T=2, name="c4.csv"))
        with pytest.raises(ValueError):
            compare_splits([a])

    def test_output_ignores_eval_cadence(self, tmp_path, capsys):
        # the table shows epoch T only, so only epoch T is evaluated
        outs = []
        for cadence in (1, 2):
            files = []
            for seed in (5, 6):
                files.append(tmp_path / f"s{seed}c{cadence}.ini")
                files[-1].write_text(tiny_config(tmp_path, T=3).replace(
                    "eval_cadence = 2", f"eval_cadence = {cadence}").replace(
                    "seed = 5", f"seed = {seed}"))
            assert main(["compare", *map(str, files)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 4

    def test_zero_t_is_one_error_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "t0.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=0))
        with pytest.raises(ValueError, match="T >= 1"):
            compare_splits([parse_config(cfg_file.read_text())] * 2)
        assert main(["compare", str(cfg_file), str(cfg_file)]) == 1
        assert capsys.readouterr().err == "error: compare needs T >= 1, got T=0\n"

    def test_eval_cadence_is_not_a_compare_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "toy_8_8", "toy_15_1", "--eval-cadence", "2"])
        assert exc.value.code == 2


class TestMain:
    def test_run_subcommand(self, tmp_path):
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=2, name="m.csv"))
        assert main(["run", str(cfg_file)]) == 0
        assert (tmp_path / "m.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=2, name="s.csv"))
        main(["run", str(cfg_file), "--seed", "1"])
        first = (tmp_path / "s.csv").read_bytes()
        main(["run", str(cfg_file), "--seed", "2"])
        assert first != (tmp_path / "s.csv").read_bytes()

    def test_bad_config_returns_nonzero(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nmode = alternate\n")
        assert main(["run", str(bad)]) == 1

    def test_missing_preset_returns_nonzero(self):
        assert main(["run", "no_such_preset"]) == 1

    @pytest.mark.parametrize("arg", ["configs/typo.ini", "typo.ini",
                                     os.path.join("configs", "typo")])
    def test_missing_config_file_is_named(self, tmp_path, monkeypatch, capsys, arg):
        # a path or an .ini name can never name a shipped preset
        monkeypatch.chdir(tmp_path)
        assert main(["run", arg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err
        assert repr(arg) in err and "preset" not in err

    @pytest.mark.parametrize("mode", ["alternate", "joint"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 64 + 1)])
    def test_seed_outside_64_bits_is_one_error_line(self, tmp_path, capsys, mode, seed):
        # masked to 64 bits, 2**64 + 1 ran seed 1 and -1 ran seed 2**64 - 1
        text = (tiny_config(tmp_path, T=1, name="sd.csv") if mode == "alternate"
                else joint_config(tmp_path, T=1, name="sd.csv"))
        cfg_file = tmp_path / "sd.ini"
        cfg_file.write_text(text)
        message = f"seed must be in [0, 2**64), got {seed}\n"
        assert main(["run", str(cfg_file), "--seed", seed]) == 1
        assert capsys.readouterr().err == "error: " + message
        cfg_file.write_text(re.sub(r"^seed = \d+$", f"seed = {seed}", text, flags=re.M))
        assert main(["run", str(cfg_file)]) == 1
        assert capsys.readouterr().err == "error: invalid [run] section: " + message
        assert not (tmp_path / "sd.csv").exists()

    def test_non_positive_dim_is_one_error_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "dim.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=1, name="dim.csv").replace(
            "dim = 2", "dim = 0"))
        assert main(["run", str(cfg_file)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid [env] section: dim must be positive, got 0\n")
        assert not (tmp_path / "dim.csv").exists()

    def test_unallocatable_run_is_one_error_line(self, tmp_path, capsys):
        # 10**12 epochs of toy_8_8 draws are 1.14 PiB, beyond the user address
        # space of a 64-bit process (128 TiB on x86-64 Linux): this fails at once
        cfg_file = tmp_path / "big.ini"
        cfg_file.write_text(load_text(preset_path("toy_8_8")).replace(
            "T = 200", f"T = {10 ** 12}").replace("csv = toy_8_8.csv",
                                                  f"csv = {tmp_path / 'big.csv'}"))
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "big.csv").exists()

    def test_unallocatable_joint_run_is_one_error_line(self, tmp_path, capsys):
        # the joint run stores each step's phi: 10**12 steps of joint_demo are
        # 816 TB, so it fails at once instead of stepping until memory runs out
        cfg_file = tmp_path / "big.ini"
        cfg_file.write_text(joint_config(tmp_path, T=10 ** 12, name="big.csv"))
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "big.csv").exists()

    def test_epoch_one_failure_wins_over_unallocatable_run(self, tmp_path, capsys):
        # the run's arrays are allocated after epoch 1 is drawn, and epoch
        # 1's streams are derived with a block of epochs, never all T at once
        cfg_file = tmp_path / "big.ini"
        cfg_file.write_text(load_text(preset_path("toy_8_8")).replace(
            "T = 200", f"T = {10 ** 12}").replace("csv = toy_8_8.csv",
                                                  f"csv = {tmp_path / 'big.csv'}").replace(
            "trunc_lo = -12, -12", "trunc_lo = -4, -4").replace(
            "trunc_hi = 4, 4", "trunc_hi = -3.999999999, -3.999999999"))
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: rejection sampling acceptance rate")
        assert err[0].endswith("carries too little mass at epoch 1")
        assert not (tmp_path / "big.csv").exists()

    def test_unallocatable_inner_noise_is_one_error_line(self, tmp_path, capsys):
        # epoch 1's live noise (K, task_batch, dim) at K = 10**13 is 727 TiB, beyond
        # the user address space; it is drawn before the epoch's 2K + 1 rates, a
        # Python list that would grow until memory ran out
        cfg_file = tmp_path / "big.ini"
        cfg_file.write_text(load_text(preset_path("toy_8_8")).replace(
            "K = 4", f"K = {10 ** 13}").replace("csv = toy_8_8.csv",
                                                f"csv = {tmp_path / 'big.csv'}"))
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "big.csv").exists()

    def test_error_without_a_message_names_its_type(self, tmp_path, capsys):
        # the gap evaluation's list of 10**15 inner rates is 8 PB: Python raises
        # a MemoryError with no text at once
        cfg_file = tmp_path / "big.ini"
        cfg_file.write_text(load_text(preset_path("toy_8_8")).replace(
            "T = 200", "T = 1").replace("test_adapt_steps = 10",
                                        f"test_adapt_steps = {10 ** 15}").replace(
            "csv = toy_8_8.csv", f"csv = {tmp_path / 'big.csv'}"))
        assert main(["run", str(cfg_file)]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not (tmp_path / "big.csv").exists()

    def test_eval_cadence_on_a_joint_run_is_one_error_line(self, tmp_path, capsys):
        # a joint run evaluates no gap, so the flag would change only a header line
        cfg_file = tmp_path / "j.ini"
        cfg_file.write_text(joint_config(tmp_path, T=2, name="jc.csv"))
        assert main(["run", str(cfg_file), "--eval-cadence", "5"]) == 1
        assert capsys.readouterr().err == (
            "error: --eval-cadence sets the gap evaluations of an alternate run; "
            "a joint run evaluates none\n")
        assert not (tmp_path / "jc.csv").exists()
        assert main(["run", str(cfg_file)]) == 0

    def test_eval_cadence_in_a_joint_ini_is_an_unknown_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "j.ini"
        cfg_file.write_text(joint_config(tmp_path, T=2, name="jc.csv") + "eval_cadence = 20\n")
        assert main(["run", str(cfg_file)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown keys in [outputs]: outputs.eval_cadence\n")
        assert not (tmp_path / "jc.csv").exists()

    def test_plot_subcommand(self, tmp_path):
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=2, name="pm.csv"))
        main(["run", str(cfg_file)])
        rc = main(["plot", str(tmp_path / "pm.csv"), "--series",
                   "bound_total,gnorm_bound_total", "--out",
                   str(tmp_path / "pm.svg")])
        assert rc == 0 and (tmp_path / "pm.svg").exists()

    @pytest.mark.parametrize("text,message", MISALIGNED_CSVS)
    def test_plot_of_a_misaligned_csv_is_one_error_line(self, tmp_path, capsys, text,
                                                         message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        assert main(["plot", str(csv_path), "--series", "a", "--out",
                     str(tmp_path / "bad.svg")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(csv_path) in err[0]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]   # no .svg, no .dat

    @pytest.mark.parametrize("name", ["a/b", "..", "../b"])
    def test_plot_of_a_series_that_is_no_file_name_is_one_error_line(self, tmp_path, capsys,
                                                                     name):
        # each series is written to <out stem>_<series>.dat: a/b would need a
        # directory s_a, and a name with .. parts could leave the output's
        csv_path = tmp_path / "s.csv"
        csv_path.write_text(f"t,{name}\n1,2\n2,3\n")
        assert main(["plot", str(csv_path), "--series", name, "--out",
                     str(tmp_path / "s.svg")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: series {[name]} are not file names, so they cannot name a .dat file"]
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]   # no .svg, no .dat

    def test_plot_writes_no_svg_when_a_dat_file_fails(self, tmp_path, capsys):
        # the .dat files go first, so the .svg marks a finished plot
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("t,a,b\n1,2,3\n2,3,4\n")
        (tmp_path / "s_b.dat").mkdir()
        assert main(["plot", str(csv_path), "--series", "a,b", "--out",
                     str(tmp_path / "s.svg")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("I/O error: ")
        assert not (tmp_path / "s.svg").exists()

    def test_compare_prints_one_table_row_per_preset(self, tmp_path, capsys):
        files = []
        for name in ("a", "b"):
            files.append(tmp_path / f"{name}.ini")
            files[-1].write_text(tiny_config(tmp_path, T=2, name=f"{name}.csv"))
        assert main(["compare", *map(str, files), "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["preset", "split", "Train-Test", "gap", "Lipschitz",
                                    "G_norm", "G_inco"]
        assert set(lines[1]) == {"-", " "} and len(lines) == 4
        cfg = parse_config(files[0].read_text())
        cfg = replace(cfg, run=replace(cfg.run, seed=3))
        row = compare_splits([cfg, cfg])[0]
        assert lines[2].split() == ["tiny", "8/8"] + [records_mod.format_value(row[k]) for k in
                                                      ("train_test_gap", "lipschitz",
                                                       "g_norm", "g_inco")]
        assert lines[3] == lines[2]

    def test_compare_rejects_a_joint_preset(self, tmp_path, capsys):
        assert main(["compare", "joint_demo", "toy_8_8"]) == 1
        assert capsys.readouterr().err == \
            "error: compare supports alternate-mode presets only\n"

    def test_seed_override_of_a_joint_preset_is_in_the_header(self, tmp_path):
        cfg_file = tmp_path / "joint.ini"
        cfg_file.write_text(joint_config(tmp_path, T=2, name="js.csv"))
        assert main(["run", str(cfg_file), "--seed", "3"]) == 0
        header = [line for line in (tmp_path / "js.csv").read_text().splitlines()
                  if line.startswith("# run.seed")]
        assert header == ["# run.seed = 3"]

    def test_plot_key_writes_the_svg_and_one_dat_per_series(self, tmp_path):
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=3, name="pk.csv",
                                        extra=f"plot = {tmp_path / 'pk.svg'}\n"))
        assert main(["run", str(cfg_file)]) == 0
        assert (tmp_path / "pk.svg").read_text().count("<polyline") == 2
        for series in ("bound_total", "gnorm_bound_total"):
            assert len((tmp_path / f"pk_{series}.dat").read_text().splitlines()) == 3

    def test_unwritable_csv_is_an_io_error(self, tmp_path, capsys):
        (tmp_path / "dir.csv").mkdir()
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=1, name="dir.csv"))
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("I/O error: ")

    def test_diverging_joint_run_reports_the_step(self, tmp_path, capsys):
        # eta = 1000 makes every W step multiply W by -1999; the tracked L
        # grows with it until the information step term overflows
        text = load_text(preset_path("joint_demo"))
        for old, repl in (("n = 50", "n = 1"), ("coupling = 1.0", "coupling = 0"),
                          ("T = 500", "T = 500\neta = 1000"),
                          ("decay_rule = inverse_t", "decay_rule = constant"),
                          ("seed = 1", "seed = 1\nsigma0 = 0.001"),
                          ("csv = joint_demo.csv", f"csv = {tmp_path / 'd.csv'}")):
            text = text.replace(old, repl)
        cfg_file = tmp_path / "diverge.ini"
        cfg_file.write_text(text)
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        step = int(re.search(r"at step (\d+)", err).group(1))
        assert 1 < step < 500
        # the step named is the first one that fails
        cfg_file.write_text(text.replace("T = 500", f"T = {step - 1}"))
        assert main(["run", str(cfg_file)]) == 0

    @pytest.mark.parametrize("preset,edits,message", [
        # the exponential decay overflows the float range at epoch 4
        pytest.param("toy_8_8", (("T = 200", "T = 5"), ("K = 4", "K = 0"),
                                 ("eta = 0.2", "eta = 1e-300\ndecay_rule = exponential\n"
                                               "decay_rate = 1e100")),
                     r"decay_rate \*\* \(t / decay_period\) overflows at epoch 4$",
                     id="decay_rate"),
        # U overflows the squared losses of the first gap evaluation, at epoch 2
        pytest.param("toy_8_8", (("T = 200", "T = 12"), ("beta = 0.4", "beta = 1e-3"),
                                 ("eta = 0.2", "eta = 1e30\ndecay_rule = exponential\n"
                                               "decay_rate = 1e10"),
                                 ("eval_cadence = 20", "eval_cadence = 2")),
                     r"gap evaluation overflowed: va loss is inf at epoch 2$",
                     id="gap_overflow"),
        # a short decay period overflows the rates of epoch 1 already
        pytest.param("toy_8_8", (("eta = 0.2", "eta = 0.2\ndecay_rule = exponential\n"
                                               "decay_rate = 1e10\ndecay_period = 0.01"),),
                     r"decay_rate \*\* \(t / decay_period\) overflows at epoch 1$",
                     id="decay_period"),
        # the inner rate of epoch 2 underflows to 0, whose noise std is undefined
        pytest.param("toy_8_8", (("eta = 0.2", "eta = 0.2\ndecay_rule = exponential\n"
                                               "decay_rate = 1e-200"),),
                     r"^error: lr must be positive, got 0\.0 at epoch 2$", id="rate_underflow"),
        # the live inner paths of epoch 4 overflow
        pytest.param("toy_8_8", (("T = 200", "T = 6"), ("beta = 0.4", "beta = 1e-60"),
                                 ("eta = 0.2", "eta = 1e-90\ndecay_rule = exponential\n"
                                               "decay_rate = 1e30")),
                     r"^error: vector contains NaN/Inf at epoch 4$", id="inner_paths"),
        pytest.param("toy_8_8", (("init_u = -4, -4", "init_u = -4, -4, -4"),),
                     r"^error: init_u must have length 2$", id="init_u_length"),
        # beta enters the sub-gaussian constant before epoch 1
        pytest.param("toy_8_8", (("T = 200", "T = 3"), ("K = 4", "K = 1"),
                                 ("beta = 0.4", "beta = 1e200")),
                     r"^error: sub-gaussian constant overflows for beta = 1e\+200$",
                     id="subgaussian_beta"),
        # the mean row's variance rates square 1 - 2 beta_1 = 1 - 8e154
        pytest.param("toy_8_8", (("T = 200", "T = 3"), ("K = 4", "K = 1"),
                                 ("eta = 0.2", "eta = 0.2\ndecay_rule = exponential\n"
                                               "decay_rate = 1e155")),
                     r"^error: \(1 - 2 beta\)\^2 overflows for beta = 4e\+154 at epoch 1$",
                     id="variance_rates_beta"),
        pytest.param("joint_demo", (("T = 500", "T = 10\neta = 1e-300\ndecay_rate = 1e100"),
                                    ("decay_rule = inverse_t", "decay_rule = exponential")),
                     r"^error: decay_rate \*\* \(t / decay_period\) overflows at step 4$",
                     id="joint_decay_rate"),
        # sigma_l^2 = 1e-200 squares to 0 in the sub-gaussian constant
        pytest.param("toy_8_8", (("task_cov_scale = 0.1", "task_cov_scale = 1e-200"),),
                     r"^error: sub-gaussian constant underflows to 0 for "
                     r"task_cov_scale = 1e-200$", id="subgaussian_underflow"),
        pytest.param("joint_demo", (("task_cov_scale = 0.1", "task_cov_scale = 1e-200"),),
                     r"^error: sub-gaussian constant underflows to 0 for "
                     r"task_cov_scale = 1e-200$", id="joint_subgaussian_underflow"),
        # sigma_l^4 is finite, 2 (2k + d) sigma_l^4 is not: a float product raises nothing
        pytest.param("toy_8_8", (("task_cov_scale = 0.1", "task_cov_scale = 1.2e153"),),
                     r"^error: sub-gaussian constant overflows for "
                     r"task_cov_scale = 1\.2e\+153$", id="subgaussian_product"),
        pytest.param("joint_demo", (("task_cov_scale = 0.1", "task_cov_scale = 1.2e153"),),
                     r"^error: sub-gaussian constant overflows for "
                     r"task_cov_scale = 1\.2e\+153$", id="joint_subgaussian_product"),
        # sigma_l^2 squares past the float range; beta = 0.4 is harmless
        pytest.param("toy_8_8", (("task_cov_scale = 0.1", "task_cov_scale = 1e300"),),
                     r"^error: sub-gaussian constant overflows for "
                     r"task_cov_scale = 1e\+300$", id="subgaussian_task_cov_scale"),
        # the box's max ||mu||^2 overflows
        pytest.param("toy_8_8", (("trunc_lo = -12, -12", "trunc_lo = -1e160, -1e160"),),
                     r"^error: sub-gaussian constant overflows for the truncation box "
                     r"\(trunc_lo, trunc_hi\)$", id="subgaussian_box"),
    ])
    def test_float_overflow_is_one_error_line(self, tmp_path, capsys, preset, edits,
                                              message):
        text = load_text(preset_path(preset)).replace(
            f"csv = {preset}.csv", f"csv = {tmp_path / 'o.csv'}")
        for old, repl in edits:
            text = text.replace(old, repl)
        cfg_file = tmp_path / "overflow.ini"
        cfg_file.write_text(text)
        assert main(["run", str(cfg_file)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert re.search(message, lines[0])

    @pytest.mark.parametrize("setting,message", [
        pytest.param("sigma0 = 1e-200", "sigma_t = 1e-200 squares to 0", id="sigma0_1e-200"),
        pytest.param("sigma0 = 1e200", "sigma_t = 1e+200 squares to inf", id="sigma0_1e200"),
        pytest.param("sigma0 = 1e-160", "overflowed at step 1", id="sigma0_1e-160"),
        pytest.param("sigma0 = nan", "invalid [run] section: sigma0", id="sigma0_nan"),
        pytest.param("sigma0 = inf", "invalid [run] section: sigma0", id="sigma0_inf"),
        pytest.param("sigma0 = 0", "invalid [run] section: sigma0 must be finite and > 0, "
                                   "got 0.0", id="sigma0_0"),
        pytest.param("sigma0 = -1", "invalid [run] section: sigma0 must be finite and > 0, "
                                    "got -1.0", id="sigma0_-1"),
        # sigma0 alone states the noise; there is no rule key
        pytest.param("sigma_rule = fixed", "unknown keys in [run]: run.sigma_rule",
                     id="sigma_rule"),
        pytest.param("fixed_l = inf", "invalid [run] section: fixed_l", id="fixed_l_inf"),
        pytest.param("fixed_l = nan", "invalid [run] section: fixed_l", id="fixed_l_nan"),
        pytest.param("fixed_l = -1", "invalid [run] section: fixed_l", id="fixed_l_-1"),
    ])
    def test_bad_joint_noise_or_l_is_an_error(self, tmp_path, capsys, setting,
                                              message):
        text = joint_config(tmp_path, T=3, name="bad.csv")
        for old, repl in (("n = 50", "n = 1"), ("m = 16", "m = 4"),
                          ("coupling = 1.0", "coupling = 0"),
                          ("decay_rule = inverse_t", "decay_rule = constant\neta = 0.1"),
                          ("seed = 1", f"seed = 1\n{setting}")):
            text = text.replace(old, repl)
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text(text)
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "bad.csv").exists()

    def test_sigma0_alone_pins_the_joint_noise(self, tmp_path):
        default = joint_config(tmp_path, T=5, name="s.csv")
        cfg_file = tmp_path / "s.ini"
        cfg_file.write_text(default.replace("seed = 1", "seed = 1\nsigma0 = 0.05"))
        assert main(["run", str(cfg_file)]) == 0
        lines = [line for line in (tmp_path / "s.csv").read_text().splitlines()
                 if not line.startswith("#")]
        column = lines[0].split(",").index("closed_form")
        assert [row.split(",")[column] for row in lines[1:]] == ["nan"] * 5
        cfg = parse_config(default)
        records = run_joint_sgld(replace(cfg.joint, sigma0=0.05), cfg.env,
                                 sigma_sg=subgaussian_mean_estimation(cfg.env, 0.4).sigma)
        assert lines[1:] == [",".join(records_mod.format_value(v) for v in astuple(r))
                             for r in records]

    @pytest.mark.parametrize("preset,old,new,message", [
        pytest.param("toy_8_8", "eta = 0.2", "eta = 0.2\ndecay_rule = inverse_t\ndecay_c = 0",
                     "inverse_t decay needs c > 0", id="inverse_t_c_0"),
        pytest.param("toy_8_8", "eta = 0.2",
                     "eta = 0.2\ndecay_rule = exponential\ndecay_rate = 0",
                     "exponential decay needs rate > 0 and period > 0", id="decay_rate_0"),
        pytest.param("toy_8_8", "eta = 0.2",
                     "eta = 0.2\ndecay_rule = exponential\ndecay_period = -1",
                     "exponential decay needs rate > 0 and period > 0", id="decay_period_-1"),
        pytest.param("toy_8_8", "n = 20000", "n = 0", "n and m must be positive", id="n_0"),
        pytest.param("toy_8_8", "T = 200", "T = -1", "T and K must be non-negative",
                     id="T_-1"),
        pytest.param("toy_8_8", "K = 4", "K = -1", "T and K must be non-negative",
                     id="K_-1"),
        pytest.param("toy_8_8", "test_adapt_steps = 10", "test_adapt_steps = -1",
                     "test_adapt_steps must be >= 0", id="test_adapt_steps_-1"),
        pytest.param("joint_demo", "n = 50", "n = 0", "n, m must be >= 1 and T >= 0",
                     id="joint_n_0"),
        pytest.param("joint_demo", "T = 500", "T = -1", "n, m must be >= 1 and T >= 0",
                     id="joint_T_-1"),
    ])
    def test_out_of_range_run_value_is_one_error_line(self, tmp_path, capsys, preset,
                                                      old, new, message):
        text = load_text(preset_path(preset)).replace(
            f"csv = {preset}.csv", f"csv = {tmp_path / 'r.csv'}")
        assert text.count(old) == 1
        cfg_file = tmp_path / "r.ini"
        cfg_file.write_text(text.replace(old, new))
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)
        assert not (tmp_path / "r.csv").exists()

    def test_mc_replicas_is_an_unknown_key(self, tmp_path, capsys):
        # every increment is exact: no code reads a replica count
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=1, name="mc.csv").replace(
            "seed = 5", "seed = 5\nmc_replicas = 3"))
        assert main(["run", str(cfg_file)]) == 1
        assert capsys.readouterr().err == "error: unknown keys in [run]: run.mc_replicas\n"
        assert not (tmp_path / "mc.csv").exists()

    def test_zero_eval_cadence_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=1, name="ec.csv"))
        assert main(["run", str(cfg_file), "--eval-cadence", "0"]) == 1
        assert capsys.readouterr().err == "error: outputs.eval_cadence must be >= 1\n"
        assert not (tmp_path / "ec.csv").exists()

    @pytest.mark.parametrize("mode,old,new,field", [
        pytest.param("alternate", "eta = 0.2", "eta = nan", "eta0", id="eta_nan"),
        pytest.param("alternate", "beta = 0.4", "beta = inf", "beta0", id="beta_inf"),
        pytest.param("alternate", "seed = 5", "seed = 5\ndecay_c = nan", "decay_c",
                     id="decay_c_nan"),
        pytest.param("alternate", "seed = 5", "seed = 5\ndecay_rate = nan", "decay_rate",
                     id="decay_rate_nan"),
        pytest.param("alternate", "seed = 5", "seed = 5\ndecay_period = inf",
                     "decay_period", id="decay_period_inf"),
        pytest.param("alternate", "cov_scale = 5.0", "cov_scale = nan", "env_cov_scale",
                     id="cov_scale_nan"),
        pytest.param("alternate", "task_cov_scale = 0.1", "task_cov_scale = inf",
                     "task_cov_scale", id="task_cov_scale_inf"),
        pytest.param("alternate", "init_u = -4, -4", "init_u = nan, -4", "init_u",
                     id="init_u_nan"),
        pytest.param("joint", "coupling = 1.0", "coupling = nan", "coupling",
                     id="coupling_nan"),
    ])
    def test_nan_or_inf_is_an_error_at_parse_time(self, tmp_path, capsys, mode, old,
                                                  new, field):
        text = (tiny_config(tmp_path, name="nan.csv") if mode == "alternate"
                else joint_config(tmp_path, T=3, name="nan.csv"))
        assert old in text
        cfg_file = tmp_path / "nan.ini"
        cfg_file.write_text(text.replace(old, new))
        assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ") and f"{field} must be finite" in err
        assert not (tmp_path / "nan.csv").exists()

    @pytest.mark.parametrize("key", ["gamma_outer", "gamma_inner"])
    @pytest.mark.parametrize("noise", ["true", "false"])
    def test_infinite_gamma_is_an_error_before_epoch_1(self, tmp_path, capsys,
                                                       key, noise):
        # inf would weight every accumulator and bound increment by inf
        text = tiny_config(tmp_path, name="inf.csv").replace(
            f"{key} = 10000", f"{key} = inf\nnoise = {noise}")
        cfg_file = tmp_path / "inf.ini"
        cfg_file.write_text(text)
        assert main(["run", str(cfg_file)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid schedule in [run]: {key} must be finite, got inf\n")
        assert not (tmp_path / "inf.csv").exists()

    def test_percent_in_a_value_is_literal(self, tmp_path):
        cfg_file = tmp_path / "pct.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=1, name="pct.csv").replace(
            "name = tiny", "name = 100%"))
        assert parse_config(cfg_file.read_text()).name == "100%"
        assert main(["run", str(cfg_file)]) == 0
        assert "# name = 100%\n" in (tmp_path / "pct.csv").read_text()

    def test_threads_flag_rejected(self, tmp_path):
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=1, name="th.csv"))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg_file), "--threads", "4"])
        assert exc.value.code == 2
        assert not (tmp_path / "th.csv").exists()


class TestFormatValue:
    def test_six_significant_digits_decimal(self):
        s = records_mod.format_value(0.000123456789)
        assert "e" not in s and "E" not in s
        assert s.startswith("0.000123456")

    def test_large_value_decimal(self):
        s = records_mod.format_value(65460.123)
        assert "e" not in s and float(s) == pytest.approx(65460.123, rel=1e-6)

    def test_none_is_empty(self):
        assert records_mod.format_value(None) == ""
