"""Config parsing, experiment runner, CSV round-trip, plotting, comparison."""
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from metasgld import records as records_mod
from metasgld.cli import (ConfigParseError, ExperimentConfig, compare_splits,
                          load_config_file, main, parse_config, preset_path,
                          render_plot, run_experiment)

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
mc_replicas = 3
init_u = -4, -4

[outputs]
csv = {csv}
eval_cadence = 2
"""


def tiny_config(tmp_path, T=3, name="out.csv", extra=""):
    text = SMALL_ALT.format(T=T, csv=tmp_path / name) + extra
    return text


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


class TestRunExperiment:
    def test_t1_produces_one_data_row(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=1, name="one.csv"))
        assert run_experiment(cfg) == 0
        recs = records_mod.read_csv(tmp_path / "one.csv")
        assert len(recs) == 1

    def test_row_count_matches_t(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=4, name="four.csv"))
        run_experiment(cfg)
        assert len(records_mod.read_csv(tmp_path / "four.csv")) == 4

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

    def test_csv_round_trip_preserves_values(self, tmp_path):
        cfg = parse_config(tiny_config(tmp_path, T=3, name="rt.csv"))
        run_experiment(cfg)
        recs = records_mod.read_csv(tmp_path / "rt.csv")
        out2 = tmp_path / "rt2.csv"
        records_mod.write_csv(recs, out2)
        assert records_mod.read_csv(out2) == recs

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        outdir = tmp_path / "redirected"
        monkeypatch.setenv("METASGLD_OUTPUT_DIR", str(outdir))
        text = SMALL_ALT.format(T=1, csv="rel.csv")
        run_experiment(parse_config(text))
        assert (outdir / "rel.csv").exists()

    def test_joint_preset_runs(self, tmp_path):
        text = load_text(preset_path("joint_demo")).replace(
            "T = 500", "T = 20").replace("csv = joint_demo.csv",
                                         f"csv = {tmp_path / 'j.csv'}")
        assert run_experiment(parse_config(text)) == 0
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

    def test_single_preset_rejected(self, tmp_path):
        a = parse_config(tiny_config(tmp_path, T=2, name="c4.csv"))
        with pytest.raises(ValueError):
            compare_splits([a])


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

    def test_plot_subcommand(self, tmp_path):
        cfg_file = tmp_path / "tiny.ini"
        cfg_file.write_text(tiny_config(tmp_path, T=2, name="pm.csv"))
        main(["run", str(cfg_file)])
        rc = main(["plot", str(tmp_path / "pm.csv"), "--series",
                   "bound_total,gnorm_bound_total", "--out",
                   str(tmp_path / "pm.svg")])
        assert rc == 0 and (tmp_path / "pm.svg").exists()

    def test_diverging_joint_run_reports_the_step(self, tmp_path, capsys):
        # eta = 1000 makes every W step multiply W by -1999; the tracked L
        # grows with it until the information step term overflows
        text = load_text(preset_path("joint_demo"))
        for old, repl in (("n = 50", "n = 1"), ("coupling = 1.0", "coupling = 0"),
                          ("T = 500", "T = 500\neta = 1000"),
                          ("decay_rule = inverse_t", "decay_rule = constant"),
                          ("sigma_rule = sqrt_eta", "sigma_rule = fixed\nsigma0 = 0.001"),
                          ("csv = joint_demo.csv", f"csv = {tmp_path / 'd.csv'}")):
            text = text.replace(old, repl)
        cfg_file = tmp_path / "diverge.ini"
        cfg_file.write_text(text)
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        step = int(re.search(r"at step (\d+)", err).group(1))
        assert 1 < step < 500
        # the step named is the first one that fails
        cfg_file.write_text(text.replace("T = 500", f"T = {step - 1}"))
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_file)]) == 0

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
