import math
import os

import numpy as np
import pytest

from relcode.bench import (
    SchemaError,
    SweepConfig,
    bias_study,
    check_bias,
    check_thresholds,
    emit_plots,
    encode_vector,
    kl_bias_estimate,
    knn_kl_bits,
    run_sweep,
    write_rows,
)
from relcode.bench.cli import main as cli_main
from relcode.codecs import encode_payload
from relcode.distributions import Distribution1D, DistributionPair, gaussian_pair_for_targets
from relcode.engine import SplitRule, encode
from relcode.randomness import derive_seeds

PAIR = gaussian_pair_for_targets(2.0, 4.0)


def small_config(**kw):
    base = dict(
        mode="runtime_vs_dinf",
        dkl_grid=(2.0,),
        dinf_grid=(3.0, 4.0),
        seeds_per_point=300,
        variants=(SplitRule.SAMPLE, SplitRule.DYADIC),
        seed_base=7,
    )
    base.update(kw)
    return SweepConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(mode="nope")
        with pytest.raises(ValueError):
            small_config(seeds_per_point=10)
        with pytest.raises(ValueError):
            small_config(dkl_grid=())

    def test_bad_budget_and_grids_rejected_at_construction(self):
        with pytest.raises(ValueError):
            small_config(d_max=-1)
        with pytest.raises(TypeError):  # encode_batch's rule for a budget
            small_config(d_max=1.5)
        with pytest.raises(ValueError):
            small_config(dkl_grid=(1.0, 2.0, 3.0), dinf_grid=(4.0, 5.0))
        assert small_config(d_max=0).d_max == 0

    def test_grid_broadcast(self):
        cfg = small_config(dkl_grid=(3.0,), dinf_grid=(4.0, 5.0, 6.0))
        assert cfg.points() == [(3.0, 4.0), (3.0, 5.0), (3.0, 6.0)]
        cfg = small_config(dkl_grid=(1.0, 2.0), dinf_grid=(3.0, 4.0))
        assert cfg.points() == [(1.0, 3.0), (2.0, 4.0)]


class TestStats:
    def test_knn_kl_zero_for_same_law(self):
        rng = np.random.default_rng(0)
        ests = [
            knn_kl_bits(rng.normal(size=800), rng.normal(size=800))
            for _ in range(12)
        ]
        se = np.std(ests, ddof=1) / math.sqrt(len(ests))
        assert abs(np.mean(ests)) < 3 * se + 0.05

    def test_knn_kl_known_gaussian_divergence(self):
        # D(N(1,1) || N(0,1)) = 0.5 log2 e
        rng = np.random.default_rng(1)
        samples = rng.normal(loc=1.0, size=8000)
        mean, se, _ = kl_bias_estimate(
            samples, Distribution1D(0.0, 1.0), n_groups=10, seed=2
        )
        assert mean == pytest.approx(0.5 * math.log2(math.e), abs=3 * se + 0.08)

    def test_kl_bias_zero_when_exact(self):
        rng = np.random.default_rng(3)
        samples = PAIR.target.quantile(rng.random(4000))
        mean, se, _ = kl_bias_estimate(samples, PAIR.target, n_groups=10, seed=4)
        assert abs(mean) <= 3 * se + 0.05

    def test_ks_unbiasedness_happy_path(self):
        cfg = small_config(
            mode="unbiasedness", dinf_grid=(4.0,), seeds_per_point=5000,
            variants=(SplitRule.DYADIC,), seed_base=5,
        )
        (row,) = run_sweep(cfg)
        assert row["n"] == 5000 and row["ks_p"] > 1e-3

    def test_ks_wrong_seed_negative_control(self):
        # decoding codes with the wrong shared seed must not resemble the
        # target: the broken-contract samples fail the KS test hard
        from scipy import stats as ss
        from relcode.engine import decode, encode
        samples = []
        for seed in range(2000):
            res = encode(PAIR, SplitRule.DYADIC, seed)
            samples.append(
                decode(PAIR.proposal, SplitRule.DYADIC, seed + 1, res.heap_index)
            )
        res = ss.kstest(np.asarray(samples), PAIR.target.cdf)
        assert res.pvalue < 1e-3


class TestSweep:
    def test_rows_and_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = run_sweep(small_config())
        write_rows(rows, str(out))
        assert len(rows) == 4
        text = out.read_text().splitlines()
        assert text[0] == (
            "dkl_target,dinf_target,variant,n,mean_steps,se_steps,mean_bits,"
            "se_bits,mean_pathcost_bits,se_pathcost_bits,ks_p,reason"
        )
        assert len(text) == 5

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(run_sweep(small_config()), str(a))
        write_rows(run_sweep(small_config(workers=4)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bits_column_is_actual_codeword_length(self):
        cfg = small_config(variants=(SplitRule.DYADIC,), dinf_grid=(4.0,))
        (row,) = run_sweep(cfg)
        seeds = derive_seeds(cfg.seed_base, 3, 0, cfg.seeds_per_point)
        lens = []
        for s in seeds:
            res = encode(gaussian_pair_for_targets(2.0, 4.0), SplitRule.DYADIC, int(s))
            lens.append(len(encode_payload(res.rule, res.depth, res.heap_index)))
        assert row["mean_bits"] == pytest.approx(np.mean(lens), abs=1e-12)

    def test_unsatisfiable_point_reported(self):
        cfg = small_config(dkl_grid=(3.0,), dinf_grid=(3.1,))
        rows = run_sweep(cfg)
        assert all(r["reason"].startswith("unsatisfiable") for r in rows)
        assert all(math.isnan(r["mean_steps"]) for r in rows)

    def test_global_skipped_above_cutoff(self):
        cfg = small_config(
            variants=(SplitRule.GLOBAL,), dkl_grid=(3.0,), dinf_grid=(11.0,)
        )
        (row,) = run_sweep(cfg)
        assert row["reason"].startswith("skipped")

    def test_seed_base_changes_output(self):
        r1 = run_sweep(small_config())
        r2 = run_sweep(small_config(seed_base=8))
        assert r1 != r2

    def test_standard_errors_shrink_with_run_count(self):
        cfg_small = small_config(
            variants=(SplitRule.DYADIC,), dinf_grid=(4.0,), seeds_per_point=300
        )
        cfg_big = small_config(
            variants=(SplitRule.DYADIC,), dinf_grid=(4.0,), seeds_per_point=4800
        )
        (small,) = run_sweep(cfg_small)
        (big,) = run_sweep(cfg_big)
        assert set(small) == set(big)  # identical column schema
        ratio = small["se_steps"] / big["se_steps"]  # expect ~ sqrt(16) = 4
        assert 2.5 < ratio < 6.0

    def test_check_thresholds_codelength(self):
        cfg = small_config(
            mode="codelength_vs_dkl",
            dkl_grid=(1.0, 2.0),
            dinf_grid=(3.0, 4.0),
            seeds_per_point=500,
        )
        rows = run_sweep(cfg)
        assert check_thresholds(cfg, rows) == []

    def test_check_thresholds_flags_violations(self):
        cfg = small_config(mode="unbiasedness")
        rows = run_sweep(cfg)
        rows[0] = dict(rows[0], ks_p=1e-9)
        assert check_thresholds(cfg, rows)
        cfg2 = small_config(
            mode="codelength_vs_dkl", dkl_grid=(1.0,), dinf_grid=(3.0,),
        )
        rows2 = run_sweep(cfg2)
        rows2[0] = dict(rows2[0], mean_bits=99.0)
        assert any("mean bits" in v for v in check_thresholds(cfg2, rows2))

    def test_depth_limited_sweep(self):
        cfg = small_config(d_max=1, dinf_grid=(4.0,))
        rows = run_sweep(cfg)
        for r in rows:
            assert r["mean_steps"] <= 1.0


class TestBiasMode:
    def test_rows_and_monotone_trend(self, tmp_path):
        out = tmp_path / "bias.csv"
        rows = bias_study(3.0, 5.0, (1, 4, 8), samples_per_group=200,
                          n_groups=10, seed_base=3)
        write_rows(rows, str(out))
        assert [r["extra_bits"] for r in rows] == ["1", "4", "8", "exact"]
        assert rows[0]["d_max"] == 4 and rows[-1]["d_max"] == "inf"
        assert check_bias(rows) == []
        header = out.read_text().splitlines()[0]
        assert header.startswith("dkl_target,dinf_target,variant,extra_bits")

    def test_needs_extra_bits(self):
        with pytest.raises(ValueError):
            bias_study(3.0, 5.0, extra_bits=())


class TestVector:
    def test_report_and_round_trip(self):
        pairs = [gaussian_pair_for_targets(k, k + 0.75)
                 for k in np.linspace(0.05, 0.5, 16)]
        report = encode_vector(pairs, seed=5, calibration_runs=128, repeats=8)
        assert report.round_trip_ok
        assert len(report.dims) == 16
        assert report.kl_total_bits == pytest.approx(
            sum(p.dkl_bits for p in pairs)
        )
        assert report.zeta_total_bits <= report.delta_total_bits
        for d in report.dims:
            overhead = d.mean_delta_bits - d.kl_bits
            assert 0.0 <= overhead <= 2.0 * math.log2(d.kl_bits + 1.0) + 6.0

    def test_identical_pairs_cost_near_zero(self):
        std = Distribution1D(0.0, 1.0)
        pairs = [DistributionPair(std, std)] * 6
        report = encode_vector(pairs, seed=6, calibration_runs=64, repeats=2)
        # every index is 1; the joint stream only pays the AC termination
        assert report.zeta_total_bits <= 3.0
        assert report.delta_total_bits == 6.0

    @pytest.mark.parametrize("dims, calib, repeats", [
        (0, 256, 1), (2, 0, 1), (2, -3, 1), (2, 256, 0),
    ])
    def test_bad_run_counts_raise_before_encoding(self, dims, calib, repeats, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "relcode.bench.vector.encode_batch", lambda *a, **k: calls.append(a)
        )
        pairs = [gaussian_pair_for_targets(0.2, 0.95)] * dims
        with pytest.raises(ValueError):
            encode_vector(pairs, 0, calibration_runs=calib, repeats=repeats)
        assert calls == []


class TestPlots:
    def test_emit_and_determinism(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        write_rows(run_sweep(small_config()), str(csv_path))
        out1 = tmp_path / "p1"
        out2 = tmp_path / "p2"
        files1 = emit_plots(str(csv_path), str(out1))
        files2 = emit_plots(str(csv_path), str(out2))
        assert [os.path.basename(f) for f in files1] == [
            os.path.basename(f) for f in files2
        ]
        for f1, f2 in zip(files1, files2):
            assert open(f1, "rb").read() == open(f2, "rb").read()
        names = {os.path.basename(f) for f in files1}
        assert "sweep_steps_sample.dat" in names
        assert "sweep.gp" in names

    def test_schema_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            emit_plots(str(bad), str(tmp_path / "out"))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SchemaError):
            emit_plots(str(empty), str(tmp_path / "out2"))


class TestCli:
    def test_sweep_and_plot(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli_main([
            "sweep", "--mode", "runtime_vs_dinf", "--dkl", "2",
            "--dinf", "3,4", "--variants", "dyadic", "--seeds", "200",
            "--seed-base", "2", "--out", str(out),
        ])
        assert rc == 0 and out.exists()
        rc = cli_main(["plot", str(out), "--outdir", str(tmp_path / "plots")])
        assert rc == 0
        assert (tmp_path / "plots" / "s.gp").exists()

    def test_unbias_check_passes(self):
        rc = cli_main([
            "unbias", "--dkl", "1.5", "--dinf", "3", "--variants", "dyadic",
            "--seeds", "2000", "--seed-base", "3", "--check",
        ])
        assert rc == 0

    def test_vector_check(self, tmp_path):
        rc = cli_main([
            "vector", "--dims", "6", "--kl-min", "0.1", "--kl-max", "0.4",
            "--seed-base", "4", "--calib", "64", "--repeats", "2",
            "--out", str(tmp_path / "v.csv"), "--check",
        ])
        assert rc == 0
        lines = (tmp_path / "v.csv").read_text().splitlines()
        assert lines[0] == (
            "dim,kl_bits,log_overhead_bits,fitted_exponent,mean_log2_index,"
            "mean_delta_bits,mean_zeta_info_bits,failure"
        )
        assert len(lines) == 7

    def test_bias_out_and_check(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        extra = ["1", "2", "3"]
        rc = cli_main([
            "bias", "--extra-bits", ",".join(extra), "--samples", "100",
            "--seed-base", "4", "--out", str(out), "--check",
        ])
        assert rc == 0
        assert "all checks passed" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "dkl_target,dinf_target,variant,extra_bits,d_max,samples_per_group,"
            "n_groups,bias_bits,se_bias_bits"
        )
        assert len(lines) == 2 + len(extra)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dkl", "2", "--dinf", "4", "--dmax", "-1"],
        ["unbias", "--dkl", "1,2,3", "--dinf", "4,5"],
        ["bias", "--samples", "10"],
        ["bias", "--extra-bits=-5"],
        ["bias", "--groups", "1"],
        ["vector", "--kl-min", "0", "--dims", "3"],
        ["vector", "--dims", "0"],
        ["vector", "--calib", "0"],
        ["vector", "--calib", "-3"],
        ["vector", "--repeats", "0"],
        ["bias", "--extra-bits", "1.5,2.9"],
    ])
    def test_bad_options_exit_2_before_encoding(self, argv, monkeypatch, capsys):
        calls = []
        for module in ("sweep", "bias", "vector"):
            monkeypatch.setattr(
                f"relcode.bench.{module}.encode_batch", lambda *a, **k: calls.append(a)
            )
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert calls == []

    def test_bias_error_after_first_encode_is_not_a_usage_error(self, monkeypatch):
        # only the option checks become usage errors; a fault inside the study
        # keeps its traceback
        def fail(*a, **k):
            raise ValueError("fault inside encode_batch")

        monkeypatch.setattr("relcode.bench.bias.encode_batch", fail)
        with pytest.raises(ValueError, match="fault inside encode_batch"):
            cli_main(["bias", "--extra-bits", "1", "--samples", "20", "--groups", "2"])

    def test_run_options_only_on_grid_commands(self, tmp_path):
        # only sweep and unbias have runs and workers to set
        for argv in (["vector", "--seeds", "5"], ["bias", "--workers", "2"]):
            with pytest.raises(SystemExit) as err:
                cli_main(argv)
            assert err.value.code == 2

    def test_range_syntax(self, tmp_path):
        rc = cli_main([
            "sweep", "--mode", "runtime_vs_dinf", "--dkl", "2",
            "--dinf", "3..5", "--variants", "dyadic", "--seeds", "150",
            "--seed-base", "5", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert len(lines) == 4
