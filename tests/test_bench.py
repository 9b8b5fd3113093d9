import argparse
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from relcode.bench import (
    SweepConfig,
    bias_study,
    check_bias,
    check_thresholds,
    encode_vector,
    kl_bias_estimate,
    knn_kl_bits,
    run_sweep,
    write_rows,
)
from relcode.bench.cli import build_parser, main as cli_main
from relcode.bench.vector import VectorReport
from relcode.codecs import encode_payload
from relcode.distributions import (
    Distribution1D,
    DistributionPair,
    NotUnimodal,
    gaussian_pair_for_targets,
)
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
        for n in (150.5, 300.0):  # derive_seeds' rule for a count
            with pytest.raises(TypeError):
                small_config(seeds_per_point=n)
        for variants in (("dyadic",), (SplitRule.SAMPLE, "global"), (None,)):
            with pytest.raises(ValueError, match="SplitRule"):
                small_config(variants=variants)
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

    def test_kl_bias_needs_two_groups(self):
        # one group has no standard error: numpy's ddof=1 spread is NaN there
        samples = PAIR.target.quantile(np.random.default_rng(3).random(400))
        with pytest.raises(ValueError, match="2 groups"):
            kl_bias_estimate(samples, PAIR.target, n_groups=1)

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
        # forced, the same point runs every seed
        forced = small_config(
            variants=(SplitRule.GLOBAL,), dkl_grid=(3.0,), dinf_grid=(11.0,),
            seeds_per_point=100, force_global=True,
        )
        (row,) = run_sweep(forced)
        assert row["n"] == forced.seeds_per_point and row["reason"] == ""
        assert math.isfinite(row["mean_steps"])

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


class TestColdStart:
    """Importing the package and the ``bench`` harness leaves ``scipy.stats``
    unloaded: its one use, the sweep's KS p-value, imports it when first
    needed and gives the same value."""

    CHILD = textwrap.dedent("""
        import sys
        import relcode, relcode.codecs, relcode.bench, relcode.bench.vector
        import relcode.bench.cli
        assert "scipy.stats" not in sys.modules, "import loaded scipy.stats"
        from relcode import SplitRule, derive_seeds, encode_batch
        from relcode import gaussian_pair_for_targets
        from relcode.bench import SweepConfig, run_sweep
        cfg = SweepConfig("unbiasedness", (2.0,), (4.0,), seeds_per_point=100,
                          variants=(SplitRule.DYADIC,), seed_base=5)
        (row,) = run_sweep(cfg)
        pair = gaussian_pair_for_targets(2.0, 4.0)
        out = encode_batch(pair, SplitRule.DYADIC, derive_seeds(5, 3, 0, 100))
        from scipy.stats import kstest
        want = float(kstest(out.samples, pair.target.cdf).pvalue)
        assert row["ks_p"].hex() == want.hex(), (row["ks_p"], want)
    """)

    def test_scipy_stats_loads_only_for_ks(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", self.CHILD],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


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

    def test_bench_grid_round_trips_over_seeds(self):
        # the ``bench vector`` defaults: 50 dimensions, KL 0.05 to 0.5 bits
        kls = [0.05 + 0.45 * d / 49 for d in range(50)]
        pairs = [gaussian_pair_for_targets(kl, kl + 0.75) for kl in kls]
        for seed in range(20):
            report = encode_vector(pairs, seed, calibration_runs=256, repeats=10)
            assert report.round_trip_ok, seed
            assert all(d.fitted_exponent is not None for d in report.dims), seed

    def test_low_kl_grid_round_trips(self):
        # ``bench vector --dims 50 --kl-min 0.001 --kl-max 0.02``: steep fits,
        # under which some evaluation indices have empty intervals and escape
        kls = [0.001 + 0.019 * d / 49 for d in range(50)]
        pairs = [gaussian_pair_for_targets(kl, kl + 0.75) for kl in kls]
        report = encode_vector(pairs, 0, calibration_runs=64, repeats=20)
        assert report.round_trip_ok

    def test_identical_pairs_cost_near_zero(self):
        std = Distribution1D(0.0, 1.0)
        pairs = [DistributionPair(std, std)] * 6
        report = encode_vector(pairs, seed=6, calibration_runs=64, repeats=2)
        # every index is 1; the joint stream only pays the AC termination
        assert report.zeta_total_bits <= 3.0
        assert report.delta_total_bits == 6.0

    def test_equal_pairs_give_the_same_report(self):
        # equal pairs are one pair, whichever objects carry them
        pair = gaussian_pair_for_targets(0.2, 0.95)
        equal = [gaussian_pair_for_targets(0.2, 0.95) for _ in range(4)]
        assert len({id(p) for p in equal}) == 4
        assert encode_vector(equal, 7, calibration_runs=64, repeats=3) == encode_vector(
            [pair] * 4, 7, calibration_runs=64, repeats=3
        )

    def test_non_integer_seed_raises_type_error(self):
        pairs = [gaussian_pair_for_targets(0.2, 0.95)] * 2
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            encode_vector(pairs, 1.5)

    def test_zero_mass_index_reports_infinite_info(self, monkeypatch):
        # all-ones calibration fits MAX_EXPONENT, under which 2**60 has pmf
        # 0.0: the joint stream escapes it, and its information is infinite
        import relcode.bench.vector as bench_vector

        class Batch:
            heap_indices = [1] * 8 + [2**60, 3]

        monkeypatch.setattr(bench_vector, "encode_batch", lambda *a, **k: Batch)
        pairs = [gaussian_pair_for_targets(0.2, 0.95)] * 2
        report = encode_vector(pairs, 0, calibration_runs=4)
        assert report.round_trip_ok
        assert [d.fitted_exponent for d in report.dims] == [20.0, 20.0]
        assert report.dims[0].mean_zeta_info_bits == math.inf
        assert math.isfinite(report.dims[1].mean_zeta_info_bits)

    def test_calibration_log2_rounds_each_index_as_float(self, monkeypatch):
        # the calibration indices become float64 in one numpy conversion,
        # which must round each as float(int) does: at ties past 2**53 and
        # 2**64, at 2**63, and above 2**191, where one ulp is 2**139
        import relcode.bench.vector as bench_vector
        from relcode.codecs import Unfittable

        calib = [2**53 - 1, 2**53 + 1, 2**63, 2**64 - 1, 2**64 + 1, 2**191 + 2**138 + 1]
        assert np.array(calib, dtype=np.float64).tolist() == [float(i) for i in calib]

        class Batch:
            heap_indices = calib + [1, 2]

        fitted = []

        def fit(samples):
            fitted.append(np.asarray(samples).tolist())
            raise Unfittable("recorded")

        monkeypatch.setattr(bench_vector, "encode_batch", lambda *a, **k: Batch)
        monkeypatch.setattr(bench_vector, "fit_zeta", fit)
        pairs = [gaussian_pair_for_targets(0.2, 0.95)] * 2
        report = encode_vector(pairs, 0, calibration_runs=3)
        assert report.round_trip_ok
        assert fitted == [np.log2([float(i) for i in calib[:3]]).tolist(),
                          np.log2([float(i) for i in calib[3:]]).tolist()]

    def test_failed_round_trip_is_reported_and_costs_the_same(self, monkeypatch):
        pairs = [gaussian_pair_for_targets(k, k + 0.75) for k in (0.1, 0.3, 0.5)]
        clean = encode_vector(pairs, seed=3, calibration_runs=32, repeats=2)
        monkeypatch.setattr(
            "relcode.bench.vector.decode_joint", lambda stream, models: [0] * len(models)
        )
        report = encode_vector(pairs, seed=3, calibration_runs=32, repeats=2)
        assert clean.round_trip_ok and report.round_trip_ok is False
        assert report.zeta_total_bits == clean.zeta_total_bits
        assert report.delta_total_bits == clean.delta_total_bits

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

    def test_bad_last_pair_raises_before_encoding(self, monkeypatch):
        import relcode.bench.vector as bench_vector
        import relcode.engine as engine

        calls, steps = [], []
        encode_batch, node_uniforms = bench_vector.encode_batch, engine.node_uniforms
        monkeypatch.setattr(
            bench_vector, "encode_batch", lambda *a, **k: calls.append(encode_batch(*a, **k))
        )
        monkeypatch.setattr(
            engine, "node_uniforms", lambda *a: steps.append(a) or node_uniforms(*a)
        )
        wide = DistributionPair(Distribution1D(0.5, 1.5), Distribution1D(0.0, 1.0))
        pairs = [gaussian_pair_for_targets(0.2, 0.95)] * 7 + [wide]
        with pytest.raises(NotUnimodal):
            encode_vector(pairs, 0, calibration_runs=64, repeats=2)
        assert calls == [] and steps == []


class TestCli:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli_main([
            "sweep", "--mode", "runtime_vs_dinf", "--dkl", "2",
            "--dinf", "3,4", "--variants", "dyadic", "--seeds", "200",
            "--seed-base", "2", "--out", str(out),
        ])
        assert rc == 0 and out.exists()

    def test_subcommands(self, tmp_path, capsys):
        # sweep CSVs hold the (x, y, yerr) columns themselves; there is no
        # plot-data emitter
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {"sweep", "bias", "vector"}
        with pytest.raises(SystemExit) as err:
            cli_main(["plot", "s.csv", "--outdir", str(tmp_path / "plots")])
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_readme_examples_parse(self):
        # every `bench` line in README.md's bash blocks is one the parser takes
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = []
        for block in re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S):
            for line in block.replace("\\\n", " ").splitlines():
                line = line.split("#", 1)[0].strip()
                if line.startswith("bench "):
                    lines.append(line)
        assert lines
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_unbias_check_passes(self):
        rc = cli_main([
            "sweep", "--mode", "unbiasedness", "--dkl", "1.5", "--dinf", "3",
            "--variants", "dyadic", "--seeds", "2000", "--seed-base", "3", "--check",
        ])
        assert rc == 0

    def test_vector_check(self, tmp_path, capsys):
        rc = cli_main([
            "vector", "--dims", "6", "--kl-min", "0.1", "--kl-max", "0.4",
            "--seed-base", "4", "--calib", "64", "--repeats", "2",
            "--out", str(tmp_path / "v.csv"), "--check",
        ])
        assert rc == 0
        assert "all checks passed" in capsys.readouterr().out
        lines = (tmp_path / "v.csv").read_text().splitlines()
        assert lines[0] == (
            "dim,kl_bits,log_overhead_bits,fitted_exponent,mean_log2_index,"
            "mean_delta_bits,mean_zeta_info_bits,failure"
        )
        assert len(lines) == 7

    @pytest.mark.parametrize("round_trip_ok, zeta_bits, failed", [
        (False, 5.0, ["joint index stream failed to round-trip"]),
        (True, 20.0, ["zeta totals exceed delta totals"]),
        (False, 20.0, ["joint index stream failed to round-trip",
                       "zeta totals exceed delta totals"]),
    ])
    def test_vector_check_names_each_failure(
        self, round_trip_ok, zeta_bits, failed, monkeypatch, capsys
    ):
        report = VectorReport(
            dims=(), repeats=1, delta_total_bits=10.0, zeta_total_bits=zeta_bits,
            kl_total_bits=1.0, log_overhead_total_bits=1.0, round_trip_ok=round_trip_ok,
        )
        monkeypatch.setattr("relcode.bench.cli.encode_vector", lambda *a, **k: report)
        assert cli_main(["vector", "--dims", "3", "--check"]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"CHECK FAILED: {f}" for f in failed]
        assert "all checks passed" not in out

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
        ["sweep", "--mode", "unbiasedness", "--dkl", "1,2,3", "--dinf", "4,5",
         "--variants", "sample,dyadic"],
        ["bias", "--samples", "10"],
        ["bias", "--extra-bits=-5"],
        ["bias", "--groups", "1"],
        ["vector", "--kl-min", "0", "--dims", "3"],
        ["vector", "--dims", "0"],
        ["vector", "--calib", "0"],
        ["vector", "--calib", "-3"],
        ["vector", "--repeats", "0"],
        ["bias", "--extra-bits", "1.5,2.9"],
        ["sweep", "--dkl", "2", "--dinf", "4", "--variants", "bogus"],
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
        # only sweep has runs to set
        for argv in (
            ["vector", "--seeds", "5"],
            ["bias", "--workers", "2"],
            ["sweep", "--dkl", "2", "--dinf", "4", "--seeds", "100", "--workers", "2"],
            ["sweep", "--mode", "unbiasedness", "--dkl", "2", "--dinf", "4",
             "--variants", "sample,dyadic", "--seeds", "100", "--workers", "2"],
        ):
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
