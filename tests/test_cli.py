import importlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from nucleatrace import AmbientSpace, NuclearIndex, Representation, induced_matrix
from nucleatrace import experiments
from nucleatrace.cli import main
from nucleatrace.experiments import (
    _ORACLE_CROSS_CHECK_DIM,
    COMMANDS,
    FIELDS,
    ExperimentConfig,
    _jsonable,
    _trial_rng,
    run,
)
from nucleatrace.spectral import (
    audit_trace_formula,
    characteristic_roots,
    eigenvalues,
    match_spectra,
    trace_formula_exponent,
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


# a valid value off the default for each config field
OFF_DEFAULT = {
    "seed": 1, "trials": 2, "dims": (4,), "p": (1.0,), "s": 0.5, "r": 0.5,
    "w": 1.0, "alpha": 0.25, "tolerance": 1e-6, "epsilon": 0.2, "beta": 2.0,
    "beta_min": 1.7, "beta_max": 2.9, "length": 8, "truncation": 8,
    "gamma": 1.5, "profile": "random", "a": (1.0,), "b": (1.0,),
}

# (subcommand, config field it does not read)
UNREAD = [(sub, name) for sub, row in COMMANDS.items() for name in FIELDS if name not in row.fields]


def _flag(name):
    value = OFF_DEFAULT[name]
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return ["--" + name.replace("_", "-"), text]


class TestConfig:
    def test_unknown_subcommand(self):
        with pytest.raises(ValueError):
            ExperimentConfig(subcommand="nope")

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"subcommand": "holder", "bogus": 1})

    def test_exponent_parsing(self):
        cfg = ExperimentConfig.from_dict(
            {"subcommand": "trace-audit", "p": [1, "inf", 2.5]}
        )
        assert cfg.p == (1.0, math.inf, 2.5)
        cfg = ExperimentConfig.from_dict({"subcommand": "lorentz", "w": "oo"})
        assert cfg.w == math.inf
        cfg = ExperimentConfig.from_dict(
            {"subcommand": "holder", "a": [1, "Infinity"], "b": ["oo"]}
        )
        assert cfg.a == (1.0, math.inf) and cfg.b == (math.inf,)

    def test_validation(self):
        cases = [
            ("holder", {"trials": 0}), ("trace-audit", {"dims": ()}),
            ("trace-audit", {"p": (0.5,)}), ("holder", {"seed": -1}),
            ("trace-audit", {"dims": (4, 0)}), ("trace-audit", {"p": (2.0, math.nan)}),
            # lorentz at length 0 passed vacuously, and holder failed inside numpy
            ("lorentz", {"length": 0}), ("holder", {"length": 0}),
            ("factorize", {"truncation": 0}), ("approx", {"profile": "diagonal"}),
        ]
        for subcommand, bad in cases:
            with pytest.raises(ValueError, match="must"):
                ExperimentConfig(subcommand=subcommand, **bad)

    @pytest.mark.parametrize(
        "bad",
        [{"dims": 8}, {"seed": "5"}, {"trials": 2.5}, {"dims": [4.7]},
         {"p": "2"}, {"a": "1,2"}, {"b": 1.0}, {"length": 64.0},
         {"truncation": True}, {"s": "0.5"}, {"r": True}, {"alpha": [1]},
         {"tolerance": "1e-3"}, {"epsilon": None}, {"beta": "2"},
         {"beta_min": None}, {"beta_max": "3"}, {"gamma": {}},
         {"p": [[1]]}, {"a": [True]}, {"b": [None]},
         {"w": [1]}, {"w": False}],
    )
    def test_wrong_types_rejected(self, bad):
        # run each case on a subcommand that reads the field, so the type is what fails
        (name,) = bad
        subcommand = next(sub for sub, row in COMMANDS.items() if name in row.fields)
        with pytest.raises(ValueError, match="must"):
            ExperimentConfig.from_dict({"subcommand": subcommand, **bad})
        with pytest.raises(ValueError, match="must"):
            ExperimentConfig(subcommand=subcommand, **bad)

    @pytest.mark.parametrize("subcommand, name", UNREAD)
    def test_unread_field_off_its_default_rejected(self, subcommand, name):
        with pytest.raises(ValueError, match=f"{subcommand} does not read {name}"):
            ExperimentConfig(subcommand=subcommand, **{name: OFF_DEFAULT[name]})

    @pytest.mark.parametrize(
        "subcommand, name",
        [("approx", "dims"), ("approx", "p"), ("eigen-type", "p")],
    )
    def test_one_value_fields(self, subcommand, name):
        ExperimentConfig(subcommand=subcommand, **{name: OFF_DEFAULT[name]})
        with pytest.raises(ValueError, match=f"exactly one value of {name}"):
            ExperimentConfig(subcommand=subcommand, **{name: OFF_DEFAULT[name] * 2})

    @pytest.mark.parametrize("given", [{"a": (1.0, 2.0)}, {"b": (0.5,)}])
    def test_a_and_b_go_together(self, given):
        with pytest.raises(ValueError, match="a and b must be given together"):
            ExperimentConfig(subcommand="holder", **given)


class TestRun:
    def test_holder_equality_record(self):
        cfg = ExperimentConfig(
            subcommand="holder", trials=1, s=2.0 / 3.0, a=(1.0, 0.0), b=(1.0, 0.0)
        )
        report = run(cfg)
        rec = report.records[0]
        assert rec["lhs"] == 1.0 and rec["rhs"] == 1.0
        assert rec["pass"]
        assert not report.failed

    def test_holder_witness_check_is_scale_free(self, monkeypatch):
        # at scale 1e-14 a floor of 1e-9 on the witness gap passed any witness
        real = experiments.sharpness_witness
        monkeypatch.setattr(
            experiments,
            "sharpness_witness",
            lambda a, s: real(a, s) * (1.0 + 1e-6),
        )
        cfg = ExperimentConfig(
            subcommand="holder", trials=1, s=2.0 / 3.0, a=(3e-14, 1e-14), b=(2e-14, 1e-14)
        )
        rec = run(cfg).records[0]
        assert rec["lhs"] <= rec["rhs"]
        assert not rec["pass"]

    @pytest.mark.parametrize("call, flag", [(1, "rearrangement_invariant"), (2, "homogeneous")])
    def test_lorentz_checks_are_scale_free(self, monkeypatch, call, flag):
        # norms near 1e-13, one of them off by 1e-6 relative: a floor of 1e-9 passed it
        real = experiments.lorentz_quasi_norm
        calls = []

        def tiny(a, index):
            off = 1e-6 if len(calls) == call else 0.0
            calls.append(off)
            return 1e-13 * real(a, index) * (1.0 + off)

        monkeypatch.setattr(experiments, "lorentz_quasi_norm", tiny)
        rec = run(ExperimentConfig(subcommand="lorentz", trials=1)).records[0]
        assert not rec[flag]
        assert not rec["pass"]

    def test_trace_audit_seeded_ensemble(self):
        cfg = ExperimentConfig(
            subcommand="trace-audit",
            seed=7,
            trials=10,
            dims=(4,),
            p=(2.0,),
            s=2.0 / 3.0,
        )
        report = run(cfg)
        assert len(report.records) == 10
        assert all(r["pass"] for r in report.records)
        assert report.aggregate["max_defect"] <= 1e-8

    def test_approx_echoes_cutoff(self):
        cfg = ExperimentConfig(
            subcommand="approx", dims=(256,), p=(2.0,), epsilon=0.1, alpha=0.5
        )
        report = run(cfg)
        assert report.records[0]["cutoff"] == 120
        assert report.records[0]["sup_error"] <= 0.1

    def test_eigen_type_verdict(self):
        cfg = ExperimentConfig(
            subcommand="eigen-type", dims=(8, 16, 32, 64), p=(1.0,)
        )
        report = run(cfg)
        assert report.aggregate["verdict"] == "BOUNDED"
        assert len(report.records) == 4

    def test_lorentz_rejects_inadmissible_index(self):
        cfg = ExperimentConfig(subcommand="lorentz", r=1.0, w=2.0)
        with pytest.raises(ValueError):
            run(cfg)

    def test_factorize_record(self):
        cfg = ExperimentConfig(
            subcommand="factorize", trials=2, truncation=512, seed=3
        )
        report = run(cfg)
        assert all(r["exact_reconstruction"] for r in report.records)
        assert all(r["pass"] for r in report.records)

    @pytest.mark.parametrize("truncation", range(1, 9))
    def test_factorize_short_truncations_pass(self, truncation):
        # below 4 entries the quarter point was the first entry, and exact splits failed
        cfg = ExperimentConfig(subcommand="factorize", trials=200, truncation=truncation)
        report = run(cfg)
        assert all(r["exact_reconstruction"] and r["tail_non_increasing"] for r in report.records)
        assert report.aggregate["fail_count"] == 0

    def test_similarity_records(self):
        cfg = ExperimentConfig(subcommand="similarity", trials=5, dims=(8,))
        report = run(cfg)
        assert all(r["pass"] for r in report.records)


class TestDeterminism:
    def test_same_seed_same_body(self):
        cfg = ExperimentConfig(subcommand="holder", seed=5, trials=8)
        assert run(cfg).body_text() == run(cfg).body_text()

    def test_different_seed_differs(self):
        a = run(ExperimentConfig(subcommand="holder", seed=1, trials=4))
        b = run(ExperimentConfig(subcommand="holder", seed=2, trials=4))
        assert a.body_text() != b.body_text()

    def test_wall_time_not_in_body(self):
        report = run(ExperimentConfig(subcommand="holder", trials=1))
        assert "wall_time_s" not in report.body()
        assert "wall_time_s" in json.loads(report.to_json_text())


def _draw_representation(rng, n, p):
    space = AmbientSpace(n, p)
    lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    F = rng.standard_normal((n, n))
    X = rng.standard_normal((n, n))
    return Representation.from_arrays(lam, F, X, space, space)


def _reference_trace_audit(cfg, trial, rng):
    """trace-audit one trial at a time, one representation at a time."""
    out = []
    scale = cfg.tolerance if cfg.tolerance is not None else 1e-8
    for n in cfg.dims:
        for p in cfg.p:
            s = cfg.s if cfg.s is not None else trace_formula_exponent(p)
            z = _draw_representation(rng, n, p)
            report = audit_trace_formula(
                z, NuclearIndex.absolutely_summable(s), tolerance_scale=scale
            )
            ok = report.passed
            oracle_gap = None
            if n <= _ORACLE_CROSS_CHECK_DIM:
                M = induced_matrix(z)
                matched, worst = match_spectra(
                    eigenvalues(M),
                    characteristic_roots(M.entries),
                    rel=1e-7,
                    abs_floor=1e-7,
                )
                oracle_gap = worst
                ok = bool(ok and matched)
            out.append({
                "trial": trial,
                "n": n,
                "p": p,
                "s": s,
                "nuclear_trace": report.nuclear_trace,
                "spectral_sum": report.spectral_sum,
                "defect": report.defect,
                "eigen_l1": report.eigen_l1,
                "quasi_norm": report.quasi_norm,
                "ratio": report.ratio,
                "frobenius": report.frobenius,
                "oracle_gap": oracle_gap,
                "pass": bool(ok),
            })
    return out


BENCHMARK_P = (1.0, 1.5, 2.0, 4.0, math.inf)


class TestTraceAuditStacks:
    """Stacking each dimension across trials and exponents changes no record bit."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": 0, "trials": 5, "dims": (4, 8, 16, 32), "p": BENCHMARK_P},
            {"seed": 1, "trials": 5, "dims": (4, 8, 16, 32), "p": BENCHMARK_P},
            {"seed": 2, "trials": 5, "dims": (4, 8, 16, 32), "p": BENCHMARK_P},
            {"seed": 3, "trials": 4, "dims": (4, 8), "p": (1.0, 2.0), "s": 0.8, "tolerance": 1e-10},
            {"seed": 4, "trials": 3, "dims": (32, 4, 4), "p": (1.5, math.inf)},
            {"seed": 5, "trials": 6, "dims": (1, 2, 5, 6, 7), "p": (3.0,)},
            {"seed": 6, "trials": 1, "dims": (4, 8), "p": BENCHMARK_P},
            # an oracle row of this config runs to the iteration cap
            {"seed": 1, "trials": 2, "dims": (4,), "p": BENCHMARK_P},
        ],
        ids=["bench-0", "bench-1", "bench-2", "s-tolerance", "repeated-dims", "one-p", "one-trial",
             "capped-oracle"],
    )
    def test_records_match_per_trial_reference(self, fields):
        cfg = ExperimentConfig(subcommand="trace-audit", **fields)
        expected = [
            rec for t in range(cfg.trials)
            for rec in _reference_trace_audit(cfg, t, _trial_rng(cfg.seed, t))
        ]
        got = run(cfg).records
        assert json.dumps(_jsonable(got)) == json.dumps(_jsonable(expected))

    def test_zero_coefficient_draw_goes_in_alone(self, monkeypatch):
        # uniform(0, 1) returns 0.0 with probability 2**-53 per entry; a single
        # representation drops that atom, where a stack would refuse it
        class ZeroOnThirdUniform:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def uniform(self, *args, **kwargs):
                self.calls += 1
                draw = self.rng.uniform(*args, **kwargs)
                if self.calls == 3:
                    draw[1] = 0.0
                return draw

            def standard_normal(self, *args, **kwargs):
                return self.rng.standard_normal(*args, **kwargs)

        def rngs(seed, trial):
            return ZeroOnThirdUniform(_trial_rng(seed, trial))

        # every trial's third draw, n = 8 and p = 1, holds the zero
        cfg = ExperimentConfig(subcommand="trace-audit", seed=2, trials=3, dims=(4, 8), p=(1.0, 2.0))
        expected = [rec for t in range(cfg.trials) for rec in _reference_trace_audit(cfg, t, rngs(cfg.seed, t))]
        monkeypatch.setattr(experiments, "_trial_rng", rngs)
        got = run(cfg).records
        assert json.dumps(_jsonable(got)) == json.dumps(_jsonable(expected))


class TestCli:
    def test_holder_fixed_pair(self, runner):
        result = invoke(
            runner,
            ["holder", "--trials", "1", "--s", "0.6666666666666666",
             "--a", "1,0", "--b", "1,0"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["records"][0]["lhs"] == 1.0
        assert payload["aggregate"]["fail_count"] == 0

    def test_trace_audit_flags(self, runner):
        result = invoke(
            runner,
            ["trace-audit", "--seed", "7", "--trials", "3", "--dims", "4",
             "--p", "2", "--s", "0.6666666666666666"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["aggregate"]["pass_count"] == 3

    def test_inf_exponent_parsing(self, runner):
        result = invoke(
            runner,
            ["trace-audit", "--trials", "1", "--dims", "4", "--p", "1,inf"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["config"]["p"] == [1.0, "inf"]
        assert len(payload["records"]) == 2

    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = invoke(
            runner,
            ["similarity", "--trials", "2", "--dims", "6",
             "--format", "csv", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header plus two records
        assert "pass" in lines[0].split(",")

    def test_config_file_with_flag_override(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"trials": 2, "seed": 1, "dims": [4]}))
        result = invoke(
            runner,
            ["trace-audit", "--config", str(config), "--trials", "3"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["config"]["trials"] == 3  # flag wins
        assert payload["config"]["seed"] == 1

    def test_config_file_wrong_type_is_clean_error(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": 8}))
        result = runner.invoke(main, ["trace-audit", "--config", str(config)])
        assert result.exit_code == 1
        assert "dims must be a list" in result.output
        assert not isinstance(result.exception, TypeError)

    @pytest.mark.parametrize(
        "command, bad",
        [("holder", {"s": "0.5"}), ("trace-audit", {"p": [[1]]}),
         ("lorentz", {"w": [1]})],
    )
    def test_config_file_wrong_number_type_is_clean_error(
        self, runner, tmp_path, command, bad
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(bad))
        result = runner.invoke(main, [command, "--config", str(config)])
        assert result.exit_code == 1
        assert "must be a number" in result.output
        assert not isinstance(result.exception, TypeError)

    def test_config_file_subcommand_mismatch(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"subcommand": "holder"}))
        result = runner.invoke(
            main, ["similarity", "--config", str(config)]
        )
        assert result.exit_code != 0

    def test_similarity_of_dimension_one_is_clean_error(self, runner):
        result = runner.invoke(main, ["similarity", "--dims", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1] == "Error: similarity needs a dimension of at least 2"
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_lone_a_or_b_is_clean_error(self, runner, flag):
        # a lone --a was ignored, and holder ran on random draws
        result = runner.invoke(main, ["holder", "--trials", "1", flag, "1,2"])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "Error: a and b must be given together"

    def test_second_value_of_one_value_field_is_clean_error(self, runner):
        result = runner.invoke(main, ["approx", "--dims", "8,16"])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "Error: approx takes exactly one value of dims"

    def test_inadmissible_lorentz_index_fails(self, runner):
        result = runner.invoke(main, ["lorentz", "--r", "1.0", "--w", "2.0"])
        assert result.exit_code != 0
        assert "w <= 1" in result.output

    def test_failing_check_sets_exit_code(self, runner):
        # equality pair has zero defect; demanding defect >= 1 must fail
        result = runner.invoke(
            main,
            ["holder", "--trials", "1", "--a", "1,0", "--b", "1,0",
             "--tolerance", "-1"],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["aggregate"]["fail_count"] == 1
        # offending inputs ride along with the failing record
        assert payload["records"][0]["a"] == [1.0, 0.0]

    def test_eigen_type_cli(self, runner):
        result = invoke(
            runner, ["eigen-type", "--dims", "8,16,32", "--p", "1"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["aggregate"]["verdict"] == "BOUNDED"

    def test_repeat_invocations_byte_identical(self, runner):
        args = ["factorize", "--trials", "2", "--truncation", "256", "--seed", "11"]
        first = invoke(runner, args).output
        second = invoke(runner, args).output
        body1 = {k: v for k, v in json.loads(first).items() if k != "wall_time_s"}
        body2 = {k: v for k, v in json.loads(second).items() if k != "wall_time_s"}
        assert body1 == body2


class TestCommandTable:
    def test_commands_are_the_subcommands(self):
        assert sorted(main.commands) == sorted(COMMANDS)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_parameters_are_config_fields(self, name):
        params = [param.name for param in main.commands[name].params]
        assert sorted(params) == sorted(COMMANDS[name].fields + ("config_path", "out_path", "fmt"))

    @pytest.mark.parametrize("subcommand, name", UNREAD)
    def test_unread_field_has_no_flag(self, runner, subcommand, name):
        result = runner.invoke(main, [subcommand, *_flag(name)])
        assert result.exit_code == 2
        assert "No such option" in result.output

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_field_is_echoed(self, name):
        assert set(run(ExperimentConfig(subcommand=name)).config) == {"subcommand", *FIELDS}

    @pytest.mark.parametrize(
        "subcommand, fields",
        [("holder", {}), ("holder", {"s": 0.5, "tolerance": 1e-6, "length": 8}),
         ("holder", {"a": (1.0, 2.0), "b": (0.5,)}),
         ("lorentz", {}), ("lorentz", {"r": 0.8, "w": 1.0, "length": 8}),
         ("factorize", {"truncation": 64}), ("factorize", {"truncation": 8, "beta": 2.0, "s": 0.5, "gamma": 1.5}),
         ("trace-audit", {"dims": (4,)}), ("trace-audit", {"dims": (4, 8), "p": (1.0, math.inf), "s": 0.8, "tolerance": 1e-10}),
         ("eigen-type", {}), ("eigen-type", {"dims": (4, 8), "p": (1.5,), "s": 0.8, "beta": 2.0}),
         ("approx", {}), ("approx", {"profile": "random", "dims": (16,), "p": (4.0,), "alpha": 0.25, "epsilon": 0.2}),
         ("approx", {"beta": 2.0}), ("similarity", {"dims": (4,)})],
    )
    def test_runner_reads_only_its_fields(self, subcommand, fields):
        class Recorder:
            def __init__(self, cfg):
                self.cfg, self.read = cfg, set()

            def __getattr__(self, name):
                self.read.add(name)
                return getattr(self.cfg, name)

        cfg = Recorder(ExperimentConfig(subcommand=subcommand, **fields))
        COMMANDS[subcommand].runner(cfg, (_trial_rng(0, t) for t in range(2)))
        assert cfg.read <= set(COMMANDS[subcommand].fields)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_help(self, runner, name):
        result = invoke(runner, [name, "--help"])
        assert result.exit_code == 0
        assert main.commands[name].help.split()[0] in result.output

    def test_flag_sets_field_of_same_name(self, runner):
        result = invoke(
            runner,
            ["factorize", "--trials", "1", "--truncation", "64",
             "--beta-min", "2.0", "--beta-max", "2.5"],
        )
        config = json.loads(result.output)["config"]
        assert config["beta_min"] == 2.0 and config["beta_max"] == 2.5
        assert config["truncation"] == 64

    def test_bad_scalar_exponent_is_usage_error(self, runner):
        result = runner.invoke(main, ["lorentz", "--w", "abc"])
        assert result.exit_code == 2
        assert "Invalid value for '--w'" in result.output
        assert "Traceback" not in result.output

    def test_infinite_gamma_is_clean_error(self, runner):
        result = runner.invoke(main, ["factorize", "--trials", "1", "--gamma", "inf"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1].startswith("Error:")
        assert "Traceback" not in result.output


class TestExports:
    @pytest.mark.parametrize("module", [
        "nucleatrace", "nucleatrace.sequences", "nucleatrace.spaces", "nucleatrace.nuclear",
        "nucleatrace.spectral", "nucleatrace.approximation", "nucleatrace.experiments",
    ])
    def test_star_import_resolves_every_export(self, module):
        namespace = {}
        exec(f"from {module} import *", namespace)
        exported = importlib.import_module(module).__all__
        assert len(set(exported)) == len(exported)
        assert set(exported) <= namespace.keys()
