import csv
import importlib
import io
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import (
    AmbientSpace,
    LorentzIndex,
    NormBracket,
    NuclearIndex,
    Representation,
    Vector,
    build_approximant,
    holder_product_bound,
    induced_matrix,
    lorentz_quasi_norm,
    lp_norm,
    nuclear_trace,
    quasi_norm,
    sharpness_witness,
)
import nucleatrace
from nucleatrace import approximation, experiments, nuclear, sequences, spaces, spectral
from nucleatrace.cli import main
from nucleatrace.experiments import (
    _HOLDER_S_GRID,
    _ORACLE_CROSS_CHECK_DIM,
    COMMANDS,
    FIELDS,
    ExperimentConfig,
    _jsonable,
    run,
)
from nucleatrace.spectral import (
    characteristic_roots,
    eigenvalues,
    match_spectra,
    trace_formula_exponent,
)
from nucleatrace.tolerances import REL_TOL


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def _contract_rng(seed, trial):
    """Trial `trial`'s generator as the determinism contract states it."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _contract_generators(seed, trials):
    """The (t, generator) pairs of a run of trials, each built by numpy's default_rng."""
    return [(t, _contract_rng(seed, t)) for t in trials]


# a valid value off the default for each config field
OFF_DEFAULT = {
    "seed": 1, "trials": 2, "dims": (4,), "p": (1.0,), "s": 0.5, "r": 0.5,
    "w": 1.0, "alpha": 0.25, "tolerance": 1e-6, "epsilon": 0.2, "beta": 2.0,
    "beta_min": 1.7, "beta_max": 2.9, "length": 8, "truncation": 8,
    "gamma": 1.5, "profile": "random", "a": (1.0,), "b": (1.0,),
}

# former config fields, which no subcommand reads any more
RETIRED = ("tolerance",)

# (subcommand, config field or former field it does not read)
UNREAD = [(sub, name) for sub, row in COMMANDS.items() for name in (*FIELDS, *RETIRED) if name not in row.fields]


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

    def test_field_table_is_the_dataclass_fields(self):
        declared = fields(ExperimentConfig)
        assert declared[0].name == "subcommand"
        assert list(FIELDS) == [f.name for f in declared[1:]]

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_default_passes_its_own_kind_and_bound(self, name):
        default = next(f.default for f in fields(ExperimentConfig) if f.name == name)
        if default is not None:
            assert experiments._checked(name, default) == default

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
        # an exponent may be a float inf, where a number must be finite
        assert ExperimentConfig(subcommand="lorentz", w=math.inf).w == math.inf
        assert ExperimentConfig(subcommand="trace-audit", p=(1.0, math.inf)).p == (1.0, math.inf)

    def test_validation(self):
        cases = [
            ("holder", {"trials": 0}), ("trace-audit", {"dims": ()}),
            ("trace-audit", {"p": (0.5,)}), ("holder", {"seed": -1}),
            ("trace-audit", {"dims": (4, 0)}), ("trace-audit", {"p": (2.0, math.nan)}),
            # lorentz at length 0 passed vacuously, and holder failed inside numpy
            ("lorentz", {"length": 0}), ("holder", {"length": 0}),
            ("factorize", {"truncation": 0}), ("approx", {"profile": "diagonal"}),
            # a list field is never empty, bound or not
            ("trace-audit", {"p": ()}), ("holder", {"a": (), "b": ()}),
            ("holder", {"a": (1.0,), "b": ()}), ("holder", {"a": (), "b": (1.0,)}),
        ]
        for subcommand, bad in cases:
            with pytest.raises(ValueError, match="must"):
                ExperimentConfig(subcommand=subcommand, **bad)

    @pytest.mark.parametrize(
        "bad",
        [{"dims": 8}, {"seed": "5"}, {"trials": 2.5}, {"dims": [4.7]},
         {"p": "2"}, {"a": "1,2"}, {"b": 1.0}, {"length": 64.0},
         {"truncation": True}, {"s": "0.5"}, {"r": True}, {"alpha": [1]},
         {"profile": 1}, {"epsilon": None}, {"beta": "2"},
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [name for name, (kind, _, _) in FIELDS.items() if kind == "number"])
    def test_numbers_must_be_finite(self, name, value):
        subcommand = next(sub for sub, row in COMMANDS.items() if name in row.fields)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ExperimentConfig(subcommand=subcommand, **{name: value})

    def test_beta_range_is_ordered(self):
        cfg = ExperimentConfig(subcommand="factorize", beta_min=2.0, beta_max=2.0)
        assert run(cfg).records[0]["beta"] == 2.0
        with pytest.raises(ValueError, match="^beta_min must be at most beta_max"):
            ExperimentConfig(subcommand="factorize", beta_min=3.0, beta_max=1.0)

    @pytest.mark.parametrize("subcommand, name", UNREAD)
    def test_unread_field_off_its_default_rejected(self, subcommand, name):
        refusal = f"unknown config fields: {name}" if name in RETIRED else f"{subcommand} does not read {name}"
        with pytest.raises(ValueError, match=refusal):
            ExperimentConfig.from_dict({"subcommand": subcommand, name: OFF_DEFAULT[name]})

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

    def test_holder_verdict_is_scale_free(self):
        # a = b at s = 1/2 makes the bound an equality; an absolute floor of 1e-9 on
        # rhs - lhs failed over a third of these pairs at scale 2^20
        rng = np.random.default_rng(0)
        pairs = [rng.standard_normal(int(rng.integers(1, 65))) for _ in range(300)]
        verdicts = []
        for k in (-20, 0, 20):
            scaled = [tuple(np.ldexp(a, k).tolist()) for a in pairs]
            verdicts.append([run(ExperimentConfig(subcommand="holder", s=0.5, a=a, b=a)).records[0]["pass"]
                             for a in scaled])
        assert verdicts == [[True] * 300] * 3

    @staticmethod
    def _holder_verdict(a, b):
        """Verdict and relative gaps of holder's record on one pair at s = 1/2."""
        rec = run(ExperimentConfig(subcommand="holder", s=0.5, a=tuple(a), b=tuple(b))).records[0]
        ka, kb = rec.get("scale_log2", (0, 0))
        l1 = float(np.sum(np.abs(np.ldexp(a, -ka))))
        return rec["pass"], rec["defect"] / rec["rhs"], rec["witness_gap"] / l1, (ka, kb)

    def test_holder_overflow_is_decided_at_unit_scale(self):
        # at 1e308 ||a||_1 overflowed: lhs, rhs and the witness gap read inf, the
        # witness was all zeros, and the record passed vacuously
        huge = self._holder_verdict([1e308, 1e308], [1.0, 1.0])
        unit = self._holder_verdict([1.0, 1.0], [1.0, 1.0])
        assert huge[:3] == unit[:3] == (True, 0.0, 0.0)
        assert huge[3] == (1024, 1) and unit[3] == (0, 0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            # largest entry 15/16 and l_1 norm above 1: times 2^1024 each is
            # finite, and its l_1 norm and the right side overflow
            a, b = (rng.uniform(-0.5, 0.5, int(rng.integers(2, 9))) for _ in range(2))
            a[:2] = b[:2] = 0.9375, -0.5
            unit = self._holder_verdict(a, b)
            for ka, kb in ((1024, 0), (1024, 1000), (0, 1024), (-40, 1024)):
                scaled = self._holder_verdict(np.ldexp(a, ka), np.ldexp(b, kb))
                assert scaled[3] == (ka, kb)
                assert scaled[:3] == unit[:3]

    @pytest.mark.parametrize("fields, groups", [({"s": 0.5}, [0.5]), ({"trials": 8}, sorted(_HOLDER_S_GRID))])
    def test_holder_checks_each_witness_once(self, monkeypatch, fields, groups):
        # an overflowing pair was checked against a witness at its own scale, then again
        # at unit scale: two witness calls per exponent group
        real = experiments.sharpness_witness
        calls = []
        monkeypatch.setattr(experiments, "sharpness_witness", lambda a, s: calls.append(s) or real(a, s))
        report = run(ExperimentConfig(subcommand="holder", a=(1e308, 1e308), b=(1.0, 1.0), **fields))
        assert calls == groups
        assert all(rec["pass"] and rec["scale_log2"] == [1024, 1] for rec in report.records)

    @pytest.mark.filterwarnings("error")
    def test_holder_zero_a_against_b_past_the_double_range_passes_at_its_own_scale(self):
        # rhs = ||a||_1 ||b||_q was 0 * inf = nan, so the pair was decided again at 2^-1024
        rec = run(ExperimentConfig(subcommand="holder", a=(0.0, 0.0), b=(1e308, 1e308), s=0.5)).records[0]
        assert rec["lhs"] == rec["rhs"] == 0.0 and rec["pass"]
        assert rec["witness_gap"] is None and "scale_log2" not in rec

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

    @pytest.mark.parametrize("fields", [
        {"dims": (8, 16, 32, 64, 128, 256, 512), "p": (1.0,)},  # acceptance criterion 4
        {"dims": (4, 8, 16), "p": (2.0,)},
        {"dims": (512, 8), "p": (1.0,)},
    ])
    def test_eigen_type_aggregate_verdict_is_that_of_every_record(self, fields):
        report = run(ExperimentConfig(subcommand="eigen-type", **fields))
        assert report.aggregate["trials"] == 1
        assert {rec["verdict"] for rec in report.records} == {report.aggregate["verdict"]}

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

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_json_text_is_the_body_on_one_line(self, name):
        report = run(ExperimentConfig(subcommand=name))
        text = report.to_json_text()
        assert "\n" not in text
        full = json.loads(text)
        assert isinstance(full.pop("wall_time_s"), float)
        assert json.dumps(full, sort_keys=True, separators=(",", ":")) == report.body_text()


class TestJsonable:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (0.25, 0.25),
            (2.0 - 1.5j, [2.0, -1.5]), (complex(math.inf, math.nan), ["inf", "nan"]),
            (True, True), (3, 3), ("x", "x"), (None, None),
            ((1, 2.5, (math.nan,)), [1, 2.5, ["nan"]]),
            ({"a": {"b": (1, math.nan)}, 3: [False]}, {"a": {"b": [1, "nan"]}, "3": [False]}),
        ],
    )
    def test_values(self, value, expected):
        # json text tells True from 1 and 1.0 from 1
        assert json.dumps(_jsonable(value)) == json.dumps(expected)

    @pytest.mark.parametrize(
        "value",
        [np.float64(1.0), np.float32(0.1), np.complex128(1j), np.int64(-7), np.bool_(True),
         np.array([1.0]), [1, {"a": np.int64(1)}], object()],
        ids=["float64", "float32", "complex128", "int64", "bool_", "ndarray", "nested-int64", "object"],
    )
    def test_other_types_are_refused(self, value):
        # the config converts numpy scalars and runners call tolist(), so none reaches a report
        with pytest.raises(TypeError):
            _jsonable(value)

    def test_numpy_scalar_config_gives_the_bytes_of_built_in_values(self):
        cases = [
            ("factorize", {"seed": np.int64(3), "beta": np.float64(2.0), "truncation": np.int32(64)},
             {"seed": 3, "beta": 2.0, "truncation": 64}),
            ("trace-audit", {"seed": np.uint8(4), "dims": (np.int64(2), np.int16(4)), "p": (np.int64(1), np.float32(2.0))},
             {"seed": 4, "dims": (2, 4), "p": (1.0, 2.0)}),
            ("approx", {"beta": np.int64(2), "epsilon": np.float64(0.2)}, {"beta": 2, "epsilon": 0.2}),
        ]
        for subcommand, numpy_fields, built_in in cases:
            cfg = ExperimentConfig(subcommand=subcommand, **numpy_fields)
            assert run(cfg).body_text() == run(ExperimentConfig(subcommand=subcommand, **built_in)).body_text()
        # an int stays an int in the echo
        for beta in (2, np.int64(2)):
            echo = json.loads(run(ExperimentConfig(subcommand="factorize", beta=beta)).body_text())["config"]["beta"]
            assert type(echo) is int and echo == 2


def _draw_representation(rng, n, p):
    space = AmbientSpace(n, p)
    lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    F = rng.standard_normal((n, n))
    X = rng.standard_normal((n, n))
    return Representation.from_arrays(lam, F, X, space, space)


def _reference_trace_audit(cfg, trial, rng):
    """trace-audit one trial at a time, one representation at a time, without the audit."""
    out = []
    for n in cfg.dims:
        for p in cfg.p:
            s = cfg.s if cfg.s is not None else trace_formula_exponent(p)
            z = _draw_representation(rng, n, p)
            M = induced_matrix(z)
            spectrum = eigenvalues(M)
            tr, ssum = nuclear_trace(z), complex(np.sum(spectrum))
            l1, qn = float(np.sum(np.abs(spectrum))), quasi_norm(z, NuclearIndex.absolutely_summable(s))
            defect, fro = abs(tr - ssum), float(np.linalg.norm(M))
            ok = defect <= 1e-8 * fro
            oracle_gap = None
            if n <= _ORACLE_CROSS_CHECK_DIM:
                matched, worst = match_spectra(
                    spectrum,
                    characteristic_roots(M),
                    rel=1e-7,
                    abs_floor=1e-7 * fro,
                )
                oracle_gap = worst
                ok = bool(ok and matched)
            out.append({
                "trial": trial,
                "n": n,
                "p": p,
                "s": s,
                "nuclear_trace": tr,
                "spectral_sum": ssum,
                "defect": defect,
                "eigen_l1": l1,
                "quasi_norm": qn,
                "ratio": None if qn == 0.0 else l1 / qn,
                "frobenius": fro,
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
            {"seed": 3, "trials": 4, "dims": (4, 8), "p": (1.0, 2.0), "s": 0.8},
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
            for rec in _reference_trace_audit(cfg, t, _contract_rng(cfg.seed, t))
        ]
        got = run(cfg).records
        assert json.dumps(_jsonable(got)) == json.dumps(_jsonable(expected))

    @pytest.mark.parametrize("ps", [(2.0,), BENCHMARK_P], ids=["one-p", "five-p"])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_draws_of_a_run_are_those_of_one_trial_at_a_time(self, n, ps):
        # one random(out=...) and one standard_normal(out=...) call per trial and
        # exponent give the bits of uniform(0, 1, n) and two (n, n) normal draws
        seed, trials = 7, 5
        reps = experiments._draw_stacks([rng for _, rng in _contract_generators(seed, range(trials))], n, ps)
        assert [z.domain.exponent for z in reps] == [z.codomain.exponent for z in reps] == list(ps)
        for t in range(trials):
            rng = _contract_rng(seed, t)
            for z, p in zip(reps, ps):
                one = _draw_representation(rng, n, p)
                for got, want in ((z.coefficients[t], one.coefficients), (z.F[t], one.F), (z.X[t], one.X)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_coefficient_draw_stays_in_its_stack(self, monkeypatch):
        # uniform(0, 1) returns 0.0 with probability 2**-53 per entry; that atom
        # stays in its exponent's stack with magnitude zero.  The reference draws
        # coefficients with uniform, the runner with random(out=...): either way
        # a trial's third coefficient draw gets the zero
        class ZeroOnThirdCoefficients:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def _coefficients(self, draw):
                self.calls += 1
                if self.calls == 3:
                    draw[1] = 0.0
                return draw

            def uniform(self, *args, **kwargs):
                return self._coefficients(self.rng.uniform(*args, **kwargs))

            def random(self, *args, **kwargs):
                return self._coefficients(self.rng.random(*args, **kwargs))

            def standard_normal(self, *args, **kwargs):
                return self.rng.standard_normal(*args, **kwargs)

        def rngs(seed, trial):
            return ZeroOnThirdCoefficients(_contract_rng(seed, trial))

        real_generators = experiments._run_generators

        wrapped = []

        def generators(seed, trials):
            pairs = [(t, ZeroOnThirdCoefficients(rng)) for t, rng in real_generators(seed, trials)]
            wrapped.extend(rng for _, rng in pairs)
            return pairs

        # every trial's third draw, n = 8 and p = 1, holds the zero
        cfg = ExperimentConfig(subcommand="trace-audit", seed=2, trials=3, dims=(4, 8), p=(1.0, 2.0))
        expected = [rec for t in range(cfg.trials) for rec in _reference_trace_audit(cfg, t, rngs(cfg.seed, t))]
        monkeypatch.setattr(experiments, "_run_generators", generators)
        got = run(cfg).records
        assert json.dumps(_jsonable(got)) == json.dumps(_jsonable(expected))
        # each trial drew four coefficient rows, one per dimension and exponent
        assert [rng.calls for rng in wrapped] == [4] * cfg.trials


def _reference_holder_checks(a, b, s):
    lhs, rhs, holds = holder_product_bound(a, b, s)
    l1 = float(np.sum(np.abs(a)))
    gap, witness_ok = None, True
    if np.any(a != 0.0):
        wl, _, _ = holder_product_bound(a, sharpness_witness(a, s), s)
        gap = abs(wl - l1)
        witness_ok = gap <= REL_TOL * l1
    return lhs, rhs, gap, bool(holds and witness_ok), l1


def _reference_holder(cfg, trial, rng):
    """holder one trial at a time, on the 1-d pair of that trial."""
    if cfg.a is not None:
        a, b = np.asarray(cfg.a, dtype=float), np.asarray(cfg.b, dtype=float)
    else:
        la = int(rng.integers(1, cfg.length + 1))
        lb = int(rng.integers(1, cfg.length + 1))
        a = rng.standard_normal(la) * float(rng.uniform(0.1, 10.0))
        b = rng.standard_normal(lb) * float(rng.uniform(0.1, 10.0))
    s = cfg.s if cfg.s is not None else (0.5, 2.0 / 3.0, 0.9, 1.0)[trial % 4]
    lhs, rhs, gap, ok, l1 = _reference_holder_checks(a, b, s)
    rec = {}
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(l1)):
        rec["scale_log2"] = [int(np.frexp(np.abs(x).max(initial=0.0))[1]) for x in (a, b)]
        lhs, rhs, gap, ok, _ = _reference_holder_checks(
            np.ldexp(a, -rec["scale_log2"][0]), np.ldexp(b, -rec["scale_log2"][1]), s)
    rec.update({"trial": trial, "s": s, "lhs": lhs, "rhs": rhs, "defect": rhs - lhs,
                "witness_gap": gap, "pass": ok})
    if not ok:
        rec["a"], rec["b"] = a.tolist(), b.tolist()
    return [rec]


def _reference_lorentz(cfg, trial, rng):
    """lorentz one trial at a time, on the 1-d sequence of that trial."""
    r = cfg.r if cfg.r is not None else 0.5
    w = cfg.w if cfg.w is not None else math.inf
    index = LorentzIndex(r, w)
    a = rng.standard_normal(cfg.length)
    norm = lorentz_quasi_norm(a, index)
    norm_perm = lorentz_quasi_norm(a[rng.permutation(cfg.length)], index)
    c = float(rng.uniform(0.1, 10.0))
    norm_scaled = lorentz_quasi_norm(c * a, index)
    invariant = abs(norm - norm_perm) <= REL_TOL * norm
    homogeneous = abs(norm_scaled - c * norm) <= REL_TOL * (c * norm)
    rec = {"trial": trial, "r": r, "w": w, "norm": norm, "rearrangement_invariant": invariant,
           "homogeneous": homogeneous, "pass": invariant and homogeneous}
    if not rec["pass"]:
        rec["a"] = a.tolist()
    return [rec]


def _reference_approx(cfg, trial, rng):
    """approx with its system drawn one vector at a time."""
    dim, p = cfg.dims[0], cfg.p[0]
    space = AmbientSpace(dim, p)
    alpha = cfg.alpha if cfg.alpha is not None else 0.5
    xs = []
    if cfg.profile == "coordinate":
        beta = cfg.beta if cfg.beta is not None else 1.0
        for n in range(1, dim + 1):
            e = np.zeros(dim)
            e[n - 1] = float(n) ** (-beta)
            xs.append(Vector(e, space))
    else:
        beta = cfg.beta if cfg.beta is not None else float(rng.uniform(0.75, 2.5))
        for n in range(1, dim + 1):
            g = rng.standard_normal(dim)
            xs.append(Vector(float(n) ** (-beta) * (g / lp_norm(g, p)), space))
    _, cert = build_approximant(xs, cfg.epsilon, space, alpha)
    ok = (not cert.guarantee_regime) or cert.sup_error <= cfg.epsilon * (1.0 + REL_TOL)
    return [{"trial": trial, "profile": cfg.profile, "beta": beta, "dim": dim, "p": p, "alpha": alpha,
             "epsilon": cfg.epsilon, "cutoff": cert.cutoff, "rank": cert.rank,
             "projection_lower": cert.projection_norm_bracket.lower,
             "projection_upper": cert.projection_norm_bracket.upper,
             "sup_error": cert.sup_error, "guarantee_regime": cert.guarantee_regime, "pass": bool(ok)}]


@pytest.mark.parametrize(
    "fields",
    [{"profile": profile, "dims": (dim,), "p": (p,), "seed": seed, "trials": 2}
     for profile in ("coordinate", "random")
     for dim, p, seed in ((1, 1.5, 0), (2, math.inf, 1), (8, 3.0, 2), (32, 4.0, 3), (64, 1.0, 4))]
    + [{"profile": "random", "dims": (16,), "p": (1.5,), "beta": 1.1, "alpha": 0.25, "epsilon": 0.3}],
    ids=lambda f: "-".join(str(v[0] if isinstance(v, tuple) else v) for v in f.values()),
)
def test_approx_records_match_per_vector_draws(fields):
    cfg = ExperimentConfig(subcommand="approx", **fields)
    expected = [rec for t in range(cfg.trials) for rec in _reference_approx(cfg, t, _contract_rng(cfg.seed, t))]
    assert _body(run(cfg).records) == _body(expected)


def _body(records):
    """Records as the report body writes them: sorted keys."""
    return json.dumps(_jsonable(records), sort_keys=True)


class TestSequenceStacks:
    """Stacking holder and lorentz across trials changes no record bit."""

    REFERENCES = {"holder": _reference_holder, "lorentz": _reference_lorentz}

    @pytest.mark.parametrize(
        "subcommand, fields",
        [
            ("holder", {"seed": 0, "trials": 200}),
            ("holder", {"seed": 1, "trials": 60}),
            ("holder", {"seed": 2, "trials": 60}),
            ("holder", {"seed": 3, "trials": 40, "length": 1}),
            ("holder", {"seed": 4, "trials": 40, "length": 300}),
            ("holder", {"seed": 5, "trials": 40, "s": 1.0}),
            ("holder", {"seed": 6, "trials": 4, "a": (1.0, 2.0, 3.0), "b": (0.5, 0.25)}),
            ("holder", {"a": (1e308, 1e308), "b": (1.0, 1.0), "s": 0.5}),
            ("holder", {"trials": 8, "a": (1e308, 1e308, 3.0), "b": (1e308, 1.0, 1.0)}),
            ("holder", {"trials": 2, "a": (0.0, 0.0), "b": (1.0, 1.0)}),
            ("holder", {"a": (0.0, 0.0), "b": (1e308, 1e308), "s": 0.5}),
            ("lorentz", {"seed": 0, "trials": 200, "length": 256}),
            ("lorentz", {"seed": 1, "trials": 60}),
            ("lorentz", {"seed": 2, "trials": 40, "length": 1}),
            ("lorentz", {"seed": 3, "trials": 40, "length": 300}),
            ("lorentz", {"seed": 4, "trials": 40, "r": 0.8, "w": 1.0, "length": 129}),
        ],
        ids=["holder-bench", "holder-1", "holder-2", "holder-length-1", "holder-length-300", "holder-s-1",
             "holder-pair", "holder-1e308", "holder-1e308-mixed", "holder-zero-a", "holder-zero-a-1e308-b",
             "lorentz-bench", "lorentz-1", "lorentz-length-1", "lorentz-length-300", "lorentz-r-w"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_records_match_per_trial_reference(self, subcommand, fields):
        cfg = ExperimentConfig(subcommand=subcommand, **fields)
        reference = self.REFERENCES[subcommand]
        expected = [rec for t in range(cfg.trials) for rec in reference(cfg, t, _contract_rng(cfg.seed, t))]
        assert _body(run(cfg).records) == _body(expected)

    @pytest.mark.parametrize("subcommand", ["holder", "lorentz"])
    def test_records_do_not_depend_on_the_trial_count(self, subcommand):
        few = run(ExperimentConfig(subcommand=subcommand, seed=9, trials=7)).records
        many = run(ExperimentConfig(subcommand=subcommand, seed=9, trials=200)).records
        assert _body(few) == _body(many[:7])

    @pytest.mark.parametrize(
        "subcommand, fields",
        [("holder", {"trials": 50}), ("lorentz", {"trials": 50}),
         ("trace-audit", {"trials": 7, "dims": (8, 4), "p": (1.0, 2.0, math.inf)})],
        ids=["holder", "lorentz", "trace-audit"],
    )
    def test_runs_of_trials_give_the_records_of_one_stack(self, monkeypatch, subcommand, fields):
        cfg = ExperimentConfig(subcommand=subcommand, seed=3, **fields)
        whole = run(cfg).records
        # four trials a run, then one: trace-audit's trial fills a run at its largest n
        for per_run in (4, 1):
            monkeypatch.setattr(experiments, "_STACK_ENTRIES", per_run * COMMANDS[subcommand].entries(cfg))
            assert _body(run(cfg).records) == _body(whole)


class TestRuns:
    """run() hands each runner its trials in runs of bounded stack entries."""

    def test_no_audit_gets_more_rows_than_one_run_allows(self, monkeypatch):
        cfg = ExperimentConfig(subcommand="trace-audit", trials=7, dims=(4, 8), p=(1.0, math.inf))
        monkeypatch.setattr(experiments, "_STACK_ENTRIES", 2 * COMMANDS["trace-audit"].entries(cfg))
        real, rows = experiments.audit_trace_formula, []

        def counting_audit(reps):
            audit = real(reps)
            rows.append(len(audit.passed))
            return audit

        monkeypatch.setattr(experiments, "audit_trace_formula", counting_audit)
        run(cfg)
        # two trials a run, one row per trial and exponent
        assert max(rows) <= 2 * len(cfg.p)
        assert sum(rows) == cfg.trials * len(cfg.dims) * len(cfg.p)

    def test_runs_are_powers_of_two_of_at_most_4096_trials(self, monkeypatch):
        row = COMMANDS["holder"]

        def recorded_runs(cfg, entries):
            """The trials of each run that run(cfg) hands holder's runner under these entries."""
            runs = []

            def recording_runner(cfg, trials):
                runs.append([t for t, _ in trials])
                return [{"trial": t} for t, _ in trials]

            monkeypatch.setitem(COMMANDS, "holder", row._replace(runner=recording_runner, entries=entries))
            run(cfg)
            return runs

        # 2**20 // 10400 is 100 trials, rounded down to 64; past 2**20 entries a trial runs alone
        for entries, size in [(1, 4096), (64, 4096), (136, 4096), (10400, 64), (2**20, 1), (2**20 + 1, 1)]:
            cfg = ExperimentConfig(subcommand="holder", trials=2 * size + 1)
            assert recorded_runs(cfg, lambda cfg: entries) == [
                list(range(0, size)), list(range(size, 2 * size)), [2 * size]]
        cfg = ExperimentConfig(subcommand="holder", length=1, trials=5000)
        assert recorded_runs(cfg, row.entries) == [list(range(0, 4096)), list(range(4096, 5000))]

    @pytest.mark.parametrize("subcommand", ["factorize", "approx", "similarity"])
    def test_per_trial_rows_take_runs_of_4096_trials(self, monkeypatch, subcommand):
        runs, row = [], COMMANDS[subcommand]

        def recording_runner(cfg, trials):
            runs.append([t for t, _ in trials])
            return [{"trial": t} for t, _ in trials]

        monkeypatch.setitem(COMMANDS, subcommand, row._replace(runner=recording_runner))
        run(ExperimentConfig(subcommand=subcommand, trials=4097))
        assert runs == [list(range(0, 4096)), [4096]]


# seeds of 1 to 5 entropy words
WIDE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 17, 2**128 + 1)


def _reference_states(seed, trials):
    return np.stack([np.random.SeedSequence([seed, t]).generate_state(4, np.uint64) for t in trials])


class TestTrialGenerators:
    """A run's hash gives each trial numpy's SeedSequence([seed, t]) words and pcg64 state."""

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    @pytest.mark.parametrize("trials", [range(0, 9), range(2**32 - 4, 2**32), range(2**32, 2**32 + 4),
                                        range(2**64 - 3, 2**64), range(3, 40, 7)],
                             ids=["first", "below-2^32", "from-2^32", "below-2^64", "stepped"])
    def test_hashed_words_are_seed_sequence_words(self, seed, trials):
        got = experiments._seed_states(seed, trials)
        assert got.dtype == np.uint64 and got.shape == (len(trials), 4)
        np.testing.assert_array_equal(got, _reference_states(seed, trials))

    def test_a_block_of_two_word_counts_is_refused(self):
        with pytest.raises(ValueError, match="word counts"):
            experiments._seed_states(0, range(2**32 - 1, 2**32 + 1))

    @given(st.integers(0, 2**160), st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_hashed_words_and_state_of_any_trial(self, seed, t):
        words = experiments._seed_states(seed, range(t, t + 1))
        np.testing.assert_array_equal(words, _reference_states(seed, [t]))
        rng = np.random.Generator(np.random.PCG64(experiments._hashed_state_type()(words[0])))
        assert rng.bit_generator.state == _contract_rng(seed, t).bit_generator.state

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    @pytest.mark.parametrize("run_trials", [1, 2, 4096])
    def test_generators_are_the_contract_generators(self, monkeypatch, seed, run_trials):
        got, row = [], COMMANDS["similarity"]

        def recording_runner(cfg, trials):
            got.extend(trials)
            return [{"trial": t} for t, _ in trials]

        monkeypatch.setattr(experiments, "_RUN_TRIALS", run_trials)
        monkeypatch.setitem(COMMANDS, "similarity", row._replace(runner=recording_runner))
        run(ExperimentConfig(subcommand="similarity", seed=seed, trials=10))
        assert [t for t, _ in got] == list(range(10))
        for (t, rng), (_, ref) in zip(got, _contract_generators(seed, range(10))):
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    def test_generators_are_built_a_run_at_a_time(self, monkeypatch):
        built, seen, real = [], [], experiments._hashed_state_type()
        row = COMMANDS["similarity"]

        def counting_state(words):
            built.append(words)
            return real(words)

        def recording_runner(cfg, trials):
            seen.append(([t for t, _ in trials], len(built)))
            return [{"trial": t} for t, _ in trials]

        monkeypatch.setattr(experiments, "_RUN_TRIALS", 2)
        monkeypatch.setattr(experiments, "_hashed_state_type", lambda: counting_state)
        monkeypatch.setitem(COMMANDS, "similarity", row._replace(runner=recording_runner))
        run(ExperimentConfig(subcommand="similarity", trials=5))
        # each run's generators are all built before it reaches the runner, and no later run's
        assert seen == [([0, 1], 2), ([2, 3], 4), ([4], 5)]

    def test_hashed_state_serves_pcg64_only(self):
        state = experiments._hashed_state_type()(experiments._seed_states(0, range(1))[0])
        with pytest.raises(ValueError, match="PCG64"):
            state.generate_state(4)


# a short config of each subcommand; eigen-type reads no seed
BODY_CONFIGS = {
    "holder": {"trials": 20},
    "lorentz": {"trials": 20, "length": 32},
    "factorize": {"trials": 3, "truncation": 256},
    "trace-audit": {"trials": 3, "dims": (4, 8), "p": (1.0, math.inf)},
    "eigen-type": {"dims": (4, 8, 16)},
    "approx": {"profile": "random", "dims": (8,), "p": (4.0,), "trials": 2},
    "similarity": {"trials": 5, "dims": (4,)},
}


@pytest.mark.parametrize(
    "subcommand, seed",
    [(sub, seed) for sub in BODY_CONFIGS for seed in ((0,) if sub == "eigen-type" else (0, 7, 2**64 + 5))],
)
def test_body_is_that_of_numpy_default_rng_generators(monkeypatch, subcommand, seed):
    fields = BODY_CONFIGS[subcommand] if subcommand == "eigen-type" else {"seed": seed, **BODY_CONFIGS[subcommand]}
    cfg = ExperimentConfig(subcommand=subcommand, **fields)
    got = run(cfg).body_text()
    monkeypatch.setattr(experiments, "_run_generators", _contract_generators)
    assert got == run(cfg).body_text()


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

    def test_config_file_with_retired_tolerance_is_refused(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"trials": 1, "dims": [4], "tolerance": 1e-6}))
        result = runner.invoke(main, ["trace-audit", "--config", str(config)])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "Error: unknown config fields: tolerance"

    @pytest.mark.parametrize("pair, name", [({"a": [], "b": []}, "a"), ({"a": [1.0], "b": []}, "b")])
    def test_config_file_with_empty_fixed_pair_is_refused(self, runner, tmp_path, pair, name):
        # it gave passing records on no data: lhs = rhs = 0, witness_gap null
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(pair))
        result = runner.invoke(main, ["holder", "--config", str(config)])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == f"Error: {name} must be a nonempty list"
        assert "Traceback" not in result.output

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

    def test_failing_check_sets_exit_code(self, runner, monkeypatch):
        # a witness off by a factor of 2 misses the l_1 mass, so the record fails
        real = experiments.sharpness_witness
        monkeypatch.setattr(experiments, "sharpness_witness", lambda a, s: 0.5 * real(a, s))
        result = runner.invoke(
            main,
            ["holder", "--trials", "1", "--a", "1,0", "--b", "1,0"],
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

    def test_eigen_type_unbounded_exits_1(self, runner):
        result = runner.invoke(main, ["eigen-type", "--dims", "512,8", "--p", "1"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["aggregate"]["verdict"] == "UNBOUNDED"

    def test_trace_audit_csv_has_complex_spectral_sums(self, runner):
        result = invoke(runner, ["trace-audit", "--trials", "2", "--dims", "4,8", "--p", "1,inf", "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        records = run(ExperimentConfig(subcommand="trace-audit", trials=2, dims=(4, 8), p=(1.0, math.inf))).records
        assert len(rows) == len(records) == 8
        for row, rec in zip(rows, records):
            assert json.loads(row["spectral_sum"]) == [rec["spectral_sum"].real, rec["spectral_sum"].imag]
            assert float(row["ratio"]) == rec["ratio"] and row["pass"] == "True"

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

    def test_readme_flags_table_is_the_command_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = {sub: flags.split() for sub, flags in re.findall(r"^\| `([a-z-]+)` +\| `(--[^`]*)` +\|$", readme, re.M)}
        assert table == {sub: ["--" + name.replace("_", "-") for name in row.fields] for sub, row in COMMANDS.items()}

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
        [("holder", {}), ("holder", {"s": 0.5, "length": 8}),
         ("holder", {"a": (1.0, 2.0), "b": (0.5,)}),
         ("lorentz", {}), ("lorentz", {"r": 0.8, "w": 1.0, "length": 8}),
         ("factorize", {"truncation": 64}), ("factorize", {"truncation": 8, "beta": 2.0, "s": 0.5, "gamma": 1.5}),
         ("trace-audit", {"dims": (4,)}), ("trace-audit", {"dims": (4, 8), "p": (1.0, math.inf), "s": 0.8}),
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

        row = COMMANDS[subcommand]
        for call in (row.entries, lambda cfg: row.runner(cfg, [(t, _contract_rng(0, t)) for t in range(2)])):
            cfg = Recorder(ExperimentConfig(subcommand=subcommand, **fields))
            call(cfg)
            assert cfg.read <= set(row.fields)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_holder_pair_writes_nothing_to_stderr(self, runner):
        # its record is decided at unit scale; the first pass's overflow printed two RuntimeWarnings
        result = runner.invoke(main, ["holder", "--a", "1e308,1e308", "--b", "1,1", "--s", "0.5"])
        assert result.exit_code == 0 and result.stderr == ""
        assert json.loads(result.stdout)["aggregate"]["fail_count"] == 0

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

    @pytest.mark.parametrize("args, name", [
        (["factorize", "--trials", "1", "--beta-min", "3", "--beta-max", "1"], "beta_min"),
        (["factorize", "--trials", "1", "--beta-min", "nan"], "beta_min"),
        (["factorize", "--trials", "1", "--beta-max", "inf"], "beta_max"),
    ])
    def test_bad_number_is_clean_error_naming_its_field(self, runner, args, name):
        # numpy's "high - low < 0", an OverflowError traceback, or records that all FAILed
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        last = result.output.splitlines()[-1]
        assert last.startswith(f"Error: {name} must")
        assert "Traceback" not in result.output

    def test_violated_approx_guarantee_is_a_fail_record(self, runner, monkeypatch):
        # the approximant raised RuntimeError here, which the command line does not catch
        monkeypatch.setattr(approximation, "projection_onto_span",
                            lambda rows, p: (np.zeros((rows.shape[1],) * 2), NormBracket(1.0, 1.0)))
        result = runner.invoke(main, ["approx", "--profile", "coordinate", "--dims", "16", "--epsilon", "0.5"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        (rec,) = json.loads(result.output)["records"]
        assert rec["guarantee_regime"] and rec["sup_error"] == 1.0 and not rec["pass"]
        assert "Traceback" not in result.output

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, name", [
        (["factorize", "--trials", "1", "--s", "0.01"], "s"),
        (["holder", "--trials", "50", "--s", "0.005"], "s"),
        (["lorentz", "--trials", "20", "--r", "0.005"], "r"),
    ])
    def test_exponent_past_the_double_range_is_clean_error(self, runner, args, name):
        # a RuntimeError or OverflowError traceback, or 20 of 20 lorentz records FAILed on inf norms
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert re.match(rf"Error: (.*\b)?{name} = ", result.output.splitlines()[-1])
        assert "Traceback" not in result.output

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args", [
        ["approx", "--profile", "coordinate", "--dims", "8", "--beta", "-400", "--p", "2"],
        ["approx", "--profile", "random", "--dims", "8", "--beta", "-400", "--p", "2"],
        ["eigen-type", "--dims", "4", "--p", "2", "--beta", "-1000"],
        ["factorize", "--trials", "1", "--beta", "-400"],
        ["factorize", "--trials", "1", "--beta-min", "-400", "--beta-max", "-300"],
    ])
    def test_beta_past_the_double_range_is_clean_error(self, runner, args):
        # an OverflowError traceback (approx), or an overflow warning and an
        # error naming no field (eigen-type, factorize)
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("Error: beta = ")

    def test_beta_just_inside_the_double_range_passes(self, runner):
        # 8**341 is about 2**1023
        result = invoke(runner, ["approx", "--profile", "coordinate", "--dims", "8", "--beta", "-341", "--p", "2"])
        assert result.exit_code == 0

    @pytest.mark.filterwarnings("error")
    def test_s_quasi_norm_past_the_double_range_is_inf_without_a_warning(self, runner):
        result = runner.invoke(main, ["eigen-type", "--dims", "4,8", "--p", "2", "--s", "0.001"])
        assert result.exit_code == 0 and result.stderr == ""
        assert [rec["quasi_norm"] for rec in json.loads(result.stdout)["records"]] == ["inf", "inf"]

    def test_lorentz_weights_just_inside_the_double_range_pass(self, runner):
        # 64**(1/0.006) is about 2**1000
        result = invoke(runner, ["lorentz", "--trials", "20", "--r", "0.006"])
        assert result.exit_code == 0

    def test_infinite_gamma_is_clean_error(self, runner):
        result = runner.invoke(main, ["factorize", "--trials", "1", "--gamma", "inf"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines()[-1].startswith("Error:")
        assert "Traceback" not in result.output


class TestExports:
    LIBRARY = (sequences, spaces, nuclear, spectral, approximation)

    def test_package_exports_are_the_library_exports(self):
        names = [name for module in self.LIBRARY for name in module.__all__]
        assert nucleatrace.__all__ == [*names, "ExperimentConfig", "RunReport", "run"]

    def test_no_name_is_exported_by_two_modules(self):
        # a star import would let a later module silently shadow an earlier one
        names = [name for module in (*self.LIBRARY, experiments) for name in module.__all__]
        assert len(set(names)) == len(names)
        for module in self.LIBRARY:
            for name in module.__all__:
                assert getattr(nucleatrace, name) is getattr(module, name)

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
