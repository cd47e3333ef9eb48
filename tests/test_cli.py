"""Scenario schema, dispatch, emission, CLI behavior, determinism."""

import json
import math
import os
from fractions import Fraction as F

import pytest

from posterior_dynamics import cli
from posterior_dynamics import diagnostics as dg
from posterior_dynamics import figures as fig
from posterior_dynamics.families import DomainError
from posterior_dynamics.scenario import (
    ScenarioError,
    run_scenario,
    scenario_from_json,
)


def minimal_scenario(**overrides) -> dict:
    base = {
        "family": {"kind": "bernoulli"},
        "prior": {
            "type": "atoms",
            "atoms": [
                {"theta": "1/2", "weight": "1/2"},
                {"theta": "1/1", "weight": "1/2"},
            ],
        },
        "theta0": "1/2",
        "theta1": "1/2",
        "horizon": 5,
    }
    base.update(overrides)
    return base


class TestScenarioSchema:
    def test_minimal_parses(self):
        scenario = scenario_from_json(minimal_scenario())
        assert scenario.numeric_mode == "auto"
        seq = run_scenario(scenario)
        assert seq.value(1).as_fraction() == F(2, 3)

    def test_missing_field(self):
        with pytest.raises(ScenarioError, match="horizon"):
            scenario_from_json({k: v for k, v in minimal_scenario().items() if k != "horizon"})

    def test_theta0_must_be_atom(self):
        with pytest.raises(ScenarioError, match="atom"):
            scenario_from_json(minimal_scenario(theta0="1/3"))

    def test_horizon_too_small_for_diagnostics(self):
        with pytest.raises(ScenarioError, match="horizon"):
            scenario_from_json(minimal_scenario(horizon=2))

    def test_outputs_must_be_a_list(self):
        with pytest.raises(ScenarioError, match="outputs must be a list, got str"):
            scenario_from_json(minimal_scenario(outputs="csv"))

    def test_sure_coins_are_legal_parameters_for_atom_priors_only(self):
        scenario_from_json(minimal_scenario(theta0="1/1", theta1="0/1"))
        with pytest.raises(ScenarioError, match="theta=1"):
            scenario_from_json(minimal_scenario(prior={"type": "uniform01"}, theta0="1/1"))

    def test_bad_mode(self):
        with pytest.raises(ScenarioError):
            scenario_from_json(minimal_scenario(numeric_mode="sloppy"))

    def test_round_trip_through_loader(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(minimal_scenario()))
        from posterior_dynamics.scenario import load_scenario

        scenario = load_scenario(str(path))
        assert scenario.name == "scn"

    def test_json_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"family": }')
        from posterior_dynamics.scenario import load_scenario

        with pytest.raises(ScenarioError, match=r"broken\.json:1:"):
            load_scenario(str(path))


class TestBundledScenarios:
    def test_all_bundled_parse(self):
        for name in fig.BUNDLED:
            scenario = fig.bundled_scenario(name)
            assert scenario.name == name

    def test_unknown_bundled(self):
        with pytest.raises(ValueError):
            fig.bundled_scenario("figure9")


class TestCliCommands:
    def test_psi_writes_files(self, tmp_path):
        path = tmp_path / "scn.json"
        payload = minimal_scenario(horizon=6)
        payload["outputs"] = ["csv", "json", "svg"]
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = cli.main(["psi", str(path), "--out", str(out)])
        assert code == 0
        csv_text = (out / "scn.csv").read_text()
        assert csv_text.splitlines()[0] == "n,psi,log_psi,is_mode,lc_violation"
        report = json.loads((out / "scn.json").read_text())
        assert report["schema"] == 1
        assert report["values"][0]["psi_rational"] == "2/3"
        svg = (out / "scn.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_psi_missing_scenario_is_schema_error(self, capsys):
        assert cli.main(["psi", "/nonexistent/file.json"]) == cli.EXIT_SCHEMA

    def test_psi_unsupported_pairing_is_numeric_error(self, tmp_path):
        payload = minimal_scenario(
            family={"kind": "exponential"},
            prior={"type": "stdnormal"},
            theta0=1.0,
            theta1=1.0,
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["psi", str(path), "--out", str(tmp_path)]) == cli.EXIT_NUMERIC

    def test_psi_critical_point_past_the_float_range_is_numeric_error(self, tmp_path):
        # the slope of log psi vanishes near n = 2e320, beyond the largest float
        payload = minimal_scenario(
            family={"kind": "normal", "sigma": 1.0},
            prior={"type": "stdnormal"},
            theta0=0.0,
            theta1=1e-160,
        )
        path = tmp_path / "far.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main(["psi", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
        assert not out.exists()

    def test_psi_unknown_family_kind_is_schema_error(self, tmp_path):
        payload = minimal_scenario(
            family={"kind": "poisson"},
            prior={"type": "stdnormal"},
            theta0=1.0,
            theta1=1.0,
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["psi", str(path), "--out", str(tmp_path)]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("overrides", [
        {"prior": {"type": "atoms", "atoms": [{"weight": "1/1"}]}},
        {"prior": {"type": "beta", "a": 2}},
        {"family": {"kind": "normal", "sigma": "abc"}, "prior": {"type": "stdnormal"}},
        {"family": {"kind": "normal", "sigma": None}, "prior": {"type": "stdnormal"}},
        {"prior": {"type": "atoms", "atoms": ["x"]}},
        {"outputs": 5},
        {"name": 5},
        {"prior": {"type": "atoms", "atoms": [
            {"theta": "1/2", "weight": "1/2"}, {"theta": "3/2", "weight": "1/2"},
        ]}},
        {"prior": {"type": "uniform01"}, "theta0": "3/2"},
        {"family": {"kind": "exponential"}, "prior": {"type": "exp", "lambda": 1},
         "theta0": 1.0, "theta1": -1},
        {"outputs": "csv"},
        # json.dumps writes an infinite float as the token Infinity
        {"prior": {"type": "beta", "a": math.inf, "b": 1}, "numeric_mode": "float"},
        {"family": {"kind": "exponential"}, "prior": {"type": "exp", "lambda": math.inf},
         "theta0": 1.0, "theta1": 4.0},
        {"family": {"kind": "normal", "sigma": math.inf}, "prior": {"type": "stdnormal"}},
    ], ids=["atom_without_theta", "beta_without_b", "sigma_string", "sigma_null",
            "atom_not_object", "outputs_not_list", "name_not_string", "atom_outside_domain",
            "theta0_outside_uniform", "theta1_outside_exponential", "outputs_string",
            "beta_shape_infinity", "exp_rate_infinity", "sigma_infinity"])
    def test_psi_malformed_field_is_schema_error(self, tmp_path, overrides):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_scenario(**overrides)))
        out = tmp_path / "out"
        assert cli.main(["psi", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "sub\\escaped", "",
                                      ".", "..", "ABSOLUTE"])
    def test_psi_name_cannot_leave_out_dir(self, tmp_path, name):
        if name == "ABSOLUTE":
            name = str(tmp_path / "escaped")
        path = tmp_path / "scenarios" / "ok.json"
        path.parent.mkdir()
        path.write_text(json.dumps(minimal_scenario(name=name)))
        out = tmp_path / "work" / "out"
        assert cli.main(["psi", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    def test_mode_override(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(minimal_scenario(horizon=6)))
        out = tmp_path / "out"
        code = cli.main(["psi", str(path), "--mode", "float", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "scn.json").read_text())
        assert report["repr"] == "float"
        assert "psi_rational" not in report["values"][0]

    @pytest.mark.parametrize("family,prior", [
        ({"kind": "normal", "sigma": 2.0}, {"type": "stdnormal"}),
        ({"kind": "exponential"}, {"type": "exp", "lambda": 1}),
    ])
    def test_exact_mode_refused_on_float_routes(self, tmp_path, family, prior):
        payload = minimal_scenario(
            family=family, prior=prior, theta0=0.5, theta1=1.5, numeric_mode="exact"
        )
        with pytest.raises(DomainError, match="exact"):
            run_scenario(scenario_from_json(payload))
        path = tmp_path / "exact.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main(["psi", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
        assert not out.exists()

    def test_audit_known_suite(self, tmp_path):
        assert cli.main(["audit", "turan", "--seed", "42", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "audit_turan.json").read_text())
        assert report["pass"] is True

    def test_audit_alias_for_polynomial_suite(self, tmp_path):
        assert cli.main(["audit", "appendix_a4", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "audit_appendix_a4.json").read_text())
        assert report["suite"] == "positivity"

    def test_beta_counterexample_via_cli(self, tmp_path):
        assert cli.main(["psi", "beta71", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "beta71.json").read_text())
        violations = report["diagnostics"]["logconcavity_violations"]
        assert set(violations) & {2, 3, 4}

    def test_psi_directory_path_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.mkdir()
        out = tmp_path / "out"
        assert cli.main(["psi", str(path), "--out", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("io error:")
        assert not out.exists()

    def test_psi_non_utf8_file_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        text = json.dumps(minimal_scenario(name="café"), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out"
        assert cli.main(["psi", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert "not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_figures_numeric_failure_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        def fail(scenario):
            raise DomainError(f"no route for {scenario.name}")

        monkeypatch.setattr(fig, "run_scenario", fail)
        out = tmp_path / "out"
        assert cli.main(["figures", "1", "--out", str(out)]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric failure: no route for figure1\n"
        assert not out.exists()

    def test_figures_reads_bundled_scenarios_over_files(self, tmp_path, monkeypatch, capsys):
        """A file named like a bundled scenario does not shadow it, and no
        scenario file is loaded."""
        def fail(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "figure1").write_text("not a scenario")
        monkeypatch.setattr(cli, "load_scenario", fail)
        assert cli.main(["figures", "1", "--out", "out"]) == cli.EXIT_OK
        assert capsys.readouterr().out.split() == [
            os.path.join("out", f"figure1.{kind}") for kind in ("csv", "json", "svg")]
        scenario = fig.bundled_scenario("figure1")
        seq = run_scenario(scenario)
        expected = fig.sequence_csv(seq, dg.analyze(seq, prior=scenario.prior))
        assert (tmp_path / "out" / "figure1.csv").read_text() == "".join(expected)


class TestDeterminism:
    def test_audit_reports_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["audit", "orders", "--seed", "42", "--out", str(out1)]) == 0
        assert cli.main(["audit", "orders", "--seed", "42", "--out", str(out2)]) == 0
        a = (out1 / "audit_orders.json").read_bytes()
        b = (out2 / "audit_orders.json").read_bytes()
        assert a == b

    def test_scenario_outputs_are_byte_identical(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(minimal_scenario(horizon=8)))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["psi", str(path), "--out", str(out1)]) == 0
        assert cli.main(["psi", str(path), "--out", str(out2)]) == 0
        for name in ("scn.csv", "scn.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestExponentialPriorScenario:
    def test_exp_prior_rate_path(self, tmp_path):
        payload = {
            "family": {"kind": "exponential"},
            "prior": {"type": "exp", "lambda": "2/1"},
            "theta0": 0.8,
            "theta1": 1.2,
            "horizon": 6,
            "outputs": ["json"],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main(["psi", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "exp.json").read_text())
        assert report["method"] == "closed_form_exp_bessel"
