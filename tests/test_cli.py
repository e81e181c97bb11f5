import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from coulomblab import bogoliubov, operators, thermo
from coulomblab.cli import (
    DEFAULT_SEED,
    DIAMAGNETIC_TOL,
    SOBOLEV_GRID_MARGIN,
    THERMO_LIMIT_SCALES,
    build_parser,
    main,
)
from coulomblab.errors import ConvergenceError
from coulomblab.report import EnergyReport, dumps_canonical, format_float, rows_to_csv


class TestReportSerialization:
    def test_float_format_17_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(-2.5e-300) == "-2.5e-300"
        # round-trip safety at full precision
        for x in (0.1, 1.0 / 3.0, 2.0**0.5, -7.1e-42):
            assert float(format_float(x)) == x

    def test_canonical_json_sorted_keys(self):
        text = dumps_canonical({"b": 1, "a": [1.5, True, None, "x"]})
        assert text == '{"a":[1.5,true,null,"x"],"b":1}'
        json.loads(text)  # valid JSON

    def test_rows_to_csv_with_header(self):
        rows = [{"x": 1, "y": 0.5}, {"x": 2, "y": 1.5}]
        text = rows_to_csv(rows, header={"seed": 7})
        lines = text.strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == "x,y"
        assert lines[2] == "1,0.5"

    def test_energy_report_all_checks_pass(self):
        rep = EnergyReport("demo", terms={"a": 1.5, "b": -0.5},
                           checks={"holds": True, "fails": False})
        assert not rep.all_checks_pass
        rep.checks["fails"] = True
        assert rep.all_checks_pass


class TestCliContract:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["does-not-exist"]) == 2

    def test_subcommand_option_sets(self):
        # each subcommand offers --out and only the flags its runner reads
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        offered = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            - {"-h", "--help", "--out"}
            for name, sub in subparsers.choices.items()
        }
        rows, seeded = {"--format"}, {"--seed"}
        assert offered == {
            "i0": set(),
            "dyson-solve": rows | {"--grid-n"},
            "dyson-pipeline": rows | {"--grid-n"},
            "fock-oracle": seeded | {"--samples"},
            "onsager-check": seeded | {"--samples"},
            "lt-box": rows,
            "stability-constant": rows,
            "graf-schenker": seeded | rows,
            "thermo-limit": rows,
            "rel-collapse": set(),
            "fermi-collapse": rows,
            "lichnerowicz": seeded | {"--grid-n"},
            "sobolev": seeded | {"--grid-n", "--samples"},
            "legendre": set(),
        }
        assert len(offered) + sum(map(len, offered.values())) == 33

    @pytest.mark.parametrize("argv", [
        "onsager-check --samples -3", "fock-oracle --samples 0", "sobolev --grid-n 0",
        "lt-box --samples 9", "i0 --seed 5", "i0 --format csv",
        "graf-schenker --samples 500", "--seed 5 fock-oracle",
        # the removed --tol overrides and --config file: argparse rejects the
        # flag before any file is read
        "legendre --tol not_a_tol=1", "legendre --tol semiclassical_match=1",
        "legendre --tol gauge=1", "legendre --tol stability_agreement=1",
    ])
    def test_flag_outside_its_subcommand_is_usage_error(self, argv, capsys):
        # counts are positive, and a flag follows the subcommand that reads it
        assert main(argv.split()) == 2
        assert capsys.readouterr().out == ""

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert main(["legendre", "--config", str(cfg)]) == 2

    def test_grids_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grids": {}}')
        assert main(["legendre", "--config", str(cfg)]) == 2

    def test_legendre_passes(self, tmp_path, capsys):
        out = tmp_path / "legendre.json"
        assert main(["legendre", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        data = json.loads(out.read_text())
        assert data["pass"] is True

    def test_i0_reports_the_factor_two_defect(self, tmp_path, capsys):
        # the stated closed form sits an exact factor 2 above the integral,
        # so the identity check fails at its default tolerance by design
        out = tmp_path / "i0.json"
        assert main(["i0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        data = json.loads(out.read_text())
        assert data["rel_diff"] == pytest.approx(0.5, abs=1e-9)
        assert data["pass"] is False

    def test_byte_identical_artifacts(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["fock-oracle", "--samples", "3", "--seed", "11"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_artifact(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["fock-oracle", "--samples", "3", "--seed", "1",
                     "--out", str(out1)]) == 0
        assert main(["fock-oracle", "--samples", "3", "--seed", "2",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_onsager_subcommand(self, tmp_path):
        out = tmp_path / "onsager.json"
        assert main(["onsager-check", "--samples", "50", "--seed",
                     str(DEFAULT_SEED), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["violations"] == 0

    def test_csv_format_with_json_header(self, tmp_path):
        out = tmp_path / "ltbox.csv"
        assert main(["lt-box", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# {")
        header = json.loads(lines[0][2:])
        assert header["pass"] is True
        assert lines[1].split(",")[0] == "N"

    def test_dyson_solve_artifact(self, tmp_path):
        out = tmp_path / "dyson.csv"
        assert main(["dyson-solve", "--grid-n", "800", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = json.loads(lines[0][2:])
        assert header["virial_residual"] < 1e-3
        assert header["E"] < 0
        assert header["converged"] is True
        assert header["relative_gradient"] < 1e-7
        assert 1 <= header["iterations"] <= 20

    def test_dyson_pipeline_csv_header(self, tmp_path):
        out = tmp_path / "pipeline.csv"
        assert main(["dyson-pipeline", "--grid-n", "800", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = json.loads(lines[0][2:])
        assert header["converged"] is True
        assert header["pass"] is True
        assert {"E_star", "iterations", "relative_gradient"} <= set(header)
        assert lines[1] == "N,E_upper,E_upper_over_N75,length_scale"

    def test_library_error_is_structured(self, capsys):
        assert main(["lichnerowicz", "--grid-n", "15"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "grid_n must be even and at least 16",
            "subcommand": "lichnerowicz",
        }

    def test_dyson_grid_without_interior_node_is_structured(self, capsys):
        assert main(["dyson-solve", "--grid-n", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            '{"error":"ValueError","message":"grid_n must be at least 2",'
            '"subcommand":"dyson-solve"}\n'
        )

    def test_dyson_grid_with_one_interior_node_fails_its_virial_check(self, capsys):
        # one interior node fixes the normalized profile: the solve converges
        # in 0 steps, and so coarse a profile misses the virial identity
        assert main(["dyson-solve", "--grid-n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        artifact = json.loads(captured.out)
        assert artifact["iterations"] == 0
        assert artifact["converged"] is True
        assert artifact["virial_residual"] > 1.0
        assert artifact["pass"] is False

    def test_pipeline_with_one_interior_node_fails_its_virial_check(self, capsys):
        # the pipeline rescales the n = 2 profile exactly, so its spread is
        # at rounding, but the profile misses the virial identity
        assert main(["dyson-pipeline", "--grid-n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        artifact = json.loads(captured.out)
        assert artifact["max_relative_spread"] < 1e-10
        assert artifact["virial_residual"] > 1.0
        assert artifact["pass"] is False

    @pytest.mark.parametrize("terms", [
        (1.0, 1.0 + 1e-9, 0.1),  # lhs < mid: the diamagnetic step fails
        (10.0, 1.0, 1.0),  # mid < 0.995 S sob: the Sobolev step fails
    ])
    def test_violated_sobolev_chain_exits_1(self, terms, monkeypatch, capsys):
        monkeypatch.setattr(operators, "diamagnetic_sobolev_terms",
                            lambda f, a, q: terms)
        assert main(["sobolev", "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        artifact = json.loads(captured.out)
        assert artifact["pass"] is False
        assert artifact["worst_gap"] == terms[0] - terms[1]
        assert artifact["sobolev_ratio"] == terms[1] / (
            operators.sharp_sobolev_constant() * terms[2])

    def test_convergence_error_is_structured(self, monkeypatch, capsys):
        def fail(**kwargs):
            raise ConvergenceError("no convergence in 1 Newton steps")

        monkeypatch.setattr(bogoliubov, "dyson_variational_solve", fail)
        assert main(["dyson-solve"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"
        assert err["subcommand"] == "dyson-solve"

    @staticmethod
    def _stdout_across_blas_threads(subcommand, status=0):
        # the three interpreters run two at a time
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(threads):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
            env["OMP_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p
            )
            return subprocess.run(
                [sys.executable, "-m", "coulomblab.cli", subcommand],
                env=env, capture_output=True,
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            procs = list(pool.map(run, ("2", "2", "1")))
        runs = [(proc.returncode, proc.stdout) for proc in procs]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == status, procs[0].stderr.decode()
        return runs[0][1]

    def test_dyson_solve_bytes_across_blas_threads(self):
        out = self._stdout_across_blas_threads("dyson-solve")
        assert json.loads(out)["converged"] is True

    def test_onsager_check_bytes_across_blas_threads(self):
        out = self._stdout_across_blas_threads("onsager-check")
        assert out.decode() == (
            '{"configs":2000,"pass":true,"seed":137,"violations":0}\n'
        )

    def test_lt_box_bytes_across_blas_threads(self):
        art = json.loads(self._stdout_across_blas_threads("lt-box"))
        assert art["C_lt"] == pytest.approx(2.0**1.5 / (15.0 * math.pi**2), rel=1e-15)
        assert art["pass"] is True

    def test_stability_constant_bytes_across_blas_threads(self):
        art = json.loads(self._stdout_across_blas_threads("stability-constant"))
        assert art["pass"] is True and len(art["rows"]) == 12
        # the few-body stability of the first kind, (1, -1) and (2, -2) at
        # mass 1 and (1, -1, 1/2) at mass 1.3
        cases = [(tuple(e["charges"]), e["mass"]) for e in art["first_kind"]]
        assert cases == [((1, -1), 1), ((1, -1, 0.5), 1.3), ((2, -2), 1)]
        for entry, (charges, mass) in zip(art["first_kind"], cases):
            assert entry["holds"] is True and entry["margin"] > 0
            demo = operators.stability_first_kind_demo(charges, mass=mass)
            assert {k: entry[k] for k in demo} == demo

    def test_thermo_limit_bytes_across_blas_threads(self):
        art = json.loads(self._stdout_across_blas_threads("thermo-limit"))
        assert art["closed_form"] == pytest.approx(
            -(2.0**2.5) / (30.0 * math.pi**2), rel=1e-15
        )
        # the fit's diagnostics: the rms of the rows' e - fit, not flagged
        rms = math.sqrt(np.mean([(row["e"] - row["fit"]) ** 2 for row in art["rows"]]))
        assert art["residual_rms"] == pytest.approx(rms, rel=1e-9)
        assert art["fit_warning"] is False
        assert art["pass"] is True

    def test_rel_collapse_bytes_across_blas_threads(self):
        art = json.loads(self._stdout_across_blas_threads("rel-collapse"))
        # the correlated state (center width 8, relative width 1) sets the
        # threshold 2 <|p|> / <1/r> = 2 sqrt(2) sqrt(1/512 + 1/2) = sqrt(257)/8
        assert art["Q_upper"] == pytest.approx(math.sqrt(257.0) / 8.0, rel=1e-15)
        assert art["pass"] is True

    def test_sobolev_bytes_across_blas_threads(self):
        art = json.loads(self._stdout_across_blas_threads("sobolev"))
        assert art["constant"] == pytest.approx(
            3.0 * (math.pi**2 / 4.0) ** (2.0 / 3.0), rel=1e-15
        )
        assert art["worst_gap"] >= -DIAMAGNETIC_TOL
        assert art["sobolev_ratio"] >= SOBOLEV_GRID_MARGIN
        assert art["pass"] is True

    def test_i0_bytes_and_status_across_blas_threads(self):
        # exit status 1 by design: the published form is 2x the integral
        art = json.loads(self._stdout_across_blas_threads("i0", status=1))
        assert art["rel_diff"] == pytest.approx(0.5, abs=1e-9)
        assert art["pass"] is False

    @pytest.mark.parametrize("subcommand", [
        "dyson-pipeline", "fock-oracle", "graf-schenker", "fermi-collapse",
        "lichnerowicz", "legendre",
    ])
    def test_passing_subcommand_bytes_across_blas_threads(self, subcommand):
        art = json.loads(self._stdout_across_blas_threads(subcommand))
        assert art["pass"] is True

    def test_thermo_limit_scales_hold_at_every_mu(self):
        # lattice-point oscillations of the filled set made a 5-scale fit
        # miss by 1.4% at mu = -0.52; the subcommand accepts 1%
        #
        # lattice-sum oracle: E(L) sums |mu| (|n|^2/R^2 - 1) over positive
        # n with |n| < R = L sqrt(2 m |mu|) / pi.  Inclusion-exclusion over
        # the coordinate planes, axes and origin, with each lattice sum
        # taken as its integral, splits off the boundary terms
        # (|mu|/8)(3 pi R^2/2 - 4R + 1); what is left, per volume and
        # averaged over the scales, is the bulk density
        worst = worst_oracle = 0.0
        for mu in np.linspace(-3.0, -0.5, 251):
            rep = thermo.thermodynamic_extrapolation(
                thermo.free_fermion_energy_map(mu, 1.0),
                lambda L: thermo.BoxDomain(L), THERMO_LIMIT_SCALES,
            )
            closed = thermo.free_fermion_energy_density(mu, 1.0)
            worst = max(worst, abs(rep.e_infinity - closed) / abs(closed))
            radius = THERMO_LIMIT_SCALES * math.sqrt(2.0 * abs(mu)) / math.pi
            boundary = abs(mu) / 8.0 * (
                1.5 * math.pi * radius**2 - 4.0 * radius + 1.0
            )
            bulk = np.mean(rep.densities - boundary / THERMO_LIMIT_SCALES**3)
            worst_oracle = max(worst_oracle, abs(bulk - closed) / abs(closed))
        assert len(THERMO_LIMIT_SCALES) == 41
        assert worst < 0.01
        assert worst_oracle < 1e-3

    def test_thermo_limit_csv_schema(self, tmp_path):
        out = tmp_path / "thermo.csv"
        assert main(["thermo-limit", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = json.loads(lines[0][2:])
        assert {"mu", "m", "e_infinity"} <= set(header)
        assert lines[1] == "L,e,fit"

    def test_fermi_collapse_csv_schema(self, tmp_path):
        out = tmp_path / "collapse.csv"
        assert main(["fermi-collapse", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "N,kinetic,estimate"
        assert json.loads(lines[0][2:])["pass"] is True

    @pytest.mark.parametrize("subcommand", [
        "lt-box", "stability-constant", "graf-schenker", "thermo-limit", "fermi-collapse",
    ])
    def test_csv_header_is_the_artifact_without_rows(self, subcommand, tmp_path):
        json_out, csv_out = tmp_path / "a.json", tmp_path / "a.csv"
        assert main([subcommand, "--out", str(json_out)]) == 0
        assert main([subcommand, "--format", "csv", "--out", str(csv_out)]) == 0
        artifact = json.loads(json_out.read_text())
        rows = artifact.pop("rows")
        lines = csv_out.read_text().split("\n")
        assert lines[0] == "# " + dumps_canonical(artifact)
        assert set(lines[1].split(",")) == set(rows[0])
        assert len(lines) == len(rows) + 3  # header, columns, rows, final newline

    def test_config_and_tol_are_usage_errors(self, tmp_path, capsys):
        # a once valid config file and tolerance override are now unknown options
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "samples": 3}))
        assert main(["fock-oracle", "--config", str(cfg)]) == 2
        assert main(["i0", "--tol", "i0_match=0.6"]) == 2
        assert capsys.readouterr().out == ""
