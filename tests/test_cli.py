import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euph.cli import _parse_range, main


def one_cell_report(status, errors):
    from euph.oracle import CrosscheckReport

    row = {
        "model": "ds", "lambda": 0.01, "n": 1, "l": 0,
        "e_closed": None, "e_oracle": None, "rel_dev": None,
        "nodes_closed": None, "nodes_oracle": None, "node_match": None,
        "status": status,
    }
    summary = {"cells": 1, "max_rel_dev_ds": None,
               "max_rel_dev_ads": None, "all_nodes_match": True, "errors": errors}
    return CrosscheckReport(rows=(row,), summary=summary)


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


class TestSpectrum:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run(["spectrum", "--model", "ads", "--lambda", "0.01",
                    "--n-max", "3", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,l,energy_hartree,bohr_term_hartree,correction_hartree"
        assert len(lines) == 1 + 6  # levels (1,0) .. (3,2)
        first = lines[1].split(",")
        assert first[:2] == ["1", "0"]
        assert float(first[2]) == pytest.approx(-0.5)

    def test_lambda_zero_is_a_validation_error(self, tmp_path, capsys):
        code = run(["spectrum", "--model", "ds", "--lambda", "0",
                    "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "Bohr" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["-1", "0"])
    def test_n_max_below_one_exits_2(self, tmp_path, capsys, n_max):
        out = tmp_path / "x.csv"
        code = run(["spectrum", "--model", "ads", "--lambda", "0.01",
                    "--n-max", n_max, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --n-max")
        assert not out.exists()

    def test_unknown_flag_exits_2(self):
        assert run(["spectrum", "--model", "ads", "--nope", "1"]) == 2

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--model", "ds", "--lambda", "0.01",
                    "--n-max", "2", "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "spectrum"
        assert payload["rows"][0][2] == -0.5


class TestExitContract:
    def test_malformed_range_exits_2(self, tmp_path, capsys):
        assert run(["figure1", "--lambda", "0.04", "--dx-range", "a:b:c",
                    "--output", str(tmp_path / "f1.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_lambda_list_exits_2(self, tmp_path, capsys):
        assert run(["verify", "--lambdas", "x",
                    "--output", str(tmp_path / "v.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_output_dir_exits_2(self, tmp_path, capsys):
        assert run(["tables", "--output-dir", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_lambda_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run(["verify", "--lambdas", ",", "--n-max", "2", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_empty_level_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f2.csv"
        assert run(["figure2", "--levels", ",", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_zero_position_spread_exits_2(self, tmp_path, capsys):
        assert run(["figure1", "--lambda", "0.04", "--dx-range", "0:1:3",
                    "--output", str(tmp_path / "f1.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_flag_abbreviation_is_rejected(self, tmp_path, capsys):
        assert run(["tables", "--output", str(tmp_path / "x.csv")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


_SI_SCALE = st.sampled_from([0.0, -0.0, 5e-324, 1e-11, -3e-10, 2.5e-10, 1e20, -7e19])


class TestParseRange:
    @settings(max_examples=500, deadline=None)
    @given(
        a=st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SI_SCALE),
        b=st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SI_SCALE),
        n=st.integers(1, 300),
    )
    def test_matches_numpy_linspace_bytes(self, a, b, n):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.linspace(a, b, n).tobytes()
        assert np.array(_parse_range(f"{a!r}:{b!r}:{n}")).tobytes() == expected

    @pytest.mark.parametrize("text", ["-0.0:1.0:1", "0.0:5e-324:4", "3.0:3.0:5",
                                      "-0.0:-0.0:1", "1e-11:3e-10:33", "1e19:1e21:17"])
    def test_edge_cases_match_numpy_linspace_bytes(self, text):
        a, b, n = text.split(":")
        expected = np.linspace(float(a), float(b), int(n)).tobytes()
        assert np.array(_parse_range(text)).tobytes() == expected


def test_closed_form_commands_import_neither_numpy_nor_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    script = textwrap.dedent(f"""
        import sys
        import euph, euph.cli
        out = {str(tmp_path)!r}
        for argv in (
            ["spectrum", "--model", "ds", "--lambda", "0.01", "--output", out + "/s.csv"],
            ["tables", "--output-dir", out],
            ["figure1", "--lambda", "0.04", "--output", out + "/f1.csv"],
            ["figure2", "--format", "json", "--output", out + "/f2.json"],
            ["bound", "--precision", "1e-15", "--output", out + "/b.csv"],
        ):
            assert euph.cli.main(argv) == 0, argv
        heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
        assert not heavy, heavy
        from euph import RadialEigenstate, build_state
        assert build_state.__module__ == RadialEigenstate.__module__ == "euph.wavefunctions"
        try:
            euph.nonexistent
        except AttributeError:
            pass
        else:
            raise AssertionError("euph.nonexistent did not raise AttributeError")
    """)
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_library_imports_no_scipy(tmp_path):
    # the library loads no scipy: not on import, not for the benchmark
    # tracer's attribute lookups, not for a spectral solve or a sweep
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import importlib, importlib.util, sys
        import euph.cli, euph.polynomials, euph.wavefunctions
        from euph import oracle
        from euph.model import DeformationModel

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        spec = importlib.util.spec_from_file_location("spans", {str(root / "perfbench" / "spans.py")!r})
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for mod, attr, _ in spans.TARGETS:
            getattr(importlib.import_module("euph." + mod), attr)
        # the meshes are built on the first solve, not on import
        assert oracle._laguerre_mesh.cache_info().currsize == 0
        assert oracle._legendre_mesh.cache_info().currsize == 0
        oracle.fd_spectrum(DeformationModel(1, 1e-3), 0, 1)
        report = oracle.crosscheck_report([1e-3], 2)
        assert report.summary["errors"] == 0, report.summary
        assert not scipy_modules(), scipy_modules()
    """)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_nu_engine_and_polynomials_import_no_numpy(tmp_path):
    # the reduction and the Rodrigues polynomial are plain arithmetic on tuples
    script = textwrap.dedent("""
        import sys
        import euph.nu_engine, euph.polynomials
        heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
        assert not heavy, heavy
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestTables:
    def test_values_and_erratum_cell(self, tmp_path):
        assert run(["tables", "--n-max", "5", "--output-dir", str(tmp_path)]) == 0
        crit = (tmp_path / "table_critical.csv").read_text().splitlines()
        assert crit[0] == "n," + ",".join(f"l{l}_inv_bohr2" for l in range(5))
        row2 = crit[1].split(",")
        assert row2[1] == "0.0833" and row2[2] == "0.2500" and row2[3] == ""
        row3 = crit[2].split(",")
        assert row3[1] == "0.0139"  # 1/72, not the misprinted 0.1389
        inv = (tmp_path / "table_inversion.csv").read_text().splitlines()
        assert inv[1].split(",")[1] == "0.2500"

    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        run(["tables", "--n-max", "4", "--output-dir", str(d1)])
        run(["tables", "--n-max", "4", "--output-dir", str(d2)])
        assert (d1 / "table_critical.csv").read_bytes() == (
            d2 / "table_critical.csv"
        ).read_bytes()


class TestFigures:
    def test_figure1(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "f1.csv"
        assert run(["figure1", "--lambda", "0.04", "--dx-range", "0.5:20:50",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dx_bohr,floor_heisenberg_au,floor_ds_au,floor_ads_au"
        assert len(lines) == 51
        assert (tmp_path / "plot_figure1.py").exists()
        # dS floor crosses zero at dx = 1/sqrt(lam) = 5
        values = [list(map(float, ln.split(","))) for ln in lines[1:]]
        ds_at_5 = min(values, key=lambda v: abs(v[0] - 5.0))
        assert abs(ds_at_5[2]) < 1e-2

    def test_figure2_ground_is_flat(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "f2.csv"
        assert run(["figure2", "--lambda-range", "0:0.1:3", "--levels", "1",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda_inv_bohr2,e_ds_n1_hartree,e_ads_n1_hartree"
        for ln in lines[1:]:
            lam, e_ds, e_ads = map(float, ln.split(","))
            assert e_ds == -0.5 and e_ads == -0.5

    def test_range_starting_with_minus_in_equals_form(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "f2.csv"
        assert run(["figure2", "--lambda-range=-0.0:0.1:3", "--levels", "1",
                    "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert rows[0].split(",")[0] == "0"


class TestWavefunction:
    def test_summary_and_file(self, tmp_path, capsys):
        out = tmp_path / "wf.csv"
        code = run(["wavefunction", "--model", "ads", "--lambda", "0.01",
                    "--n", "2", "--l", "0", "--samples", "1000",
                    "--output", str(out)])
        assert code == 0
        message = capsys.readouterr().out
        assert "nodes=1" in message
        assert "norm=1.00000" in message
        assert len(out.read_text().splitlines()) == 1001

    def test_nonexistent_state_is_validation_error(self, tmp_path):
        code = run(["wavefunction", "--model", "ds", "--lambda", "0.05",
                    "--n", "3", "--l", "0", "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_si_small_lambda_state_builds(self, tmp_path, capsys):
        # lam = 0.01 m^-2 is 2.8e-23 a0^-2, far below the Hartree sweeps
        code = run(["wavefunction", "--model", "ds", "--lambda", "0.01", "--n", "2",
                    "--l", "0", "--units", "si", "--output", str(tmp_path / "x.csv")])
        assert code == 0
        message = capsys.readouterr().out
        assert "nodes=1" in message
        assert "norm=1.00000" in message

    @pytest.mark.parametrize(
        "units, lam, n, summary",
        [("si", "1e-18", 3, "nodes=2 norm=1.000000000"),
         ("hartree", "1e-40", 2, "nodes=1 norm=1.000000000")],
    )
    def test_tiny_lambda_ds_nodes_and_norm(self, tmp_path, capsys, units, lam, n, summary):
        # lam = 1e-18 m^-2 is 2.8e-39 a0^-2: far below 1e-33 a0^-2, where the
        # Jacobi parameters and the overlap tail once lost their digits
        code = run(["wavefunction", "--model", "ds", "--units", units, "--lambda", lam,
                    "--n", str(n), "--l", "0", "--output", str(tmp_path / "x.csv")])
        assert code == 0
        assert summary in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_samples_below_one_exit_2(self, tmp_path, capsys, samples):
        out = tmp_path / "x.csv"
        code = run(["wavefunction", "--model", "ads", "--lambda", "0.01", "--n", "1",
                    "--l", "0", "--samples", samples, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --samples")
        assert not out.exists()

    def test_engine_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a failed reduction is a numerical failure rather than bad input
        from euph import spectra
        from euph.errors import NotAPerfectSquareError

        def failing(model, qn):
            raise NotAPerfectSquareError("linear under-root expression is not a square")

        monkeypatch.setattr(spectra, "reduce_level", failing)
        code = run(["wavefunction", "--model", "ds", "--lambda", "0.01", "--n", "2",
                    "--l", "0", "--output", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("failure: linear under-root expression is not a square")
        assert "Traceback" not in err


class TestVerify:
    def test_cell_errors_exit_3(self, tmp_path, monkeypatch):
        from euph import oracle

        def broken(lambdas, n_max, units=None):
            return one_cell_report("error: synthetic, with a comma", errors=1)

        monkeypatch.setattr(oracle, "crosscheck_report", broken)
        out = tmp_path / "verify.csv"
        code = run(["verify", "--lambdas", "0.01", "--n-max", "1",
                    "--output", str(out)])
        assert code == 3
        body = out.read_text().splitlines()[1]
        assert body.count(",") == 10  # free text sanitized, column count intact

    def test_nothing_verified_exits_3(self, tmp_path, monkeypatch):
        from euph import oracle

        def unverified(lambdas, n_max, units=None):
            return one_cell_report("above-threshold", errors=0)

        monkeypatch.setattr(oracle, "crosscheck_report", unverified)
        code = run(["verify", "--lambdas", "0.01", "--n-max", "1",
                    "--output", str(tmp_path / "verify.csv")])
        assert code == 3

    def test_engine_failure_is_not_labelled_non_normalizable(self, tmp_path):
        # lam = 3.3e-16 is near the spectroscopic bound, where the reduction
        # engine once failed for every level; the labelling of a failed cell
        # is covered by test_oracle's engine-failure cell test
        out = tmp_path / "verify.csv"
        code = run(["verify", "--lambdas", "3.3e-16", "--n-max", "2",
                    "--output", str(out)])
        statuses = [ln.split(",")[-1] for ln in out.read_text().splitlines()[1:]]
        assert statuses == ["ok"] * 6
        assert code == 0

    @pytest.mark.parametrize(
        "lam, units",
        [("0.028002852016093403", "hartree"), ("1e19", "si")],
        ids=["hartree", "si"],
    )
    def test_wall_squeezed_ads_cell_passes_the_ratio_gate(self, tmp_path, lam, units):
        # AdS (3,2) here once had Richardson ratio 6.99 from bisection round-off
        out = tmp_path / "verify.csv"
        code = run(["verify", "--lambdas", lam, "--n-max", "3", "--units", units,
                    "--output", str(out)])
        statuses = [ln.split(",")[-1] for ln in out.read_text().splitlines()[1:]]
        assert not any(st.startswith("error") for st in statuses)
        assert code == 0

    @pytest.mark.parametrize(
        "n, l", [(n, l) for n in range(2, 5) for l in range(n) if n * n - l * (l + 1) > 1]
    )
    def test_critical_deformations_pass(self, tmp_path, n, l):
        # at lam_c = 1/(n^2 d) the AdS level (n, l) lies at E = 0, where an
        # error estimate relative to E would explode
        lam = 1.0 / (n * n * (n * n - l * (l + 1) - 1))
        out = tmp_path / "verify.json"
        code = run(["verify", "--lambdas", repr(lam), "--n-max", "4", "--format", "json",
                    "--output", str(out)])
        rows = json.loads(out.read_text())["rows"]
        row = next(r for r in rows if r[0] == "ads" and r[2:4] == [n, l])
        assert row[4] == 0.0
        assert row[-1] == "ok"
        assert abs(row[5]) <= 1e-12
        assert code == 0

    def test_small_sweep(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run(["verify", "--lambdas", "0.01", "--n-max", "2",
                    "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith(
            "model,lambda_inv_bohr2,n,l,e_closed_hartree,e_oracle_hartree,rel_dev"
        )
        assert len(lines) == 1 + 6  # two models x 3 (n, l) cells
        assert all(ln.endswith("ok") for ln in lines[1:])


class TestBound:
    def test_si_defaults(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert run(["bound", "--precision", "1e-15", "--output", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        dp_convention, dp_derived = float(row[1]), float(row[2])
        assert dp_convention == pytest.approx(5.146e-32, rel=1e-3)
        assert dp_derived == pytest.approx(3.639e-32, rel=1e-3)
        assert "5.146e-32" in capsys.readouterr().out

    @pytest.mark.parametrize("precision", ["nan", "inf", "-inf", "-1e-15", "1", "1e300"])
    def test_precision_not_finite_or_negative_exits_2(self, tmp_path, capsys, precision):
        out = tmp_path / "bound.csv"
        assert run(["bound", f"--precision={precision}", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: precision")
        assert not out.exists()
