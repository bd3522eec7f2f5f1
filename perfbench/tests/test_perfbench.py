"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile --------------------------------------------------------


def test_tail_takes_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(100, 0, -1)]
    value, pct, beyond = metrics.tail(samples)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(s > value for s in samples) == 10


def test_tail_with_exactly_eleven_samples():
    value, pct, beyond = metrics.tail([float(i) for i in range(11)])
    assert value == 0.0 and beyond == 10
    assert pct == pytest.approx(100.0 / 11)


def test_tail_with_fewer_than_ten_beyond_falls_back_to_median():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    value, pct, beyond = metrics.tail(samples)
    assert (value, pct, beyond) == (3.0, 50.0, 2)
    assert beyond < metrics.TAIL_BEYOND


def test_tail_of_ten_samples_is_unresolved():
    value, pct, beyond = metrics.tail([float(i) for i in range(10)])
    assert pct == 50.0 and beyond < 10 and value == 4.5


# -- metric names -----------------------------------------------------------


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_use_the_allowed_charset():
    bench = _benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.valid_name(name), name
    for bad in ("a b", "x/y", ".lead", "", "é", "n" * 65):
        assert not metrics.valid_name(bad)


def test_layer_map_names_exist():
    bench = _benchmark()
    meta = json.loads((BENCH / "workloads.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = [m["name"] for m in bench["per_layer"]]
    assert set(meta["workloads"]) == {w["name"] for w in bench["workloads"]}
    for entry in meta["layers"].values():
        assert set(entry["metrics"]) <= set(layer)
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= set(meta["workloads"])
    # run.py can compute every per-layer metric BENCHMARK.json names.
    assert list(spans.layer_metrics(layer, {})) == layer


# -- ok_ratio ---------------------------------------------------------------


def test_ok_ratio_counts_attempted_not_completed_ops():
    ops = [
        {"latency": 1.0, "ok": True, "items": 1, "items_ok": 1},
        {"latency": 2.0, "ok": True, "items": 1, "items_ok": 1},
        # raised a typed error: never completed, still attempted
        {"latency": 0.1, "ok": False, "items": 1, "items_ok": 0},
        # completed with a wrong value
        {"latency": 3.0, "ok": False, "items": 1, "items_ok": 0},
    ]
    values, facts = metrics.summarize(ops, [0.5, 0.7, 0.6], 2048)
    assert values["ok_ratio"] == 0.5
    assert facts["attempted"] == 4 and facts["failed"] == 2 and facts["ops"] == 4
    assert values["op_ok_p50_s"] == 1.5
    assert values["items_ok_per_s"] == pytest.approx(2 / 6.1)
    assert values["setup_s"] == 0.6 and values["peak_rss_mib"] == 2.0


def test_ok_ratio_counts_wrong_cells_of_a_completed_sweep():
    ops = [
        # a real sweep with 3 of its 12 cells wrong: timed, but 3 items fail
        {"latency": 1.0, "ok": True, "items": 12, "items_ok": 9},
        # a sweep that raised: every requested cell is attempted and failed
        {"latency": 0.2, "ok": False, "items": 12, "items_ok": 0},
    ]
    values, facts = metrics.summarize(ops, [0.5], 0)
    assert values["ok_ratio"] == 9 / 24
    assert facts["attempted"] == 24 and facts["failed"] == 15
    assert values["op_ok_p50_s"] == 1.0


def test_sweep_check_fails_wrong_cells():
    import types

    item = {"lambdas": [0.001], "n_max": 2}
    rows = [_cell(model=m, n=n, l=l, nodes_closed=n - l - 1,
                  e_closed=checks.level_energy(1 if m == "ds" else -1, 0.001, n, l))
            for m, _, n, l in sorted(checks.expected_cells([0.001], 2))]
    for r in rows:
        r["e_oracle"] = r["e_closed"] * (1 + 1e-5)
    record = workloads.check_sweep(item, types.SimpleNamespace(rows=rows))
    assert record["ok"] and record["items"] == 6 and record["items_ok"] == 6
    rows[0]["status"] = "error: ValueError"
    rows[1]["e_oracle"] = rows[1]["e_closed"] * 1.01
    record = workloads.check_sweep(item, types.SimpleNamespace(rows=rows))
    assert record["ok"] and record["items_ok"] == 4 and len(record["cell_reasons"]) == 2


# -- item lists -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_item_lists_are_a_function_of_the_seed(workload):
    count = workloads.item_count(workload, 20)
    first = workloads.generate(workload, 7, count)
    assert first == workloads.GENERATORS[workload](7, count)
    assert first != workloads.GENERATORS[workload](8, count)
    assert len(first) == len(workloads.GENERATORS[workload](8, count))


def test_state_jobs_draw_only_bound_ds_levels():
    for job in workloads.state_items(3, 400):
        lam_h = checks.hartree_lambda(job["lam"], job["units"])
        assert 1e-18 <= lam_h <= 1e-1 * (1 + 1e-12)
        if job["tau"] == 1:
            assert checks.ds_tail_bound(lam_h, job["n"])


def test_cli_mix_shares():
    ops = workloads.cli_items(1, 100)
    assert sum(o["cmd"] == "wavefunction" for o in ops) == 20
    special = [o for o in ops if o.get("units") == "si" or o.get("lam", 1.0) <= 1e-12]
    assert 15 <= len(special) <= 30


# -- checks -----------------------------------------------------------------


def _spectrum_csv(op, perturb=1.0):
    lines = ["n,l,energy_hartree,bohr_term_hartree,correction_hartree"]
    for n in range(1, op["n_max"] + 1):
        for l in range(n):
            e = checks.level_energy(op["tau"], op["lam"], n, l) * perturb
            b = checks.bohr_energy(n)
            c = checks.energy_correction(op["tau"], op["lam"], n, l)
            lines.append(f"{n},{l},{e:.6g},{b:.6g},{c:.6g}")
    return "\n".join(lines) + "\n"


SPECTRUM = {"cmd": "spectrum", "tau": 1, "lam": 0.01, "units": "hartree", "n_max": 3, "format": "csv"}


def test_checker_accepts_reference_spectrum():
    assert checks.check_cli(SPECTRUM, 0, "", [_spectrum_csv(SPECTRUM)]) is None


def test_checker_fails_perturbed_energy():
    reason = checks.check_cli(SPECTRUM, 0, "", [_spectrum_csv(SPECTRUM, 1.0 + 1e-4)])
    assert reason is not None and reason.startswith("spectrum")
    assert checks.check_energy(1, 0.01, 2, 0, "hartree", checks.level_energy(1, 0.01, 2, 0) * (1 + 1e-9))


def test_checker_fails_traceback_exit():
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nZeroDivisionError: x\n'
    assert checks.check_cli(SPECTRUM, 1, stderr, [None]) == "traceback"
    assert checks.check_cli(SPECTRUM, 2, "error: bad\n", [None]).startswith("exit 2")


def _state_kwargs(**over):
    kw = dict(energy=checks.level_energy(-1, 0.01, 3, 1), nodes=1, norm=1.0 + 1e-10,
              samples=[1.0, 2.0, -1.0, -0.5])
    kw.update(over)
    return kw


def test_checker_fails_wrong_node_count():
    assert checks.check_state(-1, 0.01, 3, 1, "hartree", **_state_kwargs()) is None
    assert checks.check_state(-1, 0.01, 3, 1, "hartree", **_state_kwargs(nodes=0)).startswith("count_nodes")
    assert checks.check_state(-1, 0.01, 3, 1, "hartree", **_state_kwargs(samples=[1.0, 2.0])).startswith("radial")
    assert checks.check_state(-1, 0.01, 3, 1, "hartree", **_state_kwargs(norm=1.0 + 1e-6)).startswith("norm")


def _cell(**over):
    row = {"model": "ds", "lambda": 0.001, "n": 2, "l": 0, "status": "ok", "nodes_closed": 1,
           "node_match": True, "e_closed": checks.level_energy(1, 0.001, 2, 0)}
    row["e_oracle"] = row["e_closed"] * (1 + 1e-5)
    row.update(over)
    return row


def test_cell_verdicts():
    assert checks.check_cell(_cell()) is None
    assert checks.check_cell(_cell(e_oracle=_cell()["e_closed"] * 1.002)).startswith("oracle energy")
    assert checks.check_cell(_cell(node_match=False)).startswith("node_match")
    assert checks.check_cell(_cell(status="error: x")).startswith("status")
    # dS (n=4, l=3) at lambda = 0.01 lies above the continuum edge -sqrt(lambda)
    above = _cell(n=4, l=3, **{"lambda": 0.01})
    assert checks.check_cell(dict(above, status="above-threshold")) is None
    assert checks.check_cell(dict(above, status="ok")).startswith("unbound")


# -- spans ------------------------------------------------------------------

LAYER_NAMES = [m["name"] for m in _benchmark()["per_layer"]]


def _span(name, start, end, parent=-1, failed=False, extra=0):
    return [name, start, end, parent, failed, extra]


def test_self_time_subtracts_direct_children():
    thread = [
        _span("spectra.energy_via_nu", 0.0, 10.0),
        _span("nu_engine.solve_level", 1.0, 9.0, parent=0),
        _span("nu_engine.reduce", 2.0, 4.0, parent=1),
        _span("nu_engine.reduce", 5.0, 6.0, parent=1, failed=True),
    ]
    totals = spans.span_totals([thread])
    assert totals["spectra.energy_via_nu.self_s"] == 2.0
    assert totals["nu_engine.solve_level.self_s"] == 5.0
    assert totals["nu_engine.reduce.self_s"] == 3.0
    assert totals["nu_engine.reduce.fail"] == 1
    layer = spans.layer_metrics(LAYER_NAMES, totals)
    assert layer["nu_engine.reduce.per_level"] == 2.0


def test_refine_share_and_pool_overlap():
    main = [_span("oracle.crosscheck_report", 0.0, 10.0)]
    worker = [
        _span("oracle.fd_spectrum", 0.0, 8.0),
        _span("oracle.eigh", 0.0, 1.0, parent=0, extra=4000),
        _span("oracle.eigh", 1.0, 3.0, parent=0, extra=8000),
        _span("oracle.eigh", 3.0, 7.0, parent=0, extra=16000),
        _span("wavefunctions.build_state", 8.0, 9.0),
    ]
    other = [_span("oracle.fd_spectrum", 0.0, 6.0)]
    layer = spans.layer_metrics(LAYER_NAMES, spans.span_totals([main, worker, other]))
    assert layer["oracle.eigh.points"] == 28000
    assert layer["oracle.eigh.refine_share"] == pytest.approx(6.0 / 7.0)
    assert layer["oracle.pool_overlap"] == pytest.approx(15.0 / 10.0)
    assert layer["oracle.crosscheck_report.wall_s"] == 10.0


def test_tracer_installs_on_module_attributes_and_restores():
    import types

    def quad(func, a, b):
        return sum(func(a + (b - a) * i / 4) for i in range(5)), 0.0

    fake = {name: types.SimpleNamespace() for name in
            ("spectra", "nu_engine", "polynomials", "wavefunctions", "oracle")}
    for mod, attr, _ in spans.TARGETS:
        setattr(fake[mod], attr, lambda *args, **kwargs: len(args))
    fake["wavefunctions"].integrate = types.SimpleNamespace(quad=quad, other=1)
    originals = {(m, a): getattr(fake[m], a) for m, a, _ in spans.TARGETS}

    tracer = spans.Tracer()
    tracer.install(fake)
    assert fake["polynomials"].poly_coefficients is fake["wavefunctions"].poly_coefficients
    assert fake["oracle"].eigh_tridiagonal([0.0] * 7, [0.0] * 6) == 2
    assert fake["wavefunctions"].integrate.quad(lambda x: x, 0.0, 1.0)[0] == 2.5
    assert fake["wavefunctions"].integrate.other == 1
    fake["spectra"].energy_via_nu(1, 2)
    tracer.uninstall()
    assert {(m, a): getattr(fake[m], a) for m, a, _ in spans.TARGETS} == originals
    assert fake["wavefunctions"].integrate.quad is quad

    totals = tracer.totals()
    assert totals["oracle.eigh.calls"] == 1 and totals["oracle.eigh.extra"] == 7
    assert totals["wavefunctions.quad.extra"] == 5
    assert totals["spectra.energy_via_nu.calls"] == 1


def test_import_self_times_sums_package_modules():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1000 |       1000 |     numpy.core\n"
        "import time:      2000 |       3000 |   numpy\n"
        "import time:    400000 |     400000 |   scipy.integrate\n"
        "import time:       500 |        500 | json\n"
    )
    got = workloads.import_self_times(stderr)
    assert got["numpy_s"] == pytest.approx(0.003)
    assert got["scipy_s"] == pytest.approx(0.4)


# -- against the real CLI ---------------------------------------------------


def _run_cli(op, tmp_path):
    args = workloads.cli_args(op, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "euph.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    outputs = [Path(p).read_text() for p in checks.cli_output_files(op, str(tmp_path))]
    return proc, outputs


def test_real_wavefunction_passes_and_a_wrong_node_count_fails(tmp_path):
    op = {"cmd": "wavefunction", "tau": -1, "lam": 0.01, "units": "hartree", "n": 3, "l": 0,
          "format": "json"}
    proc, outputs = _run_cli(op, tmp_path)
    assert checks.check_cli(op, proc.returncode, proc.stderr, outputs) is None
    payload = json.loads(outputs[0])
    payload["nodes"] += 1
    reason = checks.check_cli(op, 0, "", [json.dumps(payload)])
    assert reason.startswith("count_nodes")
    payload["nodes"] -= 1
    payload["energy"] *= 1 + 1e-9
    assert checks.check_cli(op, 0, "", [json.dumps(payload)]).startswith("state energy")


def test_real_cheap_commands_pass(tmp_path):
    for op in workloads.cli_items(5, 12):
        if op["cmd"] == "wavefunction":
            continue
        proc, outputs = _run_cli(op, tmp_path)
        assert checks.check_cli(op, proc.returncode, proc.stderr, outputs) is None, op
