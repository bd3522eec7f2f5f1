"""The three workloads: seeded item lists, the ops that run them, their checks.

Run as a script, this is one fresh workload process, started by ``run.py``:

    python3 perfbench/workloads.py --workload state-jobs --seed 1 --seconds 20 \
        --trace 0 --t0 <time.monotonic() at launch> [--setup-only]

It imports, generates its items, runs an untimed warm-up, and reports its
set-up time (from ``--t0``).  Unless ``--setup-only``, it then runs every
item once, in order, as a closed loop with one client, checks each result
against ``checks`` and prints one JSON line with the per-op records.

Item counts are fixed by ``--seconds`` (times a nominal rate per workload),
never by a clock, so a seed always yields the same list and every count
repeats exactly.  Lambda values are stratified in log space, so the share of
items that land in a given range barely moves between seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks

WORKLOADS = ("cli-cold", "verify-sweep", "state-jobs")

# Nominal items per second on a 2-core x86 host, used only to size the list.
ITEMS_PER_SECOND = {"cli-cold": 1.15, "verify-sweep": 1.0, "state-jobs": 15.0}

CHEAP_COMMANDS = ("spectrum", "tables", "figure1", "figure2", "bound")
WAVEFUNCTION_SHARE = 0.2
CLI_TIMEOUT_S = 120.0

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"


def item_count(workload: str, seconds: float) -> int:
    return max(4, round(seconds * ITEMS_PER_SECOND[workload]))


def _strata(rng: random.Random, k: int):
    """One uniform draw in each of k equal strata of [0, 1), ascending."""
    return [(i + rng.random()) / k for i in range(k)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


SI_A0 = checks.bohr_radius("si")


def _lambda_top(tau: int, n: int) -> float:
    """Largest Hartree lambda drawn for a level: 0.1, and for dS only bound
    levels (below the README's tail bound)."""
    return 1e-1 if tau == -1 else min(1e-1, checks.ds_lambda_max(n) * (1.0 - 1e-9))


def _deformation(u, special, rng, hi=1e-1):
    """(units, lambda) for a draw u.

    Plain ops use Hartree lambda in [1e-6, hi].  Special ops take Hartree
    lambda in [1e-18, 1e-14], around the ~3e-16 the spectroscopic bound
    implies, and half of them pass it in SI (lambda / a0^2).
    """
    if not special:
        return "hartree", _log_uniform(u, 1e-6, hi)
    lam = _log_uniform(u, 1e-18, 1e-14)
    return ("si", lam / SI_A0**2) if rng.random() < 0.5 else ("hartree", lam)


def cli_items(seed: int, count: int):
    rng = random.Random(f"cli-cold:{seed}")
    n_wave = round(WAVEFUNCTION_SHARE * count)
    kinds = ["wavefunction"] * n_wave + [CHEAP_COMMANDS[i % 5] for i in range(count - n_wave)]
    ops = []
    for cmd in CHEAP_COMMANDS + ("wavefunction",):
        k = kinds.count(cmd)
        # A fixed number of special ops per command keeps ok_ratio seed-free.
        special = set(rng.sample(range(k), round(k / 4))) if cmd != "tables" else set()
        for i, u in enumerate(_strata(rng, k)):
            ops.append(_cli_op(cmd, u, i in special, rng))
    rng.shuffle(ops)
    return ops


def _cli_op(cmd, u, special, rng):
    if cmd == "tables":
        return {"cmd": cmd, "n_max": 2 + int(7 * u), "format": "csv"}
    if cmd == "spectrum":
        units, lam = _deformation(u, special, rng)
        return {"cmd": cmd, "tau": rng.choice((1, -1)), "lam": lam, "units": units,
                "n_max": rng.randint(2, 6), "format": "csv"}
    if cmd == "figure1":
        units, lam = _deformation(u, special, rng)
        a0 = checks.bohr_radius(units)
        return {"cmd": cmd, "lam": lam, "units": units,
                "range": (0.5 * a0, 20.0 * a0, rng.randint(50, 200)), "format": "csv"}
    if cmd == "figure2":
        units = "si" if special else "hartree"
        top = _log_uniform(u, 1e-3, 1e-1) / checks.bohr_radius(units) ** 2
        levels = sorted(rng.sample(range(1, 5), rng.randint(1, 3)))
        return {"cmd": cmd, "units": units, "range": (0.0, top, rng.randint(50, 200)),
                "levels": levels, "format": "csv"}
    if cmd == "bound":
        return {"cmd": cmd, "precision": _log_uniform(u, 1e-18, 1e-10),
                "units": "si" if special else "hartree", "format": "csv"}
    tau, n = rng.choice((1, -1)), rng.randint(1, 4)
    l = rng.randrange(n)
    units, lam = _deformation(u, special, rng, _lambda_top(tau, n))
    return {"cmd": cmd, "tau": tau, "lam": lam, "units": units, "n": n, "l": l, "format": "json"}


def cli_args(op: dict, workdir: str):
    """Command line (after ``python -m euph.cli``) for one generated op."""
    out = ["--output", f"{workdir}/out.{op['format']}"]
    fmt = ["--format", op["format"]]
    model = ["--model", "ds" if op.get("tau") == 1 else "ads"]
    cmd = op["cmd"]
    if cmd == "tables":
        return ["tables", "--n-max", str(op["n_max"]), *fmt, "--output-dir", workdir]
    if cmd == "spectrum":
        return ["spectrum", *model, "--lambda", repr(op["lam"]), "--n-max", str(op["n_max"]),
                "--units", op["units"], *fmt, *out]
    if cmd == "figure1":
        a, b, c = op["range"]
        return ["figure1", "--lambda", repr(op["lam"]), "--dx-range", f"{a!r}:{b!r}:{c}",
                "--units", op["units"], *fmt, *out]
    if cmd == "figure2":
        a, b, c = op["range"]
        return ["figure2", "--lambda-range", f"{a!r}:{b!r}:{c}",
                "--levels", ",".join(map(str, op["levels"])), "--units", op["units"], *fmt, *out]
    if cmd == "bound":
        return ["bound", "--precision", repr(op["precision"]), "--units", op["units"], *fmt, *out]
    return ["wavefunction", *model, "--lambda", repr(op["lam"]), "--n", str(op["n"]),
            "--l", str(op["l"]), "--units", op["units"], *fmt, *out]


def verify_items(seed: int, count: int):
    """Sweeps of two lambdas, log-stratified over [1e-4, 3e-2].

    The 2*count strata are split into a low and a high half; sweep i takes
    the i-th stratum of each half, and n_max alternates 3, 4 along i.
    """
    rng = random.Random(f"verify-sweep:{seed}")
    u = _strata(rng, 2 * count)
    ops = []
    for i in range(count):
        lams = [_log_uniform(u[i], 1e-4, 3e-2), _log_uniform(u[count + i], 1e-4, 3e-2)]
        rng.shuffle(lams)
        ops.append({"lambdas": lams, "n_max": 3 + i % 2})
    rng.shuffle(ops)
    return ops


LEVELS = [(tau, n, l) for tau in (1, -1) for n in range(1, 5) for l in range(n)]


def state_items(seed: int, count: int):
    """Level jobs: every (tau, n, l) with n <= 4 equally often.

    Per level, Hartree lambda is log-stratified over [1e-18, 1e-1] (dS only
    up to the README tail bound) and every fourth stratum, from the second,
    runs in SI.  Fixing which strata run in SI keeps the SI share of each
    lambda range, and so ok_ratio, nearly the same from seed to seed.
    """
    rng = random.Random(f"state-jobs:{seed}")
    per = max(1, round(count / len(LEVELS)))
    jobs = []
    for tau, n, l in LEVELS:
        hi = _lambda_top(tau, n)
        for i, u in enumerate(_strata(rng, per)):
            lam = _log_uniform(u, 1e-18, hi)
            units = "si" if i % 4 == 1 else "hartree"
            if units == "si":
                lam /= SI_A0**2
            jobs.append({"tau": tau, "n": n, "l": l, "lam": lam, "units": units})
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"cli-cold": cli_items, "verify-sweep": verify_items, "state-jobs": state_items}

# Fixed, seed-independent warm-up items: they finish lazy set-up (imports,
# bytecode caches, first LAPACK and quadrature calls) without touching the
# timed items, so no cache holds a timed item's result before it runs.
WARMUP = {
    "cli-cold": [{"cmd": "wavefunction", "tau": -1, "lam": 0.01, "units": "hartree",
                  "n": 2, "l": 0, "format": "json"}],
    "verify-sweep": [{"lambdas": [1e-2], "n_max": 2}],
    "state-jobs": [{"tau": tau, "n": n, "l": l, "lam": 1e-3, "units": "hartree"}
                   for tau in (1, -1) for n, l in ((2, 1), (3, 0))],
}


def generate(workload: str, seed: int, count: int):
    """The item list, generated twice to prove it is a function of the seed."""
    items = GENERATORS[workload](seed, count)
    if GENERATORS[workload](seed, count) != items:
        raise RuntimeError(f"{workload}: item list is not reproducible from seed {seed}")
    return items


# ---------------------------------------------------------------------------
# Ops.  Each runner returns a record {ok, items, items_ok, crash, reason};
# ``crash`` marks an untyped exception or a traceback.


class Failure:
    """A step that raised: ``typed`` when it raised euph's own error."""

    def __init__(self, exc, typed):
        self.typed = typed
        self.text = f"{type(exc).__name__}: {exc}"[:200]


class InProcess:
    """Ops that call the imported package; subclasses say which."""

    def __init__(self):
        from euph import errors, model, nu_engine, oracle, polynomials, spectra, wavefunctions

        self.errors, self.model = errors, model
        self.modules = {"spectra": spectra, "nu_engine": nu_engine, "polynomials": polynomials,
                        "wavefunctions": wavefunctions, "oracle": oracle}
        self.units = {"hartree": model.HARTREE, "si": model.SI}

    def step(self, fn):
        try:
            return fn()
        except self.errors.EuphError as exc:
            return Failure(exc, True)
        except Exception as exc:  # an untyped error is a crash, recorded per op
            return Failure(exc, False)

    def before(self):
        pass


class Sweeps(InProcess):
    def prepare(self, item):
        return None

    def run(self, item, _):
        oracle = self.modules["oracle"]
        return self.step(lambda: oracle.crosscheck_report(item["lambdas"], item["n_max"]))

    def check(self, item, report):
        return check_sweep(item, report)


class Jobs(InProcess):
    def prepare(self, item):
        """The 1000 radii of a level job: out to (8 n^2 + 10) a0, inside the AdS wall."""
        import numpy as np

        a0 = checks.bohr_radius(item["units"])
        hi = (8.0 * item["n"] ** 2 + 10.0) * a0
        if item["tau"] == -1:
            hi = min(hi, (1.0 - 1e-6) / math.sqrt(item["lam"]))
        return np.linspace(1e-3 * a0, hi, 1000)

    def run(self, item, radii):
        m, sp, wf = self.model, self.modules["spectra"], self.modules["wavefunctions"]
        model = m.DeformationModel(item["tau"], item["lam"], self.units[item["units"]])
        qn = m.QuantumNumbers(item["n"], item["l"])
        out = {
            "energy": self.step(lambda: sp.energy(model, qn).energy),
            "energy_via_nu": self.step(lambda: sp.energy_via_nu(model, qn)),
            "build_state": self.step(lambda: wf.build_state(model, qn)),
        }
        state = out["build_state"]
        if not isinstance(state, Failure):
            out["count_nodes"] = self.step(lambda: wf.count_nodes(state))
            out["radial_eval"] = self.step(lambda: wf.radial_eval(state, radii))
            out["radial_overlap"] = self.step(lambda: wf.radial_overlap(state, state))
        return out

    def check(self, item, out):
        return check_job(item, out)


def check_sweep(item, report):
    """Each cell is an item that passes when its verdict matches
    ``checks.check_cell``; wrong cells count against ``ok_ratio`` and
    ``items_ok_per_s`` and appear as ``cell_reasons``.

    The op itself passes, and its latency is timed, when it is a real sweep:
    it returned exactly the requested cells.  At the seed nearly every sweep
    holds some wrong cell, so an all-cells rule would leave no op to time.
    """
    cells = checks.expected_cells(item["lambdas"], item["n_max"])
    record = {"items": len(cells), "items_ok": 0, "crash": False, "reason": None, "cell_reasons": []}
    if isinstance(report, Failure):
        record.update(ok=False, crash=not report.typed, reason=report.text)
        return record
    keys = [(r["model"], r["lambda"], r["n"], r["l"]) for r in report.rows]
    record["ok"] = sorted(keys) == sorted(cells)
    if not record["ok"]:
        record["reason"] = "cells differ from the requested sweep"
        return record
    reasons = [checks.check_cell(row) for row in report.rows]
    record["items_ok"] = sum(r is None for r in reasons)
    record["cell_reasons"] = [r for r in reasons if r is not None]
    return record


def check_job(item, out):
    tau, lam, n, l, units = item["tau"], item["lam"], item["n"], item["l"], item["units"]
    failed = [v for v in out.values() if isinstance(v, Failure)]
    reason = failed[0].text if failed else None
    if reason is None:
        state = out["build_state"]
        reason = (
            checks.check_energy(tau, lam, n, l, units, out["energy"])
            or checks.check_via_nu(tau, lam, n, l, units, out["energy_via_nu"])
            or checks.check_state(tau, lam, n, l, units, energy=state.energy,
                                  nodes=out["count_nodes"], norm=out["radial_overlap"],
                                  samples=out["radial_eval"].tolist())
        )
    return {"ok": reason is None, "items": 1, "items_ok": int(reason is None),
            "crash": any(not f.typed for f in failed), "reason": reason}


class Cli:
    """Runs each cli-cold op as a fresh ``python -m euph.cli`` process.

    Traced, the process is ``python -X importtime cli_child.py`` instead; it
    writes its span totals and import times to a file this class collects.
    """

    def __init__(self, root: Path, traced: bool):
        self.traced = traced
        self.workdir = str(root / WORK_DIR / f"cli-{os.getpid()}")
        self.spans_path = root / WORK_DIR / "spans-cli-cold.tsv"
        self.children = []  # traced: one summary per CLI process

    def before(self):
        """An empty work directory, so a missing output never reads a stale file."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def prepare(self, item):
        return cli_args(item, self.workdir)

    def run(self, item, args):
        if self.traced:
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *args]
        else:
            argv = [sys.executable, "-m", "euph.cli", *args]
        env = dict(os.environ, PERFBENCH_SUMMARY=f"{self.workdir}/summary.json")
        try:
            proc = subprocess.run(argv, cwd=self.workdir, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        return proc

    def check(self, item, proc):
        if proc is None:
            return {"ok": False, "items": 1, "items_ok": 0, "crash": False, "reason": "timeout"}
        outputs = []
        for path in checks.cli_output_files(item, self.workdir):
            try:
                outputs.append(Path(path).read_text())
            except FileNotFoundError:
                outputs.append(None)
        reason = checks.check_cli(item, proc.returncode, proc.stderr, outputs)
        if self.traced:
            self._collect(proc.stderr)
        return {"ok": reason is None, "items": 1, "items_ok": int(reason is None),
                "crash": reason == "traceback", "reason": reason}

    def _collect(self, stderr):
        try:
            summary = json.loads(Path(self.workdir, "summary.json").read_text())
        except FileNotFoundError:
            return
        summary.update(import_self_times(stderr))
        # Prefix the thread column with the process number.
        lines = Path(self.workdir, "summary.json.spans.tsv").read_text().splitlines(keepends=True)
        with open(self.spans_path, "a") as fh:
            fh.writelines(f"{len(self.children)}.{line}" for line in lines)
        self.children.append(summary)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


RUNNERS = {"verify-sweep": Sweeps, "state-jobs": Jobs}


def import_self_times(stderr: str) -> dict:
    """Summed self import time of numpy's and scipy's modules, from -X importtime."""
    totals = {"numpy_s": 0.0, "scipy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        top = name.split(".", 1)[0]
        if top in ("numpy", "scipy"):
            totals[f"{top}_s"] += int(parts[0]) * 1e-6
    return totals


def euph_location(root: Path) -> str:
    """Where ``euph`` resolves; exits unless that is the checkout's src/."""
    import importlib.util

    spec = importlib.util.find_spec("euph")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    src = (root / "src").resolve()
    if origin is None or src not in origin.parents:
        sys.exit(f"euph resolves to {origin}, not to the checkout under test ({src})")
    return str(origin)


# ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    root = Path.cwd()

    location = euph_location(root)
    runner = Cli(root, bool(args.trace)) if args.workload == "cli-cold" else RUNNERS[args.workload]()
    items = generate(args.workload, args.seed, item_count(args.workload, args.seconds))
    inputs = [runner.prepare(item) for item in items]

    try:
        result = run(args, runner, items, inputs, location)
    finally:
        if isinstance(runner, Cli):
            runner.close()
    print(json.dumps(result))


def run(args, runner, items, inputs, location):
    for item in WARMUP[args.workload]:
        runner.before()
        runner.check(item, runner.run(item, runner.prepare(item)))
    if isinstance(runner, Cli):
        runner.children.clear()
        runner.spans_path.unlink(missing_ok=True)
    tracer = None
    if args.trace and not isinstance(runner, Cli):
        from spans import Tracer

        tracer = Tracer()
        tracer.install(runner.modules)
    gc.collect()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "euph": location}
    if not args.setup_only:
        result.update(timed_pass(runner, items, inputs))
        if tracer is not None:
            tracer.uninstall()
            spans_path = Path.cwd() / WORK_DIR / f"spans-{args.workload}.tsv"
            spans_path.parent.mkdir(exist_ok=True)
            spans_path.unlink(missing_ok=True)
            tracer.write(spans_path)
            result["totals"] = tracer.totals()
        if isinstance(runner, Cli) and runner.traced:
            result["cli_children"] = runner.children
            result["totals"] = sum_totals(c["totals"] for c in runner.children)
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # One CLI process runs at a time, so the tree's peak is at most the
        # client's peak plus the largest child's.
        result["peak_rss_kib"] = self_kib + child_kib
    return result


def timed_pass(runner, items, inputs):
    ops, reasons, crashes = [], {}, 0
    for item, prepared in zip(items, inputs):
        runner.before()
        t = time.perf_counter()
        out = runner.run(item, prepared)
        latency = time.perf_counter() - t
        record = runner.check(item, out)
        ops.append({"latency": latency, "ok": record["ok"], "items": record["items"],
                    "items_ok": record["items_ok"]})
        crashes += record["crash"]
        for reason in filter(None, [record["reason"], *record.get("cell_reasons", ())]):
            key = reason.split(":")[0][:60]
            reasons[key] = reasons.get(key, 0) + 1
    return {"ops": ops, "crashes": crashes, "fail_reasons": reasons}


def sum_totals(dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


if __name__ == "__main__":
    main()
