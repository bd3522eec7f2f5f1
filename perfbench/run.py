"""Benchmark entry point.  Run from the root of a checkout:

    python3 perfbench/run.py --workload <cli-cold|verify-sweep|state-jobs> \
        --seed <n> --seconds <s> --trace <0|1>

Every workload runs in fresh interpreters started here (``workloads.py``),
with BLAS pools at one thread and EUPH_THREADS at the core count, on the
``euph`` under ``src/`` of the checkout.

--trace 0: five fresh processes each import, generate and warm up; their
median is ``setup_s``.  The middle one also runs the timed pass, untraced,
which gives the other end-to-end metrics.

--trace 1: two fresh processes run the same full item list, one untraced and
one with spans around every layer; the second gives the per-layer metrics,
the pair the tracing overhead.

Metric names and units are read from BENCHMARK.json next to this directory.

The last stdout line is the result object; the line before it holds the run
facts (seed, host, versions, tail percentile, failure reasons).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
BUDGET_S = 170.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["EUPH_THREADS"] = str(os.cpu_count() or 1)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env, deadline, trace, extra):
    """One fresh workload process; its JSON line, or exit on any failure."""
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--t0", repr(t0), *extra]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"workload process exceeded the {BUDGET_S:.0f} s budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def host_speed_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed at this moment.

    On shared hosts the same work can take 15-30% longer from one minute to
    the next; this lets a reader tell such a swing from a change in euph.
    """
    times = []
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def host_facts() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "loadavg": os.getloadavg(),
        "speed_s": host_speed_s(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "euph" / "__init__.py").is_file():
        print(f"no euph package under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    env = child_env(root)
    deadline = time.monotonic() + BUDGET_S
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "host_before": host_facts()}

    if args.trace == 0:
        runs = [run_child(args, env, deadline, 0, [] if i == SETUP_RUNS // 2 else ["--setup-only"])
                for i in range(SETUP_RUNS)]
        timed = runs[SETUP_RUNS // 2]
        values, run_facts = metrics.summarize(timed["ops"], [r["setup_s"] for r in runs],
                                              timed["peak_rss_kib"])
        specs = bench["end_to_end"]
    else:
        untraced = run_child(args, env, deadline, 0, [])
        timed = run_child(args, env, deadline, 1, [])
        plain, _ = metrics.summarize(untraced["ops"], [untraced["setup_s"]], 0)
        traced, run_facts = metrics.summarize(timed["ops"], [timed["setup_s"]], 0)
        specs = bench["per_layer"]
        values = spans.layer_metrics(
            [m["name"] for m in specs],
            timed["totals"],
            cli_children=timed.get("cli_children", ()),
            items_ok_per_s=traced["items_ok_per_s"],
            untraced_items_ok_per_s=plain["items_ok_per_s"],
        )

    facts.update(run_facts)
    facts.update(euph=timed["euph"], crashes=timed["crashes"], fail_reasons=timed["fail_reasons"],
                 host_after=host_facts())
    print(json.dumps({"facts": facts}))
    result = metrics.result_line(timed["crashes"] == 0, run_facts["attempted"],
                                 run_facts["failed"], values, specs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
