"""End-to-end metrics from per-op records, and the tail-percentile rule."""

from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def tail(samples, beyond: int = TAIL_BEYOND):
    """(value, percentile, samples beyond it) of the highest percentile that
    has at least ``beyond`` samples above it.

    With ``beyond`` samples or fewer no percentile qualifies; the median is
    returned then, with the smaller count that lies above it, so the caller
    can see the tail is unresolved.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= beyond:
        k = (n - 1) // 2
        return statistics.median(xs), 50.0, n - 1 - k
    k = n - 1 - beyond
    return xs[k], 100.0 * (k + 1) / n, beyond


def summarize(ops, setup_samples, peak_rss_kib):
    """End-to-end metrics and run facts from the timed pass.

    ``ops`` holds one dict per attempted op: ``latency`` (s), ``ok``,
    ``items`` and ``items_ok``.  An op that raised, crashed or timed out is
    attempted and not ok, and all its items count as attempted and failed,
    so ``ok_ratio`` is over attempted items.  An item is an op except on
    verify-sweep, where it is a crosscheck cell and a wrong cell fails.
    The latency metrics are over the ops that passed their own check.
    """
    items = sum(o["items"] for o in ops)
    items_ok = sum(o["items_ok"] for o in ops)
    ok_lat = [o["latency"] for o in ops if o["ok"]]
    busy = sum(o["latency"] for o in ops)
    value, pct, above = tail(ok_lat)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_ok_p50_s": statistics.median(ok_lat) if ok_lat else 0.0,
        "op_ok_tail_s": value,
        "items_ok_per_s": items_ok / busy if busy else 0.0,
        "ok_ratio": items_ok / items if items else 0.0,
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }
    facts = {
        "attempted": items,
        "failed": items - items_ok,
        "ops": len(ops),
        "ops_ok": len(ok_lat),
        "timed_s": busy,
        "tail_percentile": pct,
        "tail_samples_beyond": above,
        "setup_samples": list(setup_samples),
    }
    return metrics, facts


def result_line(correct: bool, attempted: int, failed: int, values: dict, specs) -> dict:
    """The result object; ``specs`` are BENCHMARK.json's metric entries."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in specs},
    }
