"""Spans around calls into euph's modules, recorded from outside the package.

``Tracer.install`` replaces public functions on the euph modules with
wrappers (module-attribute substitution), so every caller that looks the
name up on its module, inside the package too, goes through a span.  Nothing
under ``src/`` changes.  A span records its name, start, end, parent and
whether it raised; spans stay in memory and are written out at the end.

Self time is a span's duration minus the durations of its direct children.
Children always run in the parent's thread, so they never overlap.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time

# Wrapped functions: (module, attribute, span name).  ``poly_coefficients``
# is bound by name into ``wavefunctions`` too, so both names get one wrapper.
TARGETS = [
    ("spectra", "energy", "spectra.energy"),
    ("spectra", "energy_via_nu", "spectra.energy_via_nu"),
    ("nu_engine", "reduce", "nu_engine.reduce"),
    ("nu_engine", "solve_level", "nu_engine.solve_level"),
    ("polynomials", "poly_coefficients", "polynomials.poly_coefficients"),
    ("wavefunctions", "poly_coefficients", "polynomials.poly_coefficients"),
    ("wavefunctions", "build_state", "wavefunctions.build_state"),
    ("wavefunctions", "radial_overlap", "wavefunctions.radial_overlap"),
    ("wavefunctions", "radial_eval", "wavefunctions.radial_eval"),
    ("wavefunctions", "count_nodes", "wavefunctions.count_nodes"),
    ("oracle", "fd_spectrum", "oracle.fd_spectrum"),
    ("oracle", "eigh_tridiagonal", "oracle.eigh"),
    ("oracle", "crosscheck_report", "oracle.crosscheck_report"),
]

# Span record fields.
NAME, START, END, PARENT, FAILED, EXTRA = range(6)


class _IntegrateProxy:
    """Stands in for ``wavefunctions.integrate`` with a traced ``quad``."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []  # one span list per thread that opened a span
        self._saved = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self.threads.append(state[0])
        return state

    def _open(self, name):
        spans, stack = self._state()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = time.perf_counter()
        return rec, stack

    @staticmethod
    def _close(rec, stack):
        rec[END] = time.perf_counter()
        stack.pop()

    def wrap(self, name, fn, extra=None):
        """``fn`` inside a span; ``extra(args)`` adds a count to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, stack = self._open(name)
            if extra is not None:
                rec[EXTRA] = extra(args)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                self._close(rec, stack)

        return traced

    def wrap_quad(self, quad):
        """scipy ``quad`` whose span counts the integrand evaluations."""

        @functools.wraps(quad)
        def traced(func, *args, **kwargs):
            rec, stack = self._open("wavefunctions.quad")

            def counted(*a):
                rec[EXTRA] += 1
                return func(*a)

            try:
                return quad(counted, *args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                self._close(rec, stack)

        return traced

    def install(self, modules: dict):
        """Substitute the TARGETS on ``modules`` (short name -> module)."""
        wrappers = {}
        for mod, attr, name in TARGETS:
            original = getattr(modules[mod], attr)
            if name not in wrappers:
                extra = (lambda args: len(args[0])) if name == "oracle.eigh" else None
                wrappers[name] = self.wrap(name, original, extra)
            self._substitute(modules[mod], attr, wrappers[name])
        wf = modules["wavefunctions"]
        self._substitute(wf, "integrate", _IntegrateProxy(wf.integrate, self.wrap_quad(wf.integrate.quad)))

    def _substitute(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        """All spans as tab-separated lines: thread, index, parent, name, start, end, failed, extra."""
        with open(path, "a") as fh:
            for t, spans in enumerate(self.threads):
                for i, s in enumerate(spans):
                    fh.write(f"{t}\t{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{int(s[FAILED])}\t{s[EXTRA]}\n")

    def totals(self) -> dict:
        return span_totals(self.threads)


def span_totals(threads) -> dict:
    """Additive sums over span lists, so totals of several processes add up.

    Keys ``<name>.calls``, ``.self_s``, ``.fail``, ``.extra`` per span name,
    plus the sums behind the derived ratios in ``layer_metrics``.
    """
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    crosscheck_threads = {
        t for t, spans in enumerate(threads) if any(s[NAME] == "oracle.crosscheck_report" for s in spans)
    }
    for t, spans in enumerate(threads):
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        eigh_sizes = {}
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", dur - child_time[i])
            add(f"{name}.fail", int(s[FAILED]))
            add(f"{name}.extra", s[EXTRA])
            if name == "nu_engine.reduce" and _has_ancestor(spans, i, "spectra.energy_via_nu"):
                add("via_nu.reduce", 1)
            if name == "oracle.eigh":
                eigh_sizes.setdefault(s[PARENT], []).append((s[EXTRA], dur))
            if name == "oracle.crosscheck_report":
                add("crosscheck.wall_s", dur)
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            # Cell work: direct children of a sweep in its own thread, and
            # whole top-level calls in pool threads.
            if parent == "oracle.crosscheck_report" or (
                parent is None and crosscheck_threads and t not in crosscheck_threads
            ):
                add("crosscheck.cell_busy_s", dur)
        # Within one fd_spectrum, solves on grids larger than its smallest
        # are the Richardson refinements.
        for solves in eigh_sizes.values():
            base = min(size for size, _ in solves)
            add("eigh.total_s", sum(d for _, d in solves))
            add("eigh.refine_s", sum(d for size, d in solves if size > base))
    return out


def _has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(names, totals: dict, cli_children=(), items_ok_per_s=0.0,
                  untraced_items_ok_per_s=0.0) -> dict:
    """The per-layer metrics ``names`` (BENCHMARK.json's), 0 where a layer
    did not run; a name this module cannot compute raises KeyError.

    ``<span>.calls``, ``.self_s`` and ``.fail`` come straight from the
    totals.  ``cli_children`` holds one dict per traced CLI process with its
    ``import_s``, ``scipy_s``, ``numpy_s`` and ``main_s``; the cli metrics
    are their medians.
    """
    def g(key):
        return totals.get(key, 0)

    values = {}
    for key, field in (("import_s", "cli.import_s"), ("scipy_s", "cli.import_scipy_s"),
                       ("numpy_s", "cli.import_numpy_s"), ("main_s", "cli.main_s")):
        values[field] = statistics.median(c[key] for c in cli_children) if cli_children else 0.0
    values["nu_engine.reduce.per_level"] = _ratio(g("via_nu.reduce"), g("spectra.energy_via_nu.calls"))
    values["wavefunctions.quad.integrand_evals"] = g("wavefunctions.quad.extra")
    values["oracle.eigh.points"] = g("oracle.eigh.extra")
    values["oracle.eigh.refine_share"] = _ratio(g("eigh.refine_s"), g("eigh.total_s"))
    values["oracle.crosscheck_report.wall_s"] = g("crosscheck.wall_s")
    values["oracle.pool_overlap"] = _ratio(g("crosscheck.cell_busy_s"), g("crosscheck.wall_s"))
    values["trace.items_ok_per_s"] = items_ok_per_s
    values["trace.items_ok_per_s_untraced"] = untraced_items_ok_per_s
    values["trace.overhead_share"] = 1.0 - _ratio(items_ok_per_s, untraced_items_ok_per_s)
    spanned = {name for _, _, name in TARGETS} | {"wavefunctions.quad"}
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "fail") and base in spanned:
            out[name] = g(name)
        else:
            out[name] = values[name]
    return out
