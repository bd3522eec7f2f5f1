"""The benchmark tracer's wrapped names exist on the real euph modules.

``perfbench/spans.py`` looks each target up with a bare ``getattr``, and its
own tests install it only on stand-in modules, so a renamed or deleted
function would first fail a ``--trace 1`` run.  This installs it on the
package itself, imported by path without touching the benchmark's files.
"""

import importlib.util
from pathlib import Path

from euph import integrate, nu_engine, oracle, polynomials, spectra, wavefunctions
from euph.model import DeformationModel, QuantumNumbers

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = {"spectra": spectra, "nu_engine": nu_engine, "polynomials": polynomials,
           "wavefunctions": wavefunctions, "oracle": oracle}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_is_restored():
    spans = _spans()
    for mod, attr, name in spans.TARGETS:
        assert callable(getattr(MODULES[mod], attr)), name
    assert wavefunctions.integrate is integrate and callable(integrate.quad)
    originals = {(mod, attr): getattr(MODULES[mod], attr) for mod, attr, _ in spans.TARGETS}

    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        for mod, attr, _ in spans.TARGETS:
            assert getattr(MODULES[mod], attr) is not originals[mod, attr]
        assert wavefunctions.integrate.quad is not integrate.quad
        assert wavefunctions.integrate.gauss_jacobi_u is integrate.gauss_jacobi_u
        # a traced state job runs through the proxy
        state = wavefunctions.build_state(DeformationModel(1, 1e-3), QuantumNumbers(2, 1))
        assert abs(wavefunctions.radial_overlap(state, state) - 1.0) <= 1e-12
    finally:
        tracer.uninstall()
    assert {(mod, attr): getattr(MODULES[mod], attr) for mod, attr, _ in spans.TARGETS} == originals
    assert wavefunctions.integrate is integrate
    totals = tracer.totals()
    assert totals["wavefunctions.build_state.calls"] == 1
    assert totals["wavefunctions.radial_overlap.calls"] == 1
    assert totals.get("wavefunctions.quad.calls", 0) == 0
