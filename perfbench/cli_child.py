"""Traced stand-in for ``python -m euph.cli``: same arguments, same exit code.

Times ``import euph.cli`` and ``main``, records spans around the package's
public functions (see ``spans``), and writes both to the JSON file named by
PERFBENCH_SUMMARY.  Run it under ``python -X importtime`` so the caller can
split the import time by package.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import euph.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

from euph import nu_engine, oracle, polynomials, spectra, wavefunctions  # noqa: E402
from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install({"spectra": spectra, "nu_engine": nu_engine, "polynomials": polynomials,
                "wavefunctions": wavefunctions, "oracle": oracle})
code = 1
t1 = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    main_s = time.perf_counter() - t1
    tracer.uninstall()
    summary = {"import_s": import_s, "main_s": main_s, "euph": cli.__file__, "totals": tracer.totals()}
    with open(os.environ["PERFBENCH_SUMMARY"], "w") as fh:
        json.dump(summary, fh)
    tracer.write(os.environ["PERFBENCH_SUMMARY"] + ".spans.tsv")
sys.exit(code)
