"""Golden digest corpus: fixed CLI invocations and the sha256 of what each writes.

The corpus covers every command, both formats, both unit presets, lambda
from 1e-73 to 0.3 a0^-2, and the exit-2 and exit-3 paths.  Each invocation
runs in-process through ``euph.cli.main`` in an empty directory, with
warnings raised as errors; the directory's path is written ``{tmp}`` in
every output, since the figure plot scripts embed the data path.

The mesh eigenvalues behind ``verify`` depend on the LAPACK build, so its
``e_oracle`` and ``rel_dev`` columns are masked before hashing and kept as
values, which ``moved`` checks to a tolerance relative to E with an
absolute floor for the E = 0 rows at lam_c.  The rel_dev maxima in its
summary and stdout line are masked when they equal the maxima of the rows.

Run from the repo root to list the entries that moved against the manifest
(exit 1 if any did); ``--write`` rewrites the manifest:

    PYTHONPATH=src python tests/golden_corpus.py [--write]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from euph import cli
from euph.model import SI

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
TMP = "{tmp}"

# verify's oracle columns: |change| <= RTOL |E| + ATOL_HA E_h, and for CSV
# one unit in the sixth significant digit of the value on top
RTOL = 1e-10
ATOL_HA = 1e-11
CSV_DIGIT = 1e-5

INVOCATIONS = [
    # spectrum
    "spectrum --model ds --lambda 0.01",
    "spectrum --model ds --lambda 0.01 --format json",
    "spectrum --model ads --lambda 0.3 --n-max 4",
    "spectrum --model ads --lambda 0.3 --n-max 4 --format json",
    "spectrum --model ds --lambda 1e-73 --n-max 3 --format json",
    "spectrum --model ads --lambda 1e-73 --n-max 2",
    "spectrum --model ds --lambda 1e15 --units si --n-max 3",
    "spectrum --model ads --lambda 1e15 --units si --n-max 3 --format json",
    "spectrum --model ads --lambda 1e-40 --units si --n-max 2 --output {tmp}/spec.json --format json",
    "spectrum --model ads --lambda 1e-8 --n-max 20 --format json",
    "spectrum --model ds --lambda 0",
    "spectrum --model ads --lambda 0.01 --n-max 0",
    "spectrum --model ads --lambda 0.01 --output {tmp}/missing/spec.csv",
    # tables
    "tables",
    "tables --n-max 4 --format json",
    "tables --n-max 1",
    "tables --n-max 6 --format json --output-dir {tmp}",
    # figure1
    "figure1 --lambda 0.04 --dx-range 0.5:20:50",
    "figure1 --lambda 0.04 --dx-range 0.5:20:50 --format json",
    "figure1 --lambda 0.3 --dx-range 0.1:4:7 --output {tmp}/f1.csv",
    "figure1 --lambda 1e-73 --dx-range 1:1e30:5 --format json",
    "figure1 --lambda 1e15 --units si --dx-range 1e-11:1e-9:20",
    "figure1 --lambda 1e15 --units si --dx-range 1e-11:1e-9:20 --format json",
    "figure1 --lambda 0.04 --dx-range=-1:2:4",
    "figure1 --lambda 0.04 --dx-range 1:2",
    # figure2
    "figure2",
    "figure2 --lambda-range 0:0.3:31 --levels 1,2,3,4 --format json",
    "figure2 --lambda-range 1e-73:1e-70:4 --levels 2 --output {tmp}/f2.csv",
    "figure2 --units si --lambda-range 0:1e15:11 --levels 1,2",
    "figure2 --units si --lambda-range 0:1e15:11 --levels 1,2 --format json",
    "figure2 --levels=",
    # wavefunction
    "wavefunction --model ds --lambda 0.01 --n 2 --l 0",
    "wavefunction --model ds --lambda 0.01 --n 2 --l 0 --samples 200 --format json",
    "wavefunction --model ads --lambda 0.01 --n 3 --l 1 --samples 300",
    "wavefunction --model ads --lambda 0.3 --n 1 --l 0 --samples 100 --format json",
    "wavefunction --model ds --lambda 1e-73 --n 2 --l 1 --samples 50 --format json",
    "wavefunction --model ds --lambda 0.01 --n 2 --l 0 --units si --samples 100",
    "wavefunction --model ds --lambda 1e-18 --n 3 --l 0 --units si --samples 100 --format json",
    "wavefunction --model ads --lambda 1e-8 --n 14 --l 0 --samples 100 --format json",
    "wavefunction --model ds --lambda 1e-6 --n 20 --l 5 --samples 100 --format json",
    "wavefunction --model ads --lambda 1e19 --units si --n 4 --l 2 --samples 64 --output {tmp}/wf.csv",
    "wavefunction --model ds --lambda 0.01 --n 3 --l 1",
    "wavefunction --model ds --lambda 0.01 --n 3 --l 1 --format json",
    "wavefunction --model ds --lambda 0.05 --n 3 --l 0 --units si",
    "wavefunction --model ads --lambda 0.01 --n 1 --l 0 --samples 0",
    "wavefunction --model ds --lambda 1e-12 --n 40 --l 3 --format json",
    "wavefunction --model ds --lambda 3.7e-53 --units si --n 10 --l 0",
    # verify
    "verify --lambdas 0.001,0.01 --n-max 3",
    "verify --lambdas 0.001,0.01 --n-max 3 --format json",
    "verify --lambdas 1e-73,0.3 --n-max 2 --format json",
    "verify --lambdas 0.06 --n-max 4",
    "verify --lambdas 0.25,0.08333333333333333 --n-max 4 --format json",
    "verify --lambdas 1e19 --units si --n-max 3",
    "verify --lambdas 1e19,1e5 --units si --n-max 2 --format json --output {tmp}/v.json",
    "verify --lambdas=, --n-max 2",
    "verify --lambdas 0.01 --n-max 5",
    "verify --lambdas 1e-310 --n-max 2",
    "verify --lambdas 1e-300 --units si --n-max 2 --format json",
    "verify --lambdas 1e-290 --n-max 4",
    # bound
    "bound --precision 1e-15",
    "bound --precision 1e-15 --format json",
    "bound --precision 1e-10 --units hartree",
    "bound --precision 1e-10 --units hartree --format json --output {tmp}/b.json",
    "bound --precision=nan",
]

_MAXIMA = re.compile(r"max rel dev ds=(\S*) ads=(\S*),")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _num(cell):
    return float(cell) if cell else None


def _verify_rows(text, is_json):
    """Masked text, the rows' (e_closed, e_oracle, rel_dev), and the
    rows' rel_dev maxima over 'ok' cells by model."""
    if is_json:
        payload = json.loads(text)
        rows = payload["rows"]
        kept = json.dumps(payload, indent=2) + "\n" == text
    else:
        lines = text.splitlines()
        cells = [ln.split(",") for ln in lines[1:]]
        # in the JSON row's places: model 0, e_closed to rel_dev 4-6, status 10
        rows = [[c[0], None, None, None, *map(_num, c[4:7]), None, None, None, c[10]] for c in cells]
        kept = "\n".join(lines) + "\n" == text
    maxima = {
        m: max((r[6] for r in rows if r[0] == m and r[10] == "ok" and r[6] is not None), default=None)
        for m in ("ds", "ads")
    }
    values = [[r[4], r[5], r[6]] for r in rows]
    if not kept:  # a layout the masking would not reproduce: hash it as it is
        return text, values, maxima
    if is_json:
        for r in rows:
            r[5] = r[6] = "*"
        for m, v in maxima.items():
            if payload["summary"][f"max_rel_dev_{m}"] == v:
                payload["summary"][f"max_rel_dev_{m}"] = "max of rows"
        return json.dumps(payload, indent=2) + "\n", values, maxima
    for c in cells:
        c[5] = c[6] = "*"
    return "\n".join([lines[0]] + [",".join(c) for c in cells]) + "\n", values, maxima


def _mask_maxima(stdout, maxima):
    match = _MAXIMA.search(stdout)
    if match is None or maxima is None:
        return stdout
    shown = [f"{maxima[m]:.6g}" if maxima[m] is not None else "" for m in ("ds", "ads")]
    if list(match.groups()) != shown:
        return stdout
    return stdout[: match.start()] + "max rel dev ds=* ads=*," + stdout[match.end():]


def run(command, root):
    """Run ``command`` in the empty directory ``root``; its exit code and digests."""
    root = Path(root)
    argv = command.replace(TMP, str(root)).split()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
    finally:
        os.chdir(cwd)

    files, oracle, maxima = {}, {}, None
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        text = path.read_text().replace(str(root), TMP)
        if argv[0] == "verify":
            text, oracle[name], maxima = _verify_rows(text, name.endswith(".json"))
        files[name] = _sha(text)
    entry = {
        "exit": code,
        "stdout": _sha(_mask_maxima(out.getvalue().replace(str(root), TMP), maxima)),
        "stderr": _sha(err.getvalue().replace(str(root), TMP)),
        "files": files,
    }
    if oracle:
        entry["oracle"] = oracle
    return entry


def _close(ref, got, e_h, digit):
    e_closed, e_oracle, rel = ref
    if (e_oracle is None) != (got[1] is None) or (rel is None) != (got[2] is None):
        return False
    if e_oracle is not None:
        bound = RTOL * abs(e_closed) + ATOL_HA * e_h + digit * abs(e_oracle)
        if not abs(got[1] - e_oracle) <= bound:
            return False
    if rel is not None:
        bound = RTOL + ATOL_HA * e_h / abs(e_closed) + digit * rel
        if not abs(got[2] - rel) <= bound:
            return False
    return True


def moved(command, ref, got):
    """The fields of entry ``got`` that differ from ``ref``; verify's oracle
    values count only beyond their tolerance."""
    fields = [k for k in ("exit", "stdout", "stderr", "files") if ref[k] != got[k]]
    e_h = SI.hartree_energy if "--units si" in command else 1.0
    for name, rows in ref.get("oracle", {}).items():
        new = got.get("oracle", {}).get(name, [])
        digit = 0.0 if name.endswith(".json") else CSV_DIGIT
        if len(new) != len(rows) or not all(_close(a, b, e_h, digit) for a, b in zip(rows, new)):
            fields.append(f"oracle {name}")
    return fields


def host():
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lapack": f"{lapack['name']} {lapack['version']}",
    }


def load():
    return json.loads(MANIFEST.read_text())


def main():
    write = "--write" in sys.argv[1:]
    old = load()["entries"] if MANIFEST.exists() else {}
    entries, changes = {}, []
    for command in INVOCATIONS:
        with tempfile.TemporaryDirectory() as root:
            entries[command] = run(command, root)
        if command not in old:
            changes.append(f"added: {command}")
        elif fields := moved(command, old[command], entries[command]):
            changes.append(f"moved: {command} ({', '.join(fields)})")
    changes += [f"removed: {command}" for command in old if command not in entries]
    print("\n".join(changes) or "no entry moved")
    if write:
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps({"host": host(), "entries": entries}, indent=1) + "\n")
        print(f"wrote {len(entries)} entries to {MANIFEST}")
    return 1 if changes and not write else 0


if __name__ == "__main__":
    sys.exit(main())
