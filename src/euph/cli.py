"""Command-line front end: spectra, tables, figure datasets, verification.

Every subcommand writes deterministic CSV (6 significant digits) or JSON
(full precision) files: fixed column order, comma separator, '.' decimal
point, no timestamps.  Figure data comes with a generated matplotlib script
so the core stays free of plotting dependencies.

Exit codes: 0 success, 2 validation error, 3 numerical-convergence failure.

The closed-form commands (spectrum, tables, figure1, figure2, bound) run on
the standard library alone; only wavefunction and verify import numpy,
inside their command functions.  No command loads scipy.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys

from . import spectra
from .errors import (
    ConvergenceError,
    DomainError,
    EuphError,
    MaxIterationsError,
    NonNormalizableError,
    ValidationError,
)
from .model import HARTREE, SI, DeformationModel, QuantumNumbers, uncertainty_floor

_UNITS = {"hartree": HARTREE, "si": SI}

# column-name unit suffixes per preset
_SUFFIX = {
    "hartree": {
        "energy": "hartree",
        "length": "bohr",
        "momentum": "au",
        "invlen2": "inv_bohr2",
    },
    "si": {
        "energy": "joule",
        "length": "m",
        "momentum": "kg_m_per_s",
        "invlen2": "inv_m2",
    },
}


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):  # numpy registers its integer types here
        return str(int(x))
    return f"{float(x):.6g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_range(text):
    try:
        start, stop, count = text.split(":")  # a wrong part count is a ValueError too
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValidationError(f"range must look like start:stop:count, got {text!r}") from None
    if count < 1:
        raise ValidationError("range count must be at least 1")
    # the same IEEE operations as numpy.linspace, value for value
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0:  # subnormal step: scale the fraction instead
        head = [i / div * delta + start for i in range(div)]
    else:
        head = [i * step + start for i in range(div)]
    return head + [stop]


def _parse_list(text, kind):
    try:
        values = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(f"expected comma-separated {kind.__name__} values, got {text!r}")
    return values


def _model(args, tau=None):
    tau = tau if tau is not None else (1 if args.model == "ds" else -1)
    lam = args.lam
    if lam == 0.0:
        raise ValidationError(
            "lambda = 0 is the undeformed Bohr limit and is not a valid model; "
            "pass a small positive value, or use the figure2 dataset whose grid "
            "includes the limiting column"
        )
    return DeformationModel(tau=tau, lam=lam, units=_UNITS[args.units])


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Render {name} from {data}. Requires matplotlib.\"\"\"
import csv

import matplotlib.pyplot as plt

with open({data!r}) as fh:
    reader = csv.reader(fh)
    header = next(reader)
    cols = {{h: [] for h in header}}
    for row in reader:
        for h, v in zip(header, row):
            cols[h].append(float(v) if v else float("nan"))

x = cols[header[0]]
for h in header[1:]:
    plt.plot(x, cols[h], label=h)
plt.xlabel(header[0])
plt.legend()
plt.title({name!r})
plt.savefig({png!r}, dpi=160)
print("wrote", {png!r})
"""


def _emit_plot_script(script_path, name, data_path):
    png = str(data_path).rsplit(".", 1)[0] + ".png"
    with open(script_path, "w") as fh:
        fh.write(_PLOT_TEMPLATE.format(name=name, data=str(data_path), png=png))


def cmd_spectrum(args) -> int:
    if args.n_max < 1:
        raise ValidationError(f"--n-max must be at least 1, got {args.n_max}")
    model = _model(args)
    rows = []
    for n in range(1, args.n_max + 1):
        for l in range(n):
            lv = spectra.energy(model, QuantumNumbers(n=n, l=l))
            rows.append((n, l, lv.energy, lv.bohr_term, lv.correction))
    unit = _SUFFIX[args.units]["energy"]
    header = ["n", "l", f"energy_{unit}", f"bohr_term_{unit}", f"correction_{unit}"]
    out = args.output or f"spectrum.{args.format}"
    if args.format == "csv":
        _write_csv(out, header, rows)
    else:
        _write_json(
            out,
            {
                "command": "spectrum",
                "model": args.model,
                "lambda": model.lam,
                "units": args.units,
                "columns": header,
                "rows": [list(r) for r in rows],
            },
        )
    print(f"spectrum: {len(rows)} levels -> {out}")
    return 0


def cmd_tables(args) -> int:
    crit, inv = spectra.make_tables(args.n_max)
    header = ["n"] + [f"l{l}_inv_bohr2" for l in range(args.n_max)]

    def display(table):
        rows = []
        for i, row in enumerate(table):
            cells = [2 + i]
            for v in row:
                cells.append(None if v is None else f"{round(v, 4):.4f}")
            rows.append(cells)
        return rows

    names = {}
    for key, table in (("critical", crit), ("inversion", inv)):
        out = f"{args.output_dir}/table_{key}.{args.format}"
        if args.format == "csv":
            _write_csv(out, header, display(table))
        else:
            _write_json(
                out,
                {
                    "command": "tables",
                    "kind": key,
                    "units": "hartree",
                    "columns": header,
                    "rows": [
                        [2 + i] + row for i, row in enumerate(table)
                    ],
                },
            )
        names[key] = out
    print(f"tables: n_max={args.n_max} -> {names['critical']}, {names['inversion']}")
    if args.n_max >= 3:
        print(
            "note: critical cell (n=3, l=0) is 1/72 = 0.0139 by the defining "
            "formula; the value 0.1389 sometimes quoted for this cell is a misprint"
        )
    return 0


def cmd_figure1(args) -> int:
    dxs = _parse_range(args.dx_range)
    units = _UNITS[args.units]
    ds = DeformationModel(tau=1, lam=args.lam, units=units)
    ads = DeformationModel(tau=-1, lam=args.lam, units=units)
    rows = []
    for dx in dxs:
        floor_ds = uncertainty_floor(ds, dx)  # rejects dx <= 0 before the division
        rows.append((dx, 0.5 * units.hbar / dx, floor_ds, uncertainty_floor(ads, dx)))
    lu, pu = _SUFFIX[args.units]["length"], _SUFFIX[args.units]["momentum"]
    header = [f"dx_{lu}", f"floor_heisenberg_{pu}", f"floor_ds_{pu}", f"floor_ads_{pu}"]
    out = args.output or f"figure1.{args.format}"
    if args.format == "csv":
        _write_csv(out, header, rows)
        script = os.path.join(os.path.dirname(os.path.abspath(out)), "plot_figure1.py")
        _emit_plot_script(script, "uncertainty floors", out)
    else:
        _write_json(
            out,
            {
                "command": "figure1",
                "lambda": args.lam,
                "units": args.units,
                "columns": header,
                "rows": [list(r) for r in rows],
            },
        )
    print(f"figure1: {len(rows)} samples -> {out}")
    return 0


def cmd_figure2(args) -> int:
    lams = _parse_range(args.lambda_range)
    levels = _parse_list(args.levels, int)
    units = _UNITS[args.units]
    eu, iu = _SUFFIX[args.units]["energy"], _SUFFIX[args.units]["invlen2"]
    header = [f"lambda_{iu}"]
    for n in levels:
        header += [f"e_ds_n{n}_{eu}", f"e_ads_n{n}_{eu}"]
    rows = []
    for lam in lams:
        row = [lam]
        for n in levels:
            qn = QuantumNumbers(n=n, l=0)
            if lam == 0.0:
                bohr = -units.m * units.e2**2 / (2.0 * units.hbar**2 * n * n)
                row += [bohr, bohr]
            else:
                row += [
                    spectra.energy(DeformationModel(1, lam, units), qn).energy,
                    spectra.energy(DeformationModel(-1, lam, units), qn).energy,
                ]
        rows.append(tuple(row))
    out = args.output or f"figure2.{args.format}"
    if args.format == "csv":
        _write_csv(out, header, rows)
        script = os.path.join(os.path.dirname(os.path.abspath(out)), "plot_figure2.py")
        _emit_plot_script(script, "s-state energies vs deformation", out)
    else:
        _write_json(
            out,
            {
                "command": "figure2",
                "levels": levels,
                "units": args.units,
                "columns": header,
                "rows": [list(r) for r in rows],
            },
        )
    print(f"figure2: {len(rows)} samples x {len(levels)} levels -> {out}")
    return 0


def cmd_wavefunction(args) -> int:
    import numpy as np

    from . import wavefunctions

    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    model = _model(args)
    qn = QuantumNumbers(n=args.n, l=args.l)
    state = wavefunctions.build_state(model, qn)
    nodes = wavefunctions.count_nodes(state)
    norm = wavefunctions.radial_overlap(state, state, measure="flat")

    if model.tau == -1:
        hi = state.domain[1] * (1.0 - 1e-6)
    else:
        hi = (8.0 * qn.n**2 + 10.0) * model.units.bohr_radius
    radii = np.linspace(hi * 1e-5, hi, args.samples)
    values = wavefunctions.radial_eval(state, radii)

    out = args.output or f"wavefunction.{args.format}"
    lu = _SUFFIX[args.units]["length"]
    header = [f"r_{lu}", "psi_radial_au"]
    if args.format == "csv":
        _write_csv(out, header, list(zip(radii, values)))
    else:
        _write_json(
            out,
            {
                "command": "wavefunction",
                "model": args.model,
                "lambda": model.lam,
                "n": qn.n,
                "l": qn.l,
                "energy": state.energy,
                "nodes": nodes,
                "norm": norm,
                "columns": header,
                "rows": [[float(r), float(v)] for r, v in zip(radii, values)],
            },
        )
    print(
        f"wavefunction: n={qn.n} l={qn.l} energy={state.energy:.9g} "
        f"nodes={nodes} norm={norm:.9f} -> {out}"
    )
    return 0


def cmd_verify(args) -> int:
    from . import oracle

    lambdas = _parse_list(args.lambdas, float)
    report = oracle.crosscheck_report(lambdas, args.n_max, units=_UNITS[args.units])
    eu, iu = _SUFFIX[args.units]["energy"], _SUFFIX[args.units]["invlen2"]
    header = [
        "model",
        f"lambda_{iu}",
        "n",
        "l",
        f"e_closed_{eu}",
        f"e_oracle_{eu}",
        "rel_dev",
        "nodes_closed",
        "nodes_oracle",
        "node_match",
        "status",
    ]
    keys = [
        "model", "lambda", "n", "l", "e_closed", "e_oracle", "rel_dev",
        "nodes_closed", "nodes_oracle", "node_match", "status",
    ]
    out = args.output or f"verify.{args.format}"
    if args.format == "csv":
        rows = [
            [row[k].replace(",", ";") if k == "status" else row[k] for k in keys]
            for row in report.rows
        ]
        _write_csv(out, header, rows)
    else:
        _write_json(
            out,
            {
                "command": "verify",
                "lambdas": lambdas,
                "n_max": args.n_max,
                "summary": report.summary,
                "columns": header,
                "rows": [[row[k] for k in keys] for row in report.rows],
            },
        )
    s = report.summary
    print(
        f"verify: {s['cells']} cells, max rel dev ds={_fmt(s['max_rel_dev_ds'])} "
        f"ads={_fmt(s['max_rel_dev_ads'])}, nodes match: {s['all_nodes_match']} -> {out}"
    )
    nothing_verified = report.rows and not any(row["status"] == "ok" for row in report.rows)
    return 3 if s["errors"] or nothing_verified else 0


def cmd_bound(args) -> int:
    units = _UNITS[args.units]
    b = spectra.spectroscopic_bound(args.precision, units)
    pu, iu = _SUFFIX[args.units]["momentum"], _SUFFIX[args.units]["invlen2"]
    header = [
        "precision",
        f"dp_min_convention_{pu}",
        f"dp_min_derived_{pu}",
        f"lambda_convention_{iu}",
        f"lambda_derived_{iu}",
    ]
    row = (
        b.precision,
        b.dp_min_convention,
        b.dp_min_derived,
        b.lambda_convention,
        b.lambda_derived,
    )
    out = args.output or f"bound.{args.format}"
    if args.format == "csv":
        _write_csv(out, header, [row])
    else:
        _write_json(
            out,
            {
                "command": "bound",
                "units": args.units,
                "columns": header,
                "rows": [list(row)],
            },
        )
    unit = "kg*m/s" if args.units == "si" else "atomic"
    print(
        f"bound: dP_min <= {b.dp_min_convention:.3e} (coefficient 3/2) or "
        f"{b.dp_min_derived:.3e} (coefficient 3) [{unit}] -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euph",
        description="deformed-hydrogen spectra, wavefunctions and verification",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_flag=True):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--units", choices=("hartree", "si"), default="hartree")
        p.add_argument("--output", default=None, help="output file path")
        if model_flag:
            p.add_argument("--model", choices=("ds", "ads"), required=True)
            p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = sub.add_parser("spectrum", allow_abbrev=False, help="all E(n, l) up to n-max")
    common(p)
    p.add_argument("--n-max", type=int, default=5)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tables", allow_abbrev=False, help="critical and inversion deformation tables")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("figure1", allow_abbrev=False, help="uncertainty-floor curves")
    common(p, model_flag=False)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument(
        "--dx-range", default="0.5:20:200",
        help="start:stop:count; write --dx-range=START:STOP:COUNT when START begins with '-'",
    )
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("figure2", allow_abbrev=False, help="s-state energies against the deformation")
    common(p, model_flag=False)
    p.add_argument(
        "--lambda-range", default="0:0.1:200",
        help="start:stop:count; write --lambda-range=START:STOP:COUNT when START begins with '-'",
    )
    p.add_argument("--levels", default="1,2,3", help="comma-separated n values")
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("wavefunction", allow_abbrev=False, help="radial samples, nodes and norm")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("verify", allow_abbrev=False, help="closed forms against the spectral oracle")
    common(p, model_flag=False)
    p.add_argument("--lambdas", required=True, help="comma-separated deformations")
    p.add_argument("--n-max", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", allow_abbrev=False, help="spectroscopic bound on the minimal momentum")
    common(p, model_flag=False)
    p.add_argument("--precision", type=float, required=True)
    p.set_defaults(func=cmd_bound, units="si")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError, NonNormalizableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, MaxIterationsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EuphError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
