"""Command-line interface.

Subcommands cover the main pipelines and emit a JSON report plus, for the
commands that compute a series, an optional CSV.  Each subcommand is one
row of ``COMMANDS``; ``main`` echoes the parsed options as the report's
``config`` and the row's handler fills in the results.  Exit codes:
0 success, 1 tolerance failure (report still written), 2 invalid input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from typing import Callable, NamedTuple

from . import discrete, euler_maclaurin, finite_part, interchange, smooth
from .errors import (FitDegenerateError, InputError, NumericalError,
                     TailModelError, check_dimension)
from .expansion import BasisSpec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def parse_grid(spec: str, *, integer: bool = True):
    """Parse 'start:stop:xRATIO' into a geometric grid.

    Integer grids deduplicate after rounding; the ratio must be >= 1.2.
    """
    parts = spec.split(":")
    if len(parts) != 3 or not parts[2].startswith("x"):
        raise InputError(f"grid must look like 16:4096:x2, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        ratio = float(parts[2][1:])
    except ValueError:
        raise InputError(f"grid entries must be numbers, got {spec!r}") from None
    if ratio < 1.2:
        raise InputError(f"grid ratio must be >= 1.2, got {ratio}")
    if not (0 < start <= stop < math.inf):
        raise InputError(f"need 0 < start <= stop < inf in grid {spec!r}")
    out = []
    v = start
    while v <= stop * 1.0000001:
        g = int(round(v)) if integer else v
        if not out or g > out[-1]:
            out.append(g)
        v *= ratio
    return out


def parse_basis(spec: str) -> BasisSpec:
    """Parse 'alpha,k;alpha,k;...' into a basis."""
    pairs = []
    for chunk in spec.split(";"):
        try:
            a, k = chunk.split(",")
            pairs.append((float(a), int(k)))
        except ValueError:
            raise InputError(
                f"basis must look like 1,1;0,0, got {spec!r}") from None
    return BasisSpec(tuple(pairs))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _pairs(samples) -> list:
    return [[float(x), float(y)] for x, y in zip(samples.x, samples.y)]


def _write_series(args, report: dict, rows) -> None:
    """Write ``(x, value)`` rows to ``--csv-out`` under a config-hash header."""
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(f"# config {report['config_hash']}\nx,value\n")
            fh.writelines(f"{x!r},{y!r}\n" for x, y in rows)


def _finish(report: dict, args, t0: float, passed: bool | None) -> int:
    report["timings"] = {"wall_seconds": round(time.time() - t0, 3)}
    if passed is not None:
        report["pass"] = bool(passed)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    line = report["command"]
    for key in ("value", "constant", "reference", "max_abs_diff"):
        if key in report:
            line += f" {key}={report[key]:.10g}"
    if passed is not None:
        line += " pass" if passed else " FAIL"
    print(line)
    return EXIT_OK if (passed is None or passed) else EXIT_FAIL


# Each handler fills in the result fields of ``report`` and returns the
# verdict (``None`` when the command checks no tolerance).

def cmd_spectrum(args, report):
    report["count"] = discrete.DiscreteTorus(args.m, args.n).points
    report["one_axis_values"] = discrete.spectrum_1d(args.n).tolist()
    _write_series(args, report, enumerate(report["one_axis_values"]))


def cmd_logdet(args, report):
    if args.n_grid:
        grid = parse_grid(args.n_grid)
        report["series"] = _pairs(
            discrete.log_det_series(args.m, grid, rescaled=args.rescaled))
        _write_series(args, report, report["series"])
    else:
        if args.n is None:
            raise InputError("logdet needs --n or --n-grid")
        t = discrete.DiscreteTorus(args.m, args.n)
        fn = discrete.log_det_rescaled if args.rescaled else discrete.log_det
        report["value"] = fn(t)


def cmd_trace(args, report):
    t = discrete.DiscreteTorus(args.m, args.n)
    if args.z_grid:
        zs = parse_grid(args.z_grid, integer=False)
        report["series"] = [[z, discrete.resolvent_trace(t, z, args.alpha)]
                            for z in zs]
        _write_series(args, report, report["series"])
    else:
        report["value"] = discrete.resolvent_trace(t, args.z, args.alpha)
        report["inclusion_exclusion"] = discrete.trace_inclusion_exclusion(
            t, args.z) if args.alpha == args.m else None


def cmd_trees(args, report):
    count = discrete.spanning_tree_count(discrete.DiscreteTorus(args.m, args.n))
    report["count"] = count  # exact integer; can exceed float range
    if count.bit_length() < 1000:
        report["value"] = float(count)


INTEGRAND_PRESETS = {
    # integrand(lam, z), exact value(lam), zero-side and infinity-side bases
    "lorentzian": (lambda lam, z: 1.0 / (1.0 + z * z), lambda lam: math.pi / 2,
                   ((0.0, 0), (2.0, 0), (4.0, 0), (6.0, 0)),
                   ((-2.0, 0), (-4.0, 0), (-6.0, 0), (-8.0, 0))),
    "log-kernel": (lambda lam, z: z / (lam + z * z),
                   lambda lam: -0.5 * math.log(lam),
                   ((1.0, 0), (3.0, 0), (5.0, 0)),
                   ((-1.0, 0), (-3.0, 0), (-5.0, 0), (-7.0, 0))),
}


def cmd_regint(args, report):
    lam = args.lam
    if args.integrand == "log-kernel" and not (math.isfinite(lam) and lam > 0):
        raise InputError(f"--lam must be finite and positive, got {lam}")
    f, exact, bz, bi = INTEGRAND_PRESETS[args.integrand]
    res = finite_part.reg_integral(
        lambda z: f(lam, z), window=(args.window_start, args.window_end),
        basis_zero=BasisSpec(bz), basis_inf=BasisSpec(bi),
        quad_tol=args.quad_tol)
    report.update(dataclasses.asdict(res), reference=exact(lam))
    return abs(res.value - report["reference"]) <= args.tol


def cmd_interchange(args, report):
    reps = [interchange.check_interchange(f, tol=args.tol)
            for f in interchange.builtin_registry()]
    report["results"] = []
    for rep in reps:
        result = dataclasses.asdict(rep)
        result["pass"] = result.pop("passed")
        report["results"].append(result)
    report["max_abs_diff"] = max(r["abs_diff"] for r in report["results"])
    return all(rep.passed for rep in reps)


def cmd_em_check(args, report):
    t = discrete.DiscreteTorus(args.m, args.n)
    vals, total = euler_maclaurin.em_decompose(t, args.z, M=args.M)
    direct = euler_maclaurin.boundary_inclusive_lattice_sum(t, args.z, t.m)
    report["patterns"] = {"".join(map(str, k)): v for k, v in vals.items()}
    report["value"] = total
    report["reference"] = direct
    report["max_abs_diff"] = abs(total - direct)
    return abs(total - direct) <= args.tol * max(1.0, abs(direct))


def cmd_zeta_det(args, report):
    report["value"] = smooth.log_det_zeta(args.m)
    other = smooth.logdet_zeta_via_regint(args.m)
    report["regint_route"] = other
    report["max_abs_diff"] = abs(other - report["value"])
    return report["max_abs_diff"] <= args.tol


def cmd_trace_continuum(args, report):
    report["value"] = smooth.resolvent_trace_continuum(args.m, args.z, args.alpha)


def cmd_converge(args, report):
    grid = parse_grid(args.n_grid)
    rep = smooth.convergence_check(args.m, grid, args.z, args.alpha)
    report["rows"] = [[r[0], r[1], r[2], r[3]] for r in rep.rows]
    report["strictly_decreasing"] = rep.strictly_decreasing
    report["final_abs_diff"] = rep.final_abs_diff
    report["derivative_rel_err"] = max(rep.derivative_rel_err_discrete,
                                       rep.derivative_rel_err_continuum)
    return (rep.strictly_decreasing and rep.final_abs_diff <= args.tol
            and report["derivative_rel_err"] <= 1e-6)


def cmd_eigenproduct(args, report):
    grid = parse_grid(args.grid, integer=(args.mode == "by_count"))
    basis = parse_basis(args.basis)
    c, u, ref = smooth.eigenproduct_reglimit(args.m, args.mode, grid, basis)
    report.update(constant=c, uncertainty=u, reference=ref)
    if args.tol is None:
        return None
    report["target"] = ref if args.target is None else args.target
    return abs(c - report["target"]) <= args.tol


def cmd_main_theorem(args, report):
    grid = parse_grid(args.n_grid)
    check_dimension(args.m)
    if args.basis is None:
        raise InputError("only m = 1, 2 have default bases; give --basis")
    c, u, ref = discrete.logdet_limit_pipeline(args.m, grid,
                                               parse_basis(args.basis))
    report.update(constant=c, uncertainty=u, reference=ref,
                  max_abs_diff=abs(c - ref))
    if args.csv_out:
        _write_series(args, report,
                      _pairs(discrete.log_det_series(args.m, grid)))
    return abs(c - ref) <= args.tol


DEFAULT_BASES = {
    1: "1,1;1,0;0,1;0,0",
    2: "2,1;2,0;1,1;1,0;0,1;0,0;-1,0;-2,0",
}


class Command(NamedTuple):
    handler: Callable
    help: str
    criteria: tuple | Callable  # AC identifiers, or a function of the args
    csv: bool                   # writes a series, so takes --csv-out
    args: tuple                 # (flag, argparse keywords) per option


ARG_M = ("--m", {"type": int, "default": 1})
ARG_N = ("--n", {"type": int, "required": True})
ARG_Z = ("--z", {"type": float, "default": 1.0})
ARG_ALPHA = ("--alpha", {"type": int, "default": 1})

COMMANDS = {
    "spectrum": Command(cmd_spectrum, "one-axis eigenvalues", (), True,
                        (ARG_M, ARG_N)),
    "logdet": Command(cmd_logdet, "discrete log-determinant", (), True, (
        ARG_M, ("--n", {"type": int}), ("--n-grid", {}),
        ("--rescaled", {"action": "store_true"}))),
    "trace": Command(cmd_trace, "discrete resolvent trace", (), True, (
        ARG_M, ARG_N, ARG_ALPHA, ARG_Z, ("--z-grid", {}))),
    "trees": Command(cmd_trees, "exact spanning-tree count", ("AC13",),
                     False, (ARG_M, ARG_N)),
    "regint": Command(cmd_regint, "finite-part integral of a preset",
                      ("AC5",), False, (
        ("--integrand", {"choices": sorted(INTEGRAND_PRESETS),
                         "default": "lorentzian"}),
        ("--lam", {"type": float, "default": 4.0}),
        ("--window-start", {"type": float, "default": 1e-3}),
        ("--window-end", {"type": float, "default": 64.0}),
        ("--quad-tol", {"type": _tolerance, "default": 1e-10}),
        ("--tol", {"type": _tolerance, "default": 1e-8}))),
    "interchange-check": Command(
        cmd_interchange, "limit/integral interchange", ("AC8",), False, (
            ("--all", {"action": "store_true"}),
            ("--tol", {"type": _tolerance, "default": 1e-6}))),
    "em-check": Command(
        cmd_em_check, "operator decomposition vs direct sum",
        ("AC9", "AC10"), False, (
            ARG_M, ("--n", {"type": int, "default": 8}), ARG_Z,
            ("--M", {"type": int}),
            ("--tol", {"type": _tolerance, "default": 1e-8}))),
    "zeta-det": Command(cmd_zeta_det, "zeta-regularized determinant",
                        ("AC7",), False, (
        ARG_M, ("--tol", {"type": _tolerance, "default": 5e-3}))),
    "trace-continuum": Command(cmd_trace_continuum, "continuum resolvent trace",
                               (), False, (ARG_M, ARG_Z, ARG_ALPHA)),
    "converge": Command(cmd_converge, "discrete-to-continuum trace limit",
                        ("AC11",), False, (
        ARG_M, ("--n-grid", {"default": "8:1024:x2"}), ARG_Z, ARG_ALPHA,
        ("--tol", {"type": _tolerance, "default": 1e-4}))),
    "eigenproduct": Command(cmd_eigenproduct, "partial eigenvalue products",
                            ("AC12",), False, (
        ARG_M,
        ("--mode", {"choices": ["by_cutoff", "by_count"],
                    "default": "by_cutoff"}),
        ("--grid", {"default": "16:4096:x2"}),
        ("--basis", {"default": "1,1;1,0;0,1;0,0;-1,0;-3,0"}),
        ("--tol", {"type": _tolerance}),
        ("--target", {"type": _finite}))),
    "main-theorem": Command(
        cmd_main_theorem, "regularized limit of log-determinants",
        lambda args: ["AC2" if args.m == 1 else "AC3"], True, (
            ARG_M, ("--n-grid", {"default": "16:4096:x2"}), ("--basis", {}),
            ("--tol", {"type": _tolerance, "default": 1e-6}))),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torusdet",
        description="Regularized limits and determinants of torus Laplacians")
    sub = p.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        sp = sub.add_parser(name, help=row.help)
        for flag, keywords in row.args:
            sp.add_argument(flag, **keywords)
        sp.add_argument("--json-out")
        if row.csv:
            sp.add_argument("--csv-out")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    if getattr(args, "basis", "unset") is None:
        args.basis = DEFAULT_BASES.get(args.m)
    row = COMMANDS[args.command]
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "json_out", "csv_out")}
    criteria = row.criteria(args) if callable(row.criteria) else row.criteria
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode())
    report = {"command": args.command, "config": cfg,
              "config_hash": digest.hexdigest()[:16], "criteria": list(criteria)}
    t0 = time.time()
    try:
        return _finish(report, args, t0, row.handler(args, report))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FitDegenerateError, TailModelError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
