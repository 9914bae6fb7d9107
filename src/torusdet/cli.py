"""Command-line interface.

Subcommands cover the main pipelines and emit a JSON report plus optional
CSV series.  Exit codes: 0 success, 1 tolerance failure (report still
written), 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import discrete, euler_maclaurin, interchange, smooth
from .errors import (FitDegenerateError, InputError, NumericalError,
                     TailModelError)
from .expansion import BasisSpec, Samples
from . import finite_part

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


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def emit_series(path, samples: Samples, cfg: dict) -> None:
    from .expansion import samples_to_csv
    samples_to_csv(samples, path, header=f"config {config_hash(cfg)}")


def _report_skeleton(cmd: str, cfg: dict, criteria) -> dict:
    return {
        "command": cmd,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "criteria": list(criteria),
    }


def _finish(report: dict, args, t0: float, passed: bool | None) -> int:
    report["timings"] = {"wall_seconds": round(time.time() - t0, 3)}
    if passed is not None:
        report["pass"] = bool(passed)
    if args.json_out:
        write_report(args.json_out, report)
    line = report["command"]
    for key in ("value", "constant", "reference", "max_abs_diff"):
        if key in report:
            line += f" {key}={report[key]:.10g}"
    if passed is not None:
        line += " pass" if passed else " FAIL"
    print(line)
    return EXIT_OK if (passed is None or passed) else EXIT_FAIL


def cmd_spectrum(args, t0):
    t = discrete.DiscreteTorus(args.m, args.n)
    s = discrete.spectrum_1d(args.n)
    cfg = {"m": args.m, "n": args.n}
    report = _report_skeleton("spectrum", cfg, [])
    report["count"] = t.points
    report["one_axis_values"] = [float(v) for v in s]
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(f"# config {config_hash(cfg)}\n")
            fh.write("x,value\n")
            for k, v in enumerate(s):
                fh.write(f"{k},{float(v)!r}\n")
    return _finish(report, args, t0, None)


def cmd_logdet(args, t0):
    cfg = {"m": args.m, "n": args.n, "n_grid": args.n_grid,
           "rescaled": args.rescaled}
    report = _report_skeleton("logdet", cfg, [])
    if args.n_grid:
        grid = parse_grid(args.n_grid)
        samples = discrete.log_det_series(args.m, grid, rescaled=args.rescaled)
        report["series"] = [[float(x), float(y)]
                            for x, y in zip(samples.x, samples.y)]
        if args.csv_out:
            emit_series(args.csv_out, samples, cfg)
    else:
        if args.n is None:
            raise InputError("logdet needs --n or --n-grid")
        t = discrete.DiscreteTorus(args.m, args.n)
        fn = discrete.log_det_rescaled if args.rescaled else discrete.log_det
        report["value"] = fn(t)
    return _finish(report, args, t0, None)


def cmd_trace(args, t0):
    t = discrete.DiscreteTorus(args.m, args.n)
    cfg = {"m": args.m, "n": args.n, "alpha": args.alpha, "z": args.z,
           "z_grid": args.z_grid}
    report = _report_skeleton("trace", cfg, [])
    if args.z_grid:
        zs = parse_grid(args.z_grid, integer=False)
        vals = [discrete.resolvent_trace(t, z, args.alpha) for z in zs]
        report["series"] = [[z, v] for z, v in zip(zs, vals)]
        if args.csv_out:
            emit_series(args.csv_out, Samples(np.array(zs), np.array(vals)), cfg)
    else:
        report["value"] = discrete.resolvent_trace(t, args.z, args.alpha)
        report["inclusion_exclusion"] = discrete.trace_inclusion_exclusion(
            t, args.z) if args.alpha == args.m else None
    return _finish(report, args, t0, None)


def cmd_trees(args, t0):
    t = discrete.DiscreteTorus(args.m, args.n)
    count = discrete.spanning_tree_count(t)
    cfg = {"m": args.m, "n": args.n}
    report = _report_skeleton("trees", cfg, ["AC13"])
    report["count"] = count  # exact integer; can exceed float range
    if count.bit_length() < 1000:
        report["value"] = float(count)
    return _finish(report, args, t0, None)


INTEGRAND_PRESETS = {
    # evaluator, zero-side basis, infinity-side basis, exact value
    "lorentzian": (lambda z: 1.0 / (1.0 + z * z),
                   ((0.0, 0), (2.0, 0), (4.0, 0), (6.0, 0)),
                   ((-2.0, 0), (-4.0, 0), (-6.0, 0), (-8.0, 0)),
                   math.pi / 2),
    "log-kernel": (None, ((1.0, 0), (3.0, 0), (5.0, 0)),
                   ((-1.0, 0), (-3.0, 0), (-5.0, 0), (-7.0, 0)), None),
}


def cmd_regint(args, t0):
    cfg = {"integrand": args.integrand, "lam": args.lam,
           "window": [args.window_start, args.window_end],
           "quad_tol": args.quad_tol}
    report = _report_skeleton("regint", cfg, ["AC5"])
    if args.integrand == "log-kernel":
        lam = args.lam
        f = lambda z: z / (lam + z * z)
        _, bz, bi, _ = INTEGRAND_PRESETS["log-kernel"]
        expected = -0.5 * math.log(lam)
    else:
        f, bz, bi, expected = INTEGRAND_PRESETS[args.integrand]
    res = finite_part.reg_integral(
        f, window=(args.window_start, args.window_end),
        basis_zero=BasisSpec(bz), basis_inf=BasisSpec(bi),
        quad_tol=args.quad_tol)
    report["value"] = res.value
    report["core_part"] = res.core_part
    report["tail_zero_part"] = res.tail_zero_part
    report["tail_inf_part"] = res.tail_inf_part
    report["error_estimate"] = res.error_estimate
    passed = None
    if expected is not None:
        report["reference"] = expected
        passed = abs(res.value - expected) <= args.tol
    return _finish(report, args, t0, passed)


def cmd_interchange(args, t0):
    cfg = {"tol": args.tol, "all": True}
    report = _report_skeleton("interchange-check", cfg, ["AC8"])
    results = []
    ok = True
    for f in interchange.builtin_registry():
        rep = interchange.check_interchange(f, tol=args.tol)
        results.append(json.loads(rep.to_json()))
        ok = ok and rep.passed
    report["results"] = results
    report["max_abs_diff"] = max(r["abs_diff"] for r in results)
    return _finish(report, args, t0, ok)


def cmd_em_check(args, t0):
    t = discrete.DiscreteTorus(args.m, args.n)
    cfg = {"m": args.m, "n": args.n, "z": args.z, "M": args.M}
    report = _report_skeleton("em-check", cfg, ["AC9", "AC10"])
    vals, total = euler_maclaurin.em_decompose(t, args.z, M=args.M)
    direct = euler_maclaurin.boundary_inclusive_lattice_sum(t, args.z, t.m)
    report["patterns"] = {"".join(map(str, k)): v for k, v in vals.items()}
    report["value"] = total
    report["reference"] = direct
    report["max_abs_diff"] = abs(total - direct)
    passed = abs(total - direct) <= args.tol * max(1.0, abs(direct))
    return _finish(report, args, t0, passed)


def cmd_zeta_det(args, t0):
    cfg = {"m": args.m, "tol": args.tol}
    report = _report_skeleton("zeta-det", cfg, ["AC7"])
    report["value"] = smooth.log_det_zeta(args.m)
    passed = None
    if args.m <= 2:
        other = smooth.logdet_zeta_via_regint(args.m)
        report["regint_route"] = other
        report["max_abs_diff"] = abs(other - report["value"])
        passed = report["max_abs_diff"] <= args.tol
    return _finish(report, args, t0, passed)


def cmd_trace_continuum(args, t0):
    cfg = {"m": args.m, "z": args.z, "alpha": args.alpha}
    report = _report_skeleton("trace-continuum", cfg, [])
    report["value"] = smooth.resolvent_trace_continuum(args.m, args.z, args.alpha)
    return _finish(report, args, t0, None)


def cmd_converge(args, t0):
    grid = parse_grid(args.n_grid)
    cfg = {"m": args.m, "n_grid": args.n_grid, "z": args.z,
           "alpha": args.alpha}
    report = _report_skeleton("converge", cfg, ["AC11"])
    rep = smooth.convergence_check(args.m, grid, args.z, args.alpha)
    report["rows"] = [[r[0], r[1], r[2], r[3]] for r in rep.rows]
    report["strictly_decreasing"] = rep.strictly_decreasing
    report["final_abs_diff"] = rep.final_abs_diff
    report["derivative_rel_err"] = max(rep.derivative_rel_err_discrete,
                                       rep.derivative_rel_err_continuum)
    passed = (rep.strictly_decreasing and rep.final_abs_diff <= args.tol
              and report["derivative_rel_err"] <= 1e-6)
    return _finish(report, args, t0, passed)


def cmd_eigenproduct(args, t0):
    grid = parse_grid(args.grid, integer=(args.mode == "by_count"))
    basis = parse_basis(args.basis)
    cfg = {"m": args.m, "mode": args.mode, "grid": args.grid,
           "basis": args.basis, "tol": args.tol}
    report = _report_skeleton("eigenproduct", cfg, ["AC12"])
    c, u, ref = smooth.eigenproduct_reglimit(args.m, args.mode, grid, basis)
    report["constant"] = c
    report["uncertainty"] = u
    report["reference"] = ref
    passed = None
    if args.tol is not None:
        target = ref if args.target is None else args.target
        report["target"] = target
        passed = abs(c - target) <= args.tol
    return _finish(report, args, t0, passed)


def cmd_main_theorem(args, t0):
    grid = parse_grid(args.n_grid)
    basis = parse_basis(args.basis)
    cfg = {"m": args.m, "n_grid": args.n_grid, "basis": args.basis,
           "tol": args.tol}
    report = _report_skeleton("main-theorem", cfg,
                              ["AC2" if args.m == 1 else "AC3"])
    c, u, ref = discrete.logdet_limit_pipeline(args.m, grid, basis)
    report["constant"] = c
    report["uncertainty"] = u
    report["reference"] = ref
    report["max_abs_diff"] = abs(c - ref)
    if args.csv_out:
        emit_series(args.csv_out, discrete.log_det_series(args.m, grid), cfg)
    return _finish(report, args, t0, abs(c - ref) <= args.tol)


DEFAULT_BASES = {
    1: "1,1;1,0;0,1;0,0",
    2: "2,1;2,0;1,1;1,0;0,1;0,0;-1,0;-2,0",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torusdet",
        description="Regularized limits and determinants of torus Laplacians")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json-out", default=None)
        sp.add_argument("--csv-out", default=None)

    sp = sub.add_parser("spectrum", help="one-axis eigenvalues")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("logdet", help="discrete log-determinant")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int)
    sp.add_argument("--n-grid", default=None)
    sp.add_argument("--rescaled", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_logdet)

    sp = sub.add_parser("trace", help="discrete resolvent trace")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=int, default=1)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--z-grid", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("trees", help="exact spanning-tree count")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_trees)

    sp = sub.add_parser("regint", help="finite-part integral of a preset")
    sp.add_argument("--integrand", choices=sorted(INTEGRAND_PRESETS),
                    default="lorentzian")
    sp.add_argument("--lam", type=float, default=4.0)
    sp.add_argument("--window-start", type=float, default=1e-3)
    sp.add_argument("--window-end", type=float, default=64.0)
    sp.add_argument("--quad-tol", type=float, default=1e-10)
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp)
    sp.set_defaults(fn=cmd_regint)

    sp = sub.add_parser("interchange-check", help="limit/integral interchange")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--tol", type=float, default=1e-6)
    common(sp)
    sp.set_defaults(fn=cmd_interchange)

    sp = sub.add_parser("em-check", help="operator decomposition vs direct sum")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--M", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp)
    sp.set_defaults(fn=cmd_em_check)

    sp = sub.add_parser("zeta-det", help="zeta-regularized determinant")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--tol", type=float, default=5e-3)
    common(sp)
    sp.set_defaults(fn=cmd_zeta_det)

    sp = sub.add_parser("trace-continuum", help="continuum resolvent trace")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--alpha", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_trace_continuum)

    sp = sub.add_parser("converge", help="discrete-to-continuum trace limit")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n-grid", default="8:1024:x2")
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--alpha", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-4)
    common(sp)
    sp.set_defaults(fn=cmd_converge)

    sp = sub.add_parser("eigenproduct", help="partial eigenvalue products")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--mode", choices=["by_cutoff", "by_count"],
                    default="by_cutoff")
    sp.add_argument("--grid", default="16:4096:x2")
    sp.add_argument("--basis", default="1,1;1,0;0,1;0,0;-1,0;-3,0")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--target", type=float, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_eigenproduct)

    sp = sub.add_parser("main-theorem",
                        help="regularized limit of log-determinants")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n-grid", default="16:4096:x2")
    sp.add_argument("--basis", default=None)
    sp.add_argument("--tol", type=float, default=1e-6)
    common(sp)
    sp.set_defaults(fn=cmd_main_theorem)

    return p


def _apply_thread_cap():
    """Cap BLAS/OpenMP pools from TORUSDET_THREADS.

    Results are deterministic regardless (reductions run in a fixed
    order); the cap only bounds library-internal parallelism.
    """
    raw = os.environ.get("TORUSDET_THREADS")
    if not raw:
        return
    try:
        limit = max(1, int(raw))
    except ValueError:
        raise InputError(f"TORUSDET_THREADS must be an integer, got {raw!r}")
    try:
        import threadpoolctl
        threadpoolctl.threadpool_limits(limit)
    except ImportError:
        pass


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    if getattr(args, "basis", "unset") is None:
        args.basis = DEFAULT_BASES.get(args.m, DEFAULT_BASES[2])
    t0 = time.time()
    try:
        _apply_thread_cap()
        return args.fn(args, t0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FitDegenerateError, TailModelError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
