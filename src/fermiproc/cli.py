"""Command-line entry points.

    fermiproc run <config.yaml>      simulate the configured process
    fermiproc verify <config.yaml>   run every invariant suite
    fermiproc sweep <config.yaml> --axis beta --values 0.5,1,2
    fermiproc norm <kernel.json>     smallness norm of a kernel file

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import harness, smallness


def _add_overrides(p):
    p.add_argument("--path", choices=("exact", "quadratic", "both"),
                   help="override the configured simulation path")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the RNG seed")


def _apply_overrides(cfg, args):
    if args.path:
        cfg = replace(cfg, path=args.path)
    if args.out:
        cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    harness.validate_config(cfg)
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(prog="fermiproc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate the configured process")
    p_run.add_argument("config")
    _add_overrides(p_run)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("config")
    _add_overrides(p_ver)

    p_sweep = sub.add_parser("sweep", help="one run per value of a swept parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 0.5,1,2")
    _add_overrides(p_sweep)

    p_norm = sub.add_parser("norm", help="smallness norm of a kernel file")
    p_norm.add_argument("kernel_file")
    p_norm.add_argument("--points", type=int, default=smallness.DEFAULT_POINTS)
    p_norm.add_argument("--box", type=float, default=smallness.DEFAULT_BOX)
    return parser


def _print_verdicts(manifest):
    for name, v in sorted(manifest["invariants"].items()):
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {name}: value={v['value']:.6g} bound={v['bound']:.6g}")


def cmd_run(args):
    cfg = _apply_overrides(harness.load_config(args.config), args)
    result = harness.execute_run(cfg)
    _print_verdicts(result.manifest)
    for key, val in sorted(result.manifest["summary"].items()):
        if isinstance(val, float):
            print(f"  {key} = {val:.6g}")
    return 0 if result.passed else 1


def cmd_verify(args):
    cfg = _apply_overrides(harness.load_config(args.config), args)
    manifest = harness.run_verify(cfg)
    _print_verdicts(manifest)
    return 0 if harness.manifest_passed(manifest) else 1


def cmd_sweep(args):
    cfg = _apply_overrides(harness.load_config(args.config), args)
    try:
        values = [float(x) for x in args.values.split(",") if x.strip()]
    except ValueError as exc:
        raise harness.ConfigError(f"--values: {exc}") from exc
    index = harness.run_sweep(cfg, args.axis, values)
    failed = False
    for v, outcome in zip(index["values"], index["runs"]):
        if outcome["status"] != "ok":
            print(f"{args.axis}={v:g}: ERROR {outcome['error']}")
            failed = True
        else:
            ok = outcome["passed"]
            failed |= not ok
            print(f"{args.axis}={v:g}: {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


def load_kernel_file(path):
    """Kernel file schema (JSON):

    {"terms": [{"degree": 1, "coeffs": [[...]], "sites": [0, 1]}, ...],
     "profile_terms": [{"ndim": 1, "profile": "hermite0", "amplitude": 1.0}],
     "sup_scale": 1.0}

    `terms` are lattice kernels (Gaussian-bump embedding); `profile_terms`
    are analytic continuum test profiles evaluated directly on the grid.
    """
    with open(path) as fh:
        return json.load(fh)


_PROFILES = {
    # L^2-normalized harmonic ground state: exact norm value 1 per dimension
    "hermite0": lambda *axes: functools.reduce(np.multiply, [
        np.pi**-0.25 * np.exp(-0.5 * np.asarray(x) ** 2) for x in axes]),
    "gaussian": lambda *axes: functools.reduce(np.multiply, [
        np.exp(-np.asarray(x) ** 2) for x in axes]),
}


def cmd_norm(args):
    total = 0.0
    rich = 0.0
    try:  # a malformed file or an unresolvable norm is a config error, not a FAIL
        spec = load_kernel_file(args.kernel_file)
        sup_scale = float(spec.get("sup_scale", 1.0))
        lattice_terms = [(t["degree"], np.asarray(t["coeffs"], dtype=float), t["sites"])
                         for t in spec.get("terms", [])]
        if lattice_terms:
            report = smallness.smallness_norm(lattice_terms, sup_scale=sup_scale,
                                              points=args.points, box=args.box)
            total += report.value
            rich += report.richardson
            for val in report.per_term:
                print(f"lattice term contribution: {val:.8g}")
        for t in spec.get("profile_terms", []):
            if t["profile"] not in _PROFILES:
                raise ValueError(f"unknown profile {t['profile']!r}, "
                                 f"known: {', '.join(sorted(_PROFILES))}")
            profile = _PROFILES[t["profile"]]
            amp = float(t.get("amplitude", 1.0))
            ndim = int(t.get("ndim", 1))
            est = smallness.kernel_norm(
                lambda *axes: amp * profile(*axes), ndim, box=args.box, points=args.points)
            weight = smallness.term_weight(int(t.get("degree", 1)), sup_scale)
            print(f"profile {t['profile']} (M={ndim}): ||f||' = {est.value:.8g} "
                  f"(richardson {est.richardson:.2g})")
            total += weight * est.value
            rich += weight * est.richardson
    except KeyError as exc:
        raise harness.ConfigError(f"{args.kernel_file}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise harness.ConfigError(f"{args.kernel_file}: {exc}") from exc
    verdict = "PASS" if total < smallness.SMALLNESS_THRESHOLD else "FAIL"
    print(f"aggregate smallness norm = {total:.8g} (richardson {rich:.2g})")
    print(f"threshold 1/(24*pi) = {smallness.SMALLNESS_THRESHOLD:.8g} -> {verdict}")
    return 0 if total < smallness.SMALLNESS_THRESHOLD else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep,
                "norm": cmd_norm}
    try:
        return handlers[args.command](args)
    except (harness.ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
