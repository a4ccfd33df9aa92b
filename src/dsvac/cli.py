"""Command line driver.

``dsvac run`` executes the verification suites and writes a JSON (or CSV)
report; ``dsvac diff`` compares two reports.  Exit codes: 0 all checks pass,
1 at least one failing check, 2 configuration error, 3 internal error (an
exception raised while running the suites; its traceback goes to stderr).
``dsvac diff`` exits 0 with the diff on stdout, or 2 for a report it cannot
read or that is not a report, or a drift factor that is not a finite number
>= 1.

``--jobs N`` runs N computing processes, this one included: N - 1 forked
pool workers build the projector pairs that the enabled suites read, while
this process runs the suites that read none (today identities, phase_space
and oracle); then it builds the pair tasks no worker has started, collects
the rest and runs the pair suites.  Each process computes on one BLAS
thread, so ``--jobs`` is the only parallelism.  Before numpy loads,
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` are set
to 1 unless the environment sets any of them; then all three are left as
they are.
"""

import argparse
import atexit
import gc
import json
import os
import sys
import traceback

# Pinned before the first numpy import of a run (``import dsvac`` loads no
# numpy): the largest dense problem of a run, the collocation SVD, is at most
# 448 x 224, too small for BLAS threads to pay, yet every process would start
# a pool of helper threads that spin on the cores the sector pool uses.  A
# user's setting of any of the three wins (OpenBLAS falls back from its own
# variable to OMP_NUM_THREADS), and once numpy is loaded the pool exists, so
# the environment is left alone.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

# Importing numpy, scipy and the library makes about 52 000 long-lived
# objects and ran the cyclic collector 123 times (0.04-0.07 s on a 2-vCPU
# Xeon VM), scanning the same objects over and over, so the collector is
# held off for the import (and turned back on only if it was on).  At exit, ``gc.freeze`` moves every object left to the permanent
# generation, so that the collections of interpreter shutdown do not scan
# them again.  It is not called at import, which would keep every object of
# a longer-lived importer, such as a test session, from ever being
# collected; and the run does not end in ``os._exit``, which would skip the
# atexit handlers and the flushing of stdout.
_gc_was_enabled = gc.isenabled()
gc.disable()
from .report import (  # noqa: E402
    ALL_SUITES,
    RunConfig,
    diff_reports,
    has_failures,
    run,
    to_csv,
    to_json,
)
if _gc_was_enabled:
    gc.enable()
atexit.register(gc.freeze)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dsvac",
        description="Verification suites for the Calderon-projector vacuum "
                    "of linearized gravity on de Sitter space.")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run verification suites")
    runp.add_argument("--config", help="JSON config file (flags override it)")
    runp.add_argument("--k-max", type=int, default=None)
    runp.add_argument("--suites", default=None,
                      help="comma separated subset of: " + ",".join(ALL_SUITES))
    runp.add_argument("--alpha", default=None,
                      help="comma separated Bogoliubov parameters")
    runp.add_argument("--tol-verdict", type=float, default=None)
    runp.add_argument("--tol-linear-algebra", type=float, default=None)
    runp.add_argument("--tol-ode", type=float, default=None)
    runp.add_argument("--margin", type=float, default=None)
    runp.add_argument("--k-dynamics", type=int, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--jobs", type=int, default=None,
                      help="computing processes, this one included")
    runp.add_argument("--out", default=None, help="output path (default stdout)")
    runp.add_argument("--format", dest="fmt", choices=("json", "csv"),
                      default=None)
    diffp = sub.add_parser("diff", help="diff two JSON reports")
    diffp.add_argument("old")
    diffp.add_argument("new")
    diffp.add_argument("--drift-factor", type=float, default=10.0)
    return parser


_FLAG_FIELDS = ("k_max", "tol_verdict", "tol_linear_algebra", "tol_ode",
                "margin", "k_dynamics", "seed", "jobs", "fmt")


def _config_from_args(args):
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}")
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
    cfg = RunConfig()
    for key, value in base.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, tuple(value) if isinstance(value, list) else value)
    for field_name in _FLAG_FIELDS:
        value = getattr(args, field_name, None)
        if value is not None:
            setattr(cfg, field_name, value)
    if args.suites is not None:
        cfg.suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    if args.alpha is not None:
        cfg.alpha_values = tuple(float(a) for a in args.alpha.split(","))
    if args.out is not None:
        cfg.output = args.out
    cfg.validate()
    return cfg


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            cfg = _config_from_args(args)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            report = run(cfg)
        except Exception as exc:
            traceback.print_exc()
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        text = to_json(report) if cfg.fmt == "json" else to_csv(report)
        if cfg.output:
            try:
                with open(cfg.output, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"cannot write output: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.write(text)
        counts = report["summary"]
        print(f"checks: {sum(counts.values())} "
              f"pass={counts.get('pass', 0)} fail={counts.get('fail', 0)} "
              f"structural={counts.get('structural', 0)}", file=sys.stderr)
        return 1 if has_failures(report) else 0
    if args.command == "diff":
        try:
            with open(args.old) as fh:
                old = json.load(fh)
            with open(args.new) as fh:
                new = json.load(fh)
            delta = diff_reports(old, new, drift_factor=args.drift_factor)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"diff error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(delta, indent=2))
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
