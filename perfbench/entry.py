"""Child process of the benchmark: ``dsvac.cli run`` as a user runs it.

    python perfbench/entry.py STAMP MODE -- run <dsvac run flags>

Equivalent to ``python -m dsvac.cli run ...`` (``src`` on ``PYTHONPATH``),
except that it writes ``time.monotonic()`` to STAMP when
``dsvac.report.run`` is entered, the end of set-up.  MODE is ``run``,
``setup`` (exit 0 at that point, without running anything) or
``trace:<dir>`` (install the tracer first and write its totals to
``<dir>/main.json`` at the end).
"""

import sys
import time


def main():
    stamp, mode, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: entry.py STAMP MODE -- run ...")
    from dsvac import cli

    tracer = None
    if mode.startswith("trace:"):
        import tracer as tracing
        out_dir = mode[len("trace:"):]
        tracer = tracing.install(out_dir)
    inner = cli.run

    def stamped_run(config):
        with open(stamp, "w") as fh:
            fh.write(repr(time.monotonic()))
        if mode == "setup":
            raise SystemExit(0)
        return inner(config)

    cli.run = stamped_run
    code = cli.main(argv)
    if tracer is not None:
        tracer.dump(f"{out_dir}/main.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
