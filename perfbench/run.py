"""Benchmark of ``dsvac run``, end to end and layer by layer.

    python3 perfbench/run.py --workload k12-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the repository root (the program is taken from ``src/``).  Every
repetition launches a fresh interpreter, ``PYTHONPATH=src python -m
dsvac.cli run <workload flags> --seed <rep seed> --out <tmp>`` (through
``entry.py``, which stamps the end of set-up), because the lru caches and the
pole-series cache are process-global and a user never gets them warm.
Repetition i passes ``--seed`` as ``100 * seed + i``: the seed picks the
sectors of the method-independence oracle, and so the amount of work, which
a run then averages over its repetitions.

``--trace 0`` times the program as a user runs it: a few set-up-only launches,
then whole runs until ``--seconds`` is used up (at least one).  It reports
the medians of

- ``wall_s``: launch until the report is written and the process has exited;
- ``setup_s``: launch until ``dsvac.report.run`` is entered (interpreter plus
  numpy/scipy/dsvac imports), over the set-up launches and the runs;
- ``cpu_s``: user + system time of the run, pool workers included;
- ``peak_rss_mb``: the highest resident set of any process of the run.

``--trace 1`` makes one untraced and one traced run (``tracer.py``),
whatever ``--seconds`` says, and reports the per-layer metrics of
``layers.json`` plus the tracing overhead (traced minus untraced wall).
It also checks that the traced report equals the untraced one under
``dsvac diff`` and that every layer records calls on the workloads named for
it, so an unwrapped binding cannot go unnoticed.

Every report is compared with the workload's reference verdicts
(``reference/``, made by ``make_reference.py``) using
``dsvac.report.diff_reports``.  Verdict flips and residual drifts are
printed; a pass that became anything else, or a missing check, counts as a
failed check.  ``attempted`` is the number of checks in the reference report
and ``failed`` the number of failed checks (``checks_failed_share`` is their
ratio).  Known failures recorded in the reference are the baseline: they
stay in ``attempted`` and are not counted as failed.  The last line of
standard output is the result as JSON.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
ENTRY = os.path.join(HERE, "entry.py")
REFERENCE = os.path.join(HERE, "reference")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

# why each was chosen: see the workloads of BENCHMARK.json
WORKLOADS = {
    "k12-default": [],
    "k24-pool": ["--k-max", "24", "--jobs", "2"],
    "k8-crosscheck": ["--k-max", "8", "--suites", "oracle,identities"],
}
SETUP_LAUNCHES = 2
DEADLINE_S = 170.0     # for all launches of one benchmark run
SAMPLED_CHECK = "method-independence"   # sectors drawn from --seed


class BenchError(Exception):
    pass


# -- launching ----------------------------------------------------------------

def launch(tmp, mode, flags, deadline):
    """One fresh interpreter; returns its timings and its report."""
    stamp = os.path.join(tmp, "stamp")
    out = os.path.join(tmp, "report.json")
    log = os.path.join(tmp, "stderr.txt")
    for path in (stamp, out):
        if os.path.exists(path):
            os.remove(path)
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, ENTRY, stamp, mode, "--", "run", *flags,
           "--out", out]
    with open(log, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT, start_new_session=True)
        # past the deadline, kill the run together with its pool workers
        timer = threading.Timer(max(deadline - start, 0.0), os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            end = time.monotonic()
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log) as fh:
        tail = fh.read()[-2000:]
    written = os.path.exists(stamp) and (mode == "setup"
                                         or os.path.exists(out))
    if not written or proc.returncode not in (0, 1):
        raise BenchError(f"dsvac run exited {proc.returncode}:\n{tail}")
    with open(stamp) as fh:
        setup = float(fh.read()) - start
    result = {"setup_s": setup, "exit": proc.returncode}
    if mode != "setup":
        with open(out) as fh:
            result["report"] = json.load(fh)
        result.update(wall_s=end - start,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0)
    return result


# -- correctness --------------------------------------------------------------

def load_reference(workload):
    with open(os.path.join(REFERENCE, f"{workload}.json")) as fh:
        ref = json.load(fh)
    with open(os.path.join(REFERENCE, "method-independence.json")) as fh:
        table = json.load(fh)
    return ref, table


def _record(row):
    suite, check_id, sector, verdict, residual = row
    return {"suite": suite, "check_id": check_id, "sector": sector,
            "verdict": verdict, "residual": residual}


def check_report(run, ref, table):
    """Compare one report with the reference verdicts.

    The method-independence checks sample their sectors from ``--seed``, so
    their expected verdicts come from the table of every candidate sector;
    the reference fixes how many of them a report must have.
    """
    from dsvac.report import diff_reports

    report = run["report"]
    expected = [_record(r) for r in ref["records"]
                if not r[1].startswith(SAMPLED_CHECK)]
    n_sampled = len(ref["records"]) - len(expected)
    found = 0
    for r in report["records"]:
        if r["check_id"].startswith(SAMPLED_CHECK):
            row = table.get(f"{r['check_id']}|{r['sector']}")
            if row is not None:
                expected.append(_record(row))
                found += 1
    delta = diff_reports({"schema_version": ref["schema_version"],
                          "records": expected}, report)
    flips = [c for c in delta["verdict_changes"] if c["old"] == "pass"]
    failed = len(flips) + len(delta["removed"]) + max(0, n_sampled - found)
    fails = any(r["verdict"] == "fail" for r in report["records"])
    exit_ok = run["exit"] == (1 if fails else 0)
    return {"failed": failed, "exit_ok": exit_ok, "delta": delta}


def print_delta(label, delta, limit=8):
    for kind in ("verdict_changes", "removed", "added", "residual_drift"):
        items = delta[kind]
        if items:
            print(f"  {label}: {len(items)} {kind}")
            for item in items[:limit]:
                print(f"    {json.dumps(item)}")
            if len(items) > limit:
                print(f"    ... {len(items) - limit} more")


# -- untraced -----------------------------------------------------------------

def rep_flags(flags, seed, rep):
    return flags + ["--seed", str(100 * seed + rep)]


def run_untraced(tmp, flags, seed, seconds, ref, table):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setups = [launch(tmp, "setup", rep_flags(flags, seed, 0),
                     deadline)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    runs, failed, correct = [], 0, True
    while True:
        run = launch(tmp, "run", rep_flags(flags, seed, len(runs)), deadline)
        verdict = check_report(run, ref, table)
        print_delta(f"run {len(runs) + 1}", verdict["delta"])
        failed = max(failed, verdict["failed"])
        correct = correct and verdict["failed"] == 0 and verdict["exit_ok"]
        runs.append(run)
        setups.append(run["setup_s"])
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.monotonic() - start + typical > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MiB"),
    }
    print(f"  {len(runs)} runs, {len(setups)} set-ups; walls "
          + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    return metrics, failed, correct


# -- traced -------------------------------------------------------------------

def _union(intervals):
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def merge_trace(trace_dir):
    """Totals over the traced process and its pool workers."""
    with open(os.path.join(trace_dir, "main.json")) as fh:
        main = json.load(fh)
    workers = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "worker-*.json"))):
        with open(path) as fh:
            workers.append(json.load(fh))
    stats, keys, counts, cache = {}, {}, {}, {}
    for part in [main] + workers:
        for name, (calls, wall, self_s) in part["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += wall
            entry[2] += self_s
        for name, ks in part["keys"].items():
            keys.setdefault(name, set()).update(ks)
        for name, kinds in part["counts"].items():
            for kind, value in kinds.items():
                bucket = counts.setdefault(name, {})
                bucket[kind] = bucket.get(kind, 0) + value
        for name, (hits, misses) in part["cache"].items():
            entry = cache.setdefault(name, [0, 0])
            entry[0] += hits
            entry[1] += misses
    # the pool's own time: its span minus the worker tasks inside it
    tasks = [(s[2], s[3]) for w in workers for s in w["spans"]
             if s[1] == "report.task"]
    pool_self = 0.0
    for _, name, lo, hi, _ in main["spans"]:
        if name == "report.pool":
            inside = [(max(a, lo), min(b, hi)) for a, b in tasks]
            pool_self += (hi - lo) - _union(inside)
    if "report.pool" in stats:
        stats["report.pool"][2] = pool_self
    return {"stats": stats, "keys": keys, "counts": counts, "cache": cache,
            "workers": len(workers)}


def layer_value(trace, function, kind):
    stats = trace["stats"].get(function, [0, 0.0, 0.0])
    if kind == "calls":
        return stats[0], "count"
    if kind == "self_s":
        return stats[2], "s"
    if kind == "wall_s":
        return stats[1], "s"
    if kind == "distinct_ratio":
        calls = stats[0]
        return (len(trace["keys"].get(function, ())) / calls
                if calls else 0.0), "ratio"
    if kind == "hit_ratio":
        hits, misses = trace["cache"].get(function, [0, 0])
        return (hits / (hits + misses) if hits + misses else 0.0), "ratio"
    if kind in ("nfev", "steps"):
        return trace["counts"].get(function, {}).get(kind, 0), "count"
    raise BenchError(f"unknown metric kind {kind!r}")


def run_traced(tmp, workload, flags, seed, ref, table):
    flags = rep_flags(flags, seed, 0)
    deadline = time.monotonic() + DEADLINE_S
    plain = launch(tmp, "run", flags, deadline)
    trace_dir = os.path.join(tmp, "trace")
    os.makedirs(trace_dir)
    traced = launch(tmp, f"trace:{trace_dir}", flags, deadline)
    trace = merge_trace(trace_dir)
    correct, failed = True, 0
    for label, run in (("untraced", plain), ("traced", traced)):
        verdict = check_report(run, ref, table)
        print_delta(label, verdict["delta"])
        failed = max(failed, verdict["failed"])
        correct = correct and verdict["failed"] == 0 and verdict["exit_ok"]
    from dsvac.report import diff_reports

    same = diff_reports(plain["report"], traced["report"])
    print(f"  dsvac diff untraced traced: empty={same['empty']}")
    correct = correct and same["empty"]
    metrics, silent = {}, []
    for group in tracing.load_layers():
        for metric in group["metrics"]:
            function, kind = tracing.split_metric(metric)
            metrics[metric] = layer_value(trace, function, kind)
            if kind in ("nfev", "steps"):   # also catches an unwrapped solver
                recorded = metrics[metric][0]
            else:
                recorded = trace["stats"].get(function, [0])[0]
            if workload in group["workloads"] and not recorded:
                silent.append(metric)
    if silent:
        print(f"  self-test: no calls recorded for {sorted(silent)}")
    correct = correct and not silent
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"  untraced wall {plain['wall_s']:.3f} s, traced wall "
          f"{traced['wall_s']:.3f} s, overhead {overhead:.3f} s; "
          f"{trace['workers']} pool workers merged")
    print_shares(trace)
    return metrics, failed, correct


def print_shares(trace):
    """Self time per module and per layer group, as shares of the self time
    of all wrapped calls in all processes."""
    total = sum(self_s for _, _, self_s in trace["stats"].values())
    by_module = {}
    for name, (_, _, self_s) in trace["stats"].items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    print(f"  traced self time {total:.3f} s; by module: " + ", ".join(
        f"{m} {s / total:.1%}" for m, s in
        sorted(by_module.items(), key=lambda kv: -kv[1])))
    top = sorted(trace["stats"].items(), key=lambda kv: -kv[1][2])[:10]
    print("  top self time: " + ", ".join(
        f"{name} {stats[2]:.2f} s/{stats[0]}" for name, stats in top))
    for group in tracing.load_layers():
        functions = {tracing.split_metric(m)[0] for m in group["metrics"]}
        self_s = sum(trace["stats"].get(f, [0, 0.0, 0.0])[2]
                     for f in functions)
        print(f"  layer {group['layer']}: {self_s:.3f} s, "
              f"{self_s / total:.1%}")


# -- command line -------------------------------------------------------------

def bench(workload, seed, seconds, trace):
    flags = WORKLOADS[workload]
    ref, table = load_reference(workload)
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    try:
        command = " ".join(["dsvac run", *flags, f"--seed {100 * seed}+i"])
        print(f"{workload}: {command}; reference has "
              f"{len(ref['records'])} checks")
        if trace:
            metrics, failed, correct = run_traced(tmp, workload, flags, seed,
                                                  ref, table)
        else:
            metrics, failed, correct = run_untraced(tmp, flags, seed, seconds,
                                                    ref, table)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = len(ref["records"])
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  checks_failed_share = {failed}/{attempted} = "
          f"{failed / attempted:.6g}; correct = {correct}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u) in metrics.items()}}


def main():
    if not os.path.isfile(os.path.join(SRC, "dsvac", "cli.py")):
        raise BenchError("no src/dsvac here; run from the repository root")
    sys.path.insert(0, SRC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = bench(name, args.seed, args.seconds, args.trace)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        sys.exit(f"perfbench: {exc}")
