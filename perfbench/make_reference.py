"""Write the reference verdicts that ``run.py`` checks every report against.

    python3 perfbench/make_reference.py            # from the repository root

For each workload it runs ``dsvac run`` once at ``REFERENCE_SEED`` and keeps
``[suite, check_id, sector, verdict, residual]`` of every record, known
failures included: they are the workload's baseline.  The
method-independence checks draw their sectors from ``--seed``, so it also
tabulates that check for every candidate sector up to the largest ``k_max``
of the workloads, computed as ``dsvac.report._suite_oracle`` computes it.
Rerun it only when a change of verdicts is intended, and say why.
"""

import json
import os
import sys
import tempfile
import time

import run as bench

REFERENCE_SEED = 2026


def _rows(report):
    return [[r["suite"], r["check_id"], r["sector"], r["verdict"],
             r["residual"]] for r in report["records"]]


def method_independence_table(k_max):
    from dsvac import cauchy as cy
    from dsvac.calderon import principal_angle
    from dsvac.collocation import collocation_regular_basis
    from dsvac.maxwell import maxwell_sectors
    from dsvac.radial import build_system, regular_basis
    from dsvac.sectors import enumerate_sectors
    from dsvac.warped import EUCLIDEAN

    candidates = [(s, "D2", False) for s in enumerate_sectors(k_max)]
    candidates += [(s, "D1", True) for s in maxwell_sectors(k_max)
                   if cy.DataLayout(s, 1).size]
    table = {}
    for sec, op, mx in candidates:
        system = build_system(op, sec, EUCLIDEAN, maxwell=mx)
        frob = regular_basis(system).data_matrix
        coll, _ = collocation_regular_basis(system)
        ang = principal_angle(frob, coll)
        check_id = f"method-independence-{op}{'M' if mx else ''}"
        table[f"{check_id}|{sec}"] = [
            "oracle", check_id, str(sec), "pass" if ang <= 1e-9 else "fail",
            float(ang)]
        print(f"{check_id} {sec}: {ang:.3e}", file=sys.stderr)
    return table


def main():
    sys.path.insert(0, bench.SRC)
    from dsvac.report import RunConfig

    os.makedirs(bench.REFERENCE, exist_ok=True)
    os.makedirs(bench.SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.SCRATCH) as tmp:
        for workload, flags in bench.WORKLOADS.items():
            run = bench.launch(tmp, "run", flags + ["--seed",
                                                    str(REFERENCE_SEED)],
                               time.monotonic() + bench.DEADLINE_S)
            report = run["report"]
            ref = {"seed": REFERENCE_SEED, "flags": flags,
                   "schema_version": report["schema_version"],
                   "summary": report["summary"], "records": _rows(report)}
            with open(os.path.join(bench.REFERENCE, f"{workload}.json"),
                      "w") as fh:
                json.dump(ref, fh, indent=0)
            print(f"{workload}: {report['summary']}", file=sys.stderr)
    k_max = max(int(flags[flags.index("--k-max") + 1])
                if "--k-max" in flags else RunConfig().k_max
                for flags in bench.WORKLOADS.values())
    with open(os.path.join(bench.REFERENCE, "method-independence.json"),
              "w") as fh:
        json.dump(method_independence_table(k_max), fh, indent=0)


if __name__ == "__main__":
    main()
