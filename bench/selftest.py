"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

1. A tiny run of every workload, untraced and traced, passes its output
   checks and emits exactly the metrics BENCHMARK.json declares for that
   mode, each with its declared unit and a finite value.
2. For every workload, one deliberately corrupted output is caught by the
   workload's check and counted as a failed operation.

Exits 0 when every test passes, 1 otherwise.
"""

import copy
import csv
import json
import math
import shutil
import sys

import numpy as np

import run
from checks import CHECKS
from workloads import WORKLOADS

SEED = 7


def declared() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def metric_problems(res: dict, want: dict) -> list[str]:
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    problems = [f"missing {k}" for k in want if k not in got]
    problems += [f"undeclared {k}" for k in got if k not in want]
    problems += [f"{k}: unit {got[k]} != {want[k]}" for k in want if k in got and got[k] != want[k]]
    problems += [f"{k}: value {m['value']!r}" for k, m in res["metrics"].items()
                 if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"]))]
    return problems


def _rewrite_csv(src, dst, column, factor, row_filter=lambda row: True):
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    for row in rows:
        if row_filter(row):
            row[column] = repr(float(row[column]) * factor)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def corrupt(name: str, ops: list[dict], scratch) -> list[dict]:
    """A copy of the operations with one output perturbed."""
    ops = copy.deepcopy(ops)
    if name == "pair_points":
        i = next(i for i, op in enumerate(ops) if op["family"] == "separable")
        ops[i]["re"] *= 1.0 + 1e-6
        return ops
    if name == "single_rays":       # the check samples; perturb every P it may pick
        for op in ops:
            if op["op"] == "point":
                op["p"] *= 1.0 + 1e-5
        return ops
    # CLI workloads: perturb a copy of the first invocation's output files
    op = ops[0]
    copy_dir = scratch / "corrupt"
    shutil.copytree(op["dir"], copy_dir)
    if name == "modes_fd":
        _rewrite_csv(f"{op['dir']}/out/modes.csv", copy_dir / "out" / "modes.csv",
                     "m_squared", 1.05)
    else:
        _rewrite_csv(f"{op['dir']}/out/bound_fits.csv", copy_dir / "out" / "bound_fits.csv",
                     "constant", 1.001,
                     lambda row: row["bound_kind"] == "two_photon_universal")
    op["dir"] = str(copy_dir)
    return ops


def main() -> int:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import wgcorr

    want = declared()
    failures = 0

    def report(ok: bool, what: str, detail: str = "") -> None:
        nonlocal failures
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {what}{': ' + detail if detail else ''}", flush=True)

    for name in WORKLOADS:
        for trace in (False, True):
            res = run.run_workload(name, SEED, 0.0, trace, tiny=True)
            problems = metric_problems(res, want[trace])
            if res["failed"]:
                problems.append(f"failed operations {res['failures']}")
            report(not problems, f"{name} tiny run, trace={int(trace)}", "; ".join(problems))

        run_dir = run.OUT / f"{name}-seed{SEED}-trace0-tiny"
        ops = json.loads((run_dir / "operations.json").read_text(encoding="utf-8"))
        scratch = run_dir / "selftest"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir()
        rng = np.random.default_rng([SEED, 0xC4])
        bad = CHECKS[name](corrupt(name, ops, scratch), rng, wgcorr)
        report(bool(bad), f"{name} corrupted output caught",
               f"failed_frac {len(bad)}/{len(ops)}; " + "; ".join(bad.values()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
