"""Regenerate reference.json: the universal-bound constant C per input variant.

    python3 bench/make_reference.py

Runs `wgcorr bounds` once for every pair_bound variant (pump centre x
velocity-grid shift, plus the tiny self-test config) and stores the
fitted C.  The pair_bound check compares each run against these values,
so regenerate them only when a change is meant to move C, and say so
where the change is recorded.
"""

import json
import shutil
import sys
import time

from checks import REFERENCE_FILE, bound_outputs
from run import OUT, child_env, environment, spawn
from workloads import GRID_SHIFTS, PUMP_CENTRE_STEPS, bounds_config, variant_key


def main() -> int:
    env = child_env(environment()["blas_threads"])
    variants = [(round(2.0 + 0.01 * c, 2), s, False)
                for c in PUMP_CENTRE_STEPS for s in GRID_SHIFTS] + [(2.0, 0, True)]
    refs = {}
    for centre, shift, tiny in variants:
        key = variant_key(centre, shift, tiny)
        child_dir = OUT / "reference" / key
        shutil.rmtree(child_dir, ignore_errors=True)
        child_dir.parent.mkdir(parents=True, exist_ok=True)
        spec = {"kind": "cli", "command": "bounds", "entry": "wgcorr.cli",
                "trace": False, "run_id": key, "config": "bounds.ini",
                "files": {"bounds.ini": bounds_config(centre, shift, tiny)}}
        res = spawn(child_dir, spec, env, time.perf_counter() + 600.0)
        if res.get("status") != 0:
            print(f"{key}: {res.get('error', res.get('status'))}", file=sys.stderr)
            return 1
        out = bound_outputs(child_dir / "out")
        refs[key] = out["constant"]
        print(f"{key}: {out} ({res['work_s']:.1f} s)", flush=True)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
