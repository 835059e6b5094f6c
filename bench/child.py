"""One benchmark child process: import the program, run one job spec.

    python3 bench/child.py CHILD_DIR

CHILD_DIR holds ``spec.json`` written by run.py.  The child imports the
spec's entry module first (the parent times set-up from spawn to the
``t_imported`` stamp below), then runs the spec and writes
``result.json`` next to it.  perf_counter is CLOCK_MONOTONIC on Linux, so
its stamps compare across processes.
"""

import json
import resource
import sys
import time
from pathlib import Path


def run_cli(spec, child_dir, cli):
    argv = [spec["command"], "--config", str(child_dir / spec["config"]),
            "--out", str(child_dir / "out")]
    return {"status": cli.main(argv)}


def run_pair_points(spec, child_dir, wg):
    from workloads import MASS, pair_families

    d = wg.DispersionRelation(MASS)
    families = pair_families(wg.wavepackets)
    records = []
    for call in spec["calls"]:
        rec = dict(call)
        t0 = time.perf_counter()
        try:
            r = wg.correlators.amplitude_biphoton(
                families[call["family"]], d,
                wg.SpacetimePoint(call["z1"], call["t1"]),
                wg.SpacetimePoint(call["z2"], call["t2"]), rel_tol=call["rel_tol"])
            rec.update(re=r.value.real, im=r.value.imag, err=r.error_estimate)
        except Exception as exc:   # a failed call is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["ms"] = (time.perf_counter() - t0) * 1e3
        records.append(rec)
    (child_dir / "calls.json").write_text(json.dumps(records))
    return {"records": records}


def run_single_rays(spec, child_dir, wg):
    import numpy as np
    from workloads import MASS, single_packet

    d = wg.DispersionRelation(MASS)
    packet = single_packet(wg.wavepackets)
    records = []
    for call in spec["calls"]:
        rec = dict(call)
        t0 = time.perf_counter()
        try:
            if call["op"] == "point":
                p, err = wg.correlators.probability_single(
                    packet, d, wg.SpacetimePoint(call["z"], call["t"]),
                    rel_tol=call["rel_tol"])
                rec.update(p=p, err=err)
            else:
                z = np.linspace(call["z_min"], call["z_max"], call["z_count"])
                res = wg.correlators.single_scan(packet, d, z, call["t"],
                                                 rel_tol=call["rel_tol"])
                rec.update(re=res.amplitudes.real.tolist(), im=res.amplitudes.imag.tolist())
        except Exception as exc:   # a failed call is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["ms"] = (time.perf_counter() - t0) * 1e3
        records.append(rec)
    (child_dir / "calls.json").write_text(json.dumps(records))
    return {"records": records}


RUNNERS = {"probe": lambda spec, child_dir, program: {}, "cli": run_cli,
           "pair_points": run_pair_points, "single_rays": run_single_rays}


def main(child_dir: Path) -> int:
    spec = json.loads((child_dir / "spec.json").read_text())
    __import__(spec["entry"])   # not importlib: -X importtime only logs this path
    program = sys.modules[spec["entry"]]
    t_imported = time.perf_counter()
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.install(spec["run_id"])
    t0 = time.perf_counter()
    out = RUNNERS[spec["kind"]](spec, child_dir, program)
    work_s = time.perf_counter() - t0
    result = {"t_imported": t_imported, "work_s": work_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, **out}
    if tracer is not None:
        tracer.dump(child_dir / "spans.json")
        result["layers"] = spans.layer_totals(tracer.spans, tracer.phase_rate_calls)
    (child_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
