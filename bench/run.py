"""wgcorr benchmark: seeded workloads, end-to-end metrics, traced layer split.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  One client process (this one) drives a
closed loop: it starts the next job only after the previous one has
returned, and every job runs in fresh child interpreters (child.py), so
set-up is paid and measured the way a user pays it.  Each run:

1. starts SETUP_PROBES children that only import the program;
2. runs whole jobs back to back and stops at the job boundary nearest
   ``--seconds`` into the window, once the workload's minimum job and
   call counts are met (a job never stops half way);
3. checks the outputs (checks.py) outside the timed section;
4. prints one line per metric with its unit and sample count, writes
   ``.bench_out/<workload>-seed<N>-trace<T>/result.json``, and prints the
   result as one JSON object on the last line.

With ``--trace 1`` the probes run under ``python -X importtime``, the
first job runs untraced and the rest traced (spans.py); the metrics are
the per-layer ones, medians over the traced jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from workloads import WORKLOADS  # noqa: E402  (sibling module)

SETUP_PROBES = 2
LAST_JOB_START_S = 120.0    # no job starts later than this into a run
RUN_DEADLINE_S = 170.0      # children are killed past this point
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB",
                    "call_p50_ms": "ms", "call_p90_ms": "ms"}
LAYER_UNITS_OVERRIDE = {"quadrature.contract_flop": "flop",
                        "quadrature.envelope_bytes": "B",
                        "quadrature.flop_per_byte": "flop/B",
                        "quadrature.final_level_share": "ratio",
                        "wavepackets.ns_per_point": "ns"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS_OVERRIDE:
        return LAYER_UNITS_OVERRIDE[name]
    return "s" if name.endswith("_s") else "count"


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def blas_thread_count(nproc: int) -> int:
    """Requested BLAS threads (environment, else nproc), capped at nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            return max(1, min(int(os.environ[var]), nproc))
        except (KeyError, ValueError):
            continue
    return nproc


def environment() -> dict:
    import scipy
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = " ".join(str(blas.get(k, "")) for k in
                              ("name", "version", "openblas configuration")).strip()
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_build": blas_build, "nproc": nproc,
            "cpu_model": cpu, "blas_threads": blas_thread_count(nproc)}


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------

def spawn(child_dir: Path, spec: dict, env: dict, deadline: float,
          importtime: bool = False) -> dict:
    """Run one child to completion; returns its result plus parent timings."""
    child_dir.mkdir(parents=True)
    for name, text in spec.get("files", {}).items():
        (child_dir / name).write_text(text.replace("{job_dir}", str(child_dir)),
                                      encoding="utf-8")
    (child_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "child.py"), str(child_dir)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "child killed at the run deadline",
                "latency_ms": (time.perf_counter() - t_spawn) * 1e3}
    latency_ms = (time.perf_counter() - t_spawn) * 1e3
    result_file = child_dir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exit {proc.returncode}: {tail[0]}", "latency_ms": latency_ms}
    res = json.loads(result_file.read_text(encoding="utf-8"))
    res["setup_s"] = res["t_imported"] - t_spawn
    res["latency_ms"] = latency_ms
    res["stderr"] = proc.stderr if importtime else ""
    return res


def import_split(stderr: str, entry: str) -> dict:
    """Cumulative import times (s) from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"cli.import_s": cumulative.get(entry, 0.0),
            "bounds.import_s": cumulative.get("wgcorr.bounds", 0.0),
            "modes.import_s": cumulative.get("wgcorr.modes", 0.0)}


def job_operations(spec: dict, res: dict, child_dir: Path) -> list[dict]:
    """The operations one child contributes, each with a latency in ms."""
    if spec["kind"] == "cli":
        op = {k: v for k, v in spec.items() if k not in ("files", "entry", "trace")}
        op.update(dir=str(child_dir), ms=res["latency_ms"], status=res.get("status"))
        if "error" in res:
            op["error"] = res["error"]
        return [op]
    if "error" in res:
        return [dict(call, error=res["error"], ms=float("nan")) for call in spec["calls"]]
    return res["records"]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    wl = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env_info = environment()
    env = child_env(env_info["blas_threads"])
    t_run = time.perf_counter()
    deadline = t_run + RUN_DEADLINE_S

    probes = [spawn(run_dir / f"probe{k}", {"kind": "probe", "entry": wl["entry"],
                                             "trace": False, "run_id": f"probe{k}"},
                    env, deadline, importtime=trace)
              for k in range(SETUP_PROBES)]

    jobs, ops = [], []
    t_window = time.perf_counter()
    while True:
        j = len(jobs)
        traced = trace and j > 0
        job = {"index": j, "traced": traced, "work_s": 0.0, "children": []}
        t_job = time.perf_counter()
        for c, spec in enumerate(wl["job"](seed, j, tiny)):
            spec = dict(spec, entry=wl["entry"], trace=traced,
                        run_id=f"{run_dir.name}/job{j}/child{c}")
            child_dir = run_dir / f"job{j}-{c}"
            res = spawn(child_dir, spec, env, deadline)
            job["work_s"] += res.get("work_s", float("nan"))
            job["children"].append({k: res[k] for k in
                                    ("setup_s", "maxrss_kb", "latency_ms", "layers", "error")
                                    if k in res})
            ops.extend(job_operations(spec, res, child_dir))
        now = time.perf_counter()
        job["wall_s"] = now - t_job
        jobs.append(job)
        # Stop at the job boundary nearest the window's end: start another
        # job only if it is expected to end less than half a job past it.
        typical_s = statistics.median(jb["wall_s"] for jb in jobs)
        done = (now - t_window + typical_s / 2 >= seconds and (not trace or len(jobs) > 1)
                and (tiny or (len(jobs) >= wl["min_jobs"] and len(ops) >= wl["min_calls"])))
        if done or now - t_run > LAST_JOB_START_S:
            break
    window_s = time.perf_counter() - t_window
    (run_dir / "operations.json").write_text(json.dumps(ops), encoding="utf-8")

    # output checks, outside the timed section
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wgcorr
    from checks import CHECKS
    bad = CHECKS[name](ops, np.random.default_rng([seed, 0xC4]), wgcorr)

    children = [c for job in jobs for c in job["children"]]
    samples = {
        "setup_s": [p["setup_s"] for p in probes if "setup_s" in p]
                   + [c["setup_s"] for c in children if "setup_s" in c],
        "job_s": [job["work_s"] for job in jobs if not trace or not job["traced"]],
        "peak_rss_mb": [c["maxrss_kb"] / 1024.0 for c in children if "maxrss_kb" in c],
        "latency_ms": [op["ms"] for op in ops if np.isfinite(op.get("ms", np.nan))],
    }
    if trace:
        metrics, counts = layer_metrics(jobs, probes, wl["entry"], samples["job_s"])
    else:
        metrics, counts = end_to_end_metrics(samples)

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "environment": env_info,
        "correct": not bad, "attempted": len(ops), "failed": len(bad),
        "failed_frac": len(bad) / len(ops) if ops else 1.0,
        "failures": {str(i): why for i, why in sorted(bad.items())},
        "jobs": len(jobs), "window_s": window_s,
        "metrics": {k: {"value": v, "unit": metric_unit(k, trace)} for k, v in metrics.items()},
        "samples": counts,
        "job_times_s": [job["work_s"] for job in jobs],
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def metric_unit(name: str, trace: bool) -> str:
    return layer_unit(name) if trace else END_TO_END_UNITS[name]


class NoSamples(RuntimeError):
    """Every sample of a metric was lost to failed children."""


def finite(values) -> list[float]:
    out = [float(v) for v in values if np.isfinite(v)]
    if not out:
        raise NoSamples("no finite samples; every child of this kind failed")
    return out


def end_to_end_metrics(samples: dict) -> tuple[dict, dict]:
    setup, job, rss, lat = (finite(samples[k]) for k in
                            ("setup_s", "job_s", "peak_rss_mb", "latency_ms"))
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(job),
        "peak_rss_mb": statistics.median(rss),
        "call_p50_ms": float(np.percentile(lat, 50)),
        "call_p90_ms": float(np.percentile(lat, 90)),
    }
    counts = {"setup_s": len(setup), "job_s": len(job), "peak_rss_mb": len(rss),
              "call_p50_ms": len(lat), "call_p90_ms": len(lat)}
    return metrics, counts


def layer_metrics(jobs, probes, entry, untraced_job_s) -> tuple[dict, dict]:
    import spans
    per_job = [spans.finalize(spans.combine([c["layers"] for c in job["children"]
                                             if "layers" in c]))
               for job in jobs if job["traced"]
               if all("layers" in c for c in job["children"])]
    imports = [import_split(p["stderr"], entry) for p in probes if "stderr" in p]
    if not per_job or not imports:
        raise NoSamples("every traced job or every set-up probe failed")
    metrics = {key: statistics.median(job[key] for job in per_job) for key in per_job[0]}
    for key in imports[0]:
        metrics[key] = statistics.median(imp[key] for imp in imports)
    traced_job_s = finite(job["work_s"] for job in jobs if job["traced"])
    metrics["trace.overhead_s"] = (statistics.median(traced_job_s)
                                   - statistics.median(finite(untraced_job_s)))
    counts = {key: len(per_job) for key in metrics}
    counts.update({key: len(imports) for key in imports[0]})
    return metrics, counts


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def print_result(res: dict) -> None:
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']}: {res['jobs']} jobs "
          f"in {res['window_s']:.1f} s, {res['attempted']} operations, {res['failed']} failed "
          f"(failed_frac {res['failed_frac']:.4g})")
    for key, m in res["metrics"].items():
        print(f"{res['workload']:12s} {key:32s} {m['value']:>16.6g} {m['unit']:7s} "
              f"n={res['samples'][key]}")
    for i, why in res["failures"].items():
        print(f"# failed operation {i}: {why}")


def summary_line(res: dict) -> dict:
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: dict(m) for k, m in res["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wgcorr" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except NoSamples as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(res)
        results.append(res)
    env = results[0]["environment"]
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if len(results) == 1:
        line = summary_line(results[0])
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}/{k}": dict(m) for r in results
                            for k, m in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
