"""Output checks, run by the parent after the timed loop.

Each check takes the operations of one run and returns the set of
operation indices that failed, with a reason for each.  An operation
fails when it raised, exited non-zero, or its output is wrong; the
parent counts failures against attempted operations.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import (BOUNDS_TOL, MASS, MODE_COUNT, pair_families, single_packet)

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Acceptance-criterion tolerances reused here.
FACTORIZATION_TOL = 1e-8          # criterion 7
EXCHANGE_TOL = 1e-10              # criterion 8
RECT_M2_TOL, DISK_M_TOL = 0.01, 0.02   # criterion 9
ORACLE_FLOOR = 1e-12              # criterion 10: max(10 tol |I|, 1e-12)
# A grid supremum of P inherits twice the amplitude tolerance; allow ten
# times that before calling a stored constant C changed.
BOUND_C_TOL = 20.0 * BOUNDS_TOL
ORACLE_PHASE_STEP = 0.01          # radians of phase per Simpson interval
ORACLE_MIN_INTERVALS = 2_000_000
EXCHANGE_SAMPLE = {"separable": 2, "correlated": 2}
SINGLE_SAMPLE = {"point": 4, "scan": 2}


# ----------------------------------------------------------------------
# pair_points
# ----------------------------------------------------------------------

def check_pair_points(ops: list[dict], rng: np.random.Generator, wg) -> dict[int, str]:
    """Separable calls against single-photon products; exchange on a subsample."""
    d = wg.DispersionRelation(MASS)
    fams = pair_families(wg.wavepackets)
    sep = fams["separable"]
    bad = _raised(ops)

    def amp(rec):
        return complex(rec["re"], rec["im"])

    for i, rec in enumerate(ops):
        if i in bad or rec["family"] != "separable":
            continue
        p1 = wg.SpacetimePoint(rec["z1"], rec["t1"])
        p2 = wg.SpacetimePoint(rec["z2"], rec["t2"])

        def single(packet, pt):
            return wg.amplitude_single(packet, d, pt, rel_tol=1e-12).value

        expected = (single(sep.packet1, p1) * single(sep.packet2, p2)
                    + single(sep.packet1, p2) * single(sep.packet2, p1))
        rel = abs(amp(rec) - expected) / abs(expected)
        if not rel <= FACTORIZATION_TOL:
            bad[i] = f"separable factorization mismatch {rel:.2e} > {FACTORIZATION_TOL:g}"

    for family, n in EXCHANGE_SAMPLE.items():
        pool = [i for i, r in enumerate(ops) if r["family"] == family and i not in bad]
        for i in rng.choice(pool, size=min(n, len(pool)), replace=False):
            rec = ops[i]
            swapped = wg.amplitude_biphoton(
                fams[family], d, wg.SpacetimePoint(rec["z2"], rec["t2"]),
                wg.SpacetimePoint(rec["z1"], rec["t1"]), rel_tol=rec["rel_tol"]).value
            rel = abs(swapped - amp(rec)) / abs(amp(rec))
            if not rel <= EXCHANGE_TOL:
                bad[int(i)] = f"{family} exchange asymmetry {rel:.2e} > {EXCHANGE_TOL:g}"
    return bad


# ----------------------------------------------------------------------
# single_rays
# ----------------------------------------------------------------------

def simpson_amplitude(packet, z: float, t: float) -> complex:
    """Dense composite-Simpson oracle for A(z, t) (the criterion-10 method).

    The interval count keeps the phase advance per interval at
    ORACLE_PHASE_STEP; the sum is streamed in blocks to bound memory.
    """
    lo, hi = packet.support
    rate = max(abs(z - t * k / math.hypot(k, MASS)) for k in (lo, hi))
    n = max(ORACLE_MIN_INTERVALS, int(math.ceil((hi - lo) * rate / ORACLE_PHASE_STEP)))
    n += n % 2
    h = (hi - lo) / n
    total = 0.0 + 0.0j
    block = 1 << 20
    for i0 in range(0, n + 1, block):
        idx = np.arange(i0, min(i0 + block, n + 1))
        k = lo + idx * h
        w = np.where((idx == 0) | (idx == n), 1.0, np.where(idx % 2 == 1, 4.0, 2.0))
        om = np.hypot(k, MASS)
        f = packet(k) / (2.0 * np.sqrt(2.0 * np.pi * om)) * np.exp(1j * (k * z - om * t))
        total += complex(np.dot(w, f))
    return total * h / 3.0


def check_single_rays(ops: list[dict], rng: np.random.Generator, wg) -> dict[int, str]:
    """A seeded subsample against the dense Simpson oracle."""
    packet = single_packet(wg.wavepackets)
    bad = _raised(ops)
    for op, n in SINGLE_SAMPLE.items():
        pool = [i for i, r in enumerate(ops) if r["op"] == op and i not in bad]
        for i in rng.choice(pool, size=min(n, len(pool)), replace=False):
            rec = ops[int(i)]
            if op == "point":
                oracle = simpson_amplitude(packet, rec["z"], rec["t"])
                delta = max(10 * rec["rel_tol"] * abs(oracle), ORACLE_FLOOR)
                a = abs(oracle)
                miss = abs(rec["p"] - a * a) - (2 * a * delta + delta * delta)
                where = f"P(z={rec['z']:.6g}, t={rec['t']:.6g})"
            else:
                amps = np.asarray(rec["re"]) + 1j * np.asarray(rec["im"])
                j = int(rng.integers(amps.size))
                z = float(np.linspace(rec["z_min"], rec["z_max"], rec["z_count"])[j])
                oracle = simpson_amplitude(packet, z, rec["t"])
                # scans promise rel_tol against the largest amplitude on the grid
                delta = max(10 * rec["rel_tol"] * float(np.abs(amps).max()), ORACLE_FLOOR)
                miss = abs(amps[j] - oracle) - delta
                where = f"scan A(z={z:.6g}, t={rec['t']:.6g})"
            if not miss <= 0:
                bad[int(i)] = f"{where} outside the Simpson-oracle bound by {miss:.2e}"
    return bad


# ----------------------------------------------------------------------
# modes_fd
# ----------------------------------------------------------------------

def _modes_csv(out_dir: Path) -> list[float]:
    with open(out_dir / "modes.csv", newline="", encoding="utf-8") as fh:
        return [float(row["m_squared"]) for row in csv.DictReader(fh)]


def check_modes_fd(ops: list[dict], rng: np.random.Generator, wg) -> dict[int, str]:
    """Rectangle and disk eigenvalues against the closed-form spectra."""
    bad = _cli_failures(ops)
    for i, rec in enumerate(ops):
        if i in bad:
            continue
        try:
            m2 = np.asarray(_modes_csv(Path(rec["dir"]) / "out"))
        except (OSError, KeyError, ValueError) as exc:
            bad[i] = f"unreadable modes.csv: {exc}"
            continue
        if m2.size != MODE_COUNT or not (np.diff(m2) >= 0).all() or not (m2 > 0).all():
            bad[i] = f"expected {MODE_COUNT} positive ascending eigenvalues, got {m2}"
            continue
        p = rec["params"]
        if rec["shape"] == "rectangle":
            exact = wg.analytic_spectrum(wg.Rectangle(p["a"], p["b"]), MODE_COUNT)
            err = np.abs(m2 / exact.cutoff_masses ** 2 - 1).max()
            tol = RECT_M2_TOL
        elif rec["shape"] == "disk":
            exact = wg.analytic_spectrum(wg.Disk(p["radius"]), MODE_COUNT)
            err = np.abs(np.sqrt(m2) / exact.cutoff_masses - 1).max()
            tol = DISK_M_TOL
        else:
            continue
        if not err < tol:
            bad[i] = f"{rec['shape']} spectrum off the closed form by {err:.2%} (limit {tol:.0%})"
    return bad


# ----------------------------------------------------------------------
# pair_bound
# ----------------------------------------------------------------------

def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def bound_outputs(out_dir: Path) -> dict:
    """C, violation, drift and light-cone verdict from a `wgcorr bounds` run."""
    with open(out_dir / "bound_fits.csv", newline="", encoding="utf-8") as fh:
        row = next(r for r in csv.DictReader(fh) if r["bound_kind"] == "two_photon_universal")
    title = (out_dir / "lightcone_scan.svg").read_text(encoding="utf-8")
    verdict = re.search(r"verdict: (\w+)", title)
    return {"constant": float(row["constant"]),
            "max_violation": float(row["max_violation"]),
            "refinement_drift": float(row["refinement_drift"]),
            "verdict": verdict.group(1) if verdict else "missing"}


def check_pair_bound(ops: list[dict], rng: np.random.Generator, wg,
                     references: dict | None = None) -> dict[int, str]:
    refs = load_references() if references is None else references
    bad = _cli_failures(ops)
    for i, rec in enumerate(ops):
        if i in bad:
            continue
        try:
            got = bound_outputs(Path(rec["dir"]) / "out")
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            bad[i] = f"unreadable bounds output: {exc}"
            continue
        ref = refs.get(rec["variant"])
        problems = []
        if not got["max_violation"] <= 0:
            problems.append(f"max_violation {got['max_violation']:.3e} > 0")
        if not got["refinement_drift"] < 0.10:
            problems.append(f"refinement_drift {got['refinement_drift']:.3f} >= 0.10")
        if got["verdict"] != "pass":
            problems.append(f"light-cone verdict {got['verdict']}")
        if ref is None:
            problems.append(f"no stored reference C for variant {rec['variant']}")
        elif not abs(got["constant"] - ref) <= BOUND_C_TOL * abs(ref):
            problems.append(f"C = {got['constant']:.9e} differs from the stored "
                            f"{ref:.9e} by more than {BOUND_C_TOL:g} relative")
        if problems:
            bad[i] = "; ".join(problems)
    return bad


# ----------------------------------------------------------------------

def _raised(ops) -> dict[int, str]:
    return {i: r["error"] for i, r in enumerate(ops) if "error" in r}


def _cli_failures(ops) -> dict[int, str]:
    bad = {}
    for i, r in enumerate(ops):
        if "error" in r:
            bad[i] = r["error"]
        elif r.get("status") != 0:
            bad[i] = f"exit code {r.get('status')}"
    return bad


CHECKS = {
    "pair_bound": check_pair_bound,
    "pair_points": check_pair_points,
    "single_rays": check_single_rays,
    "modes_fd": check_modes_fd,
}
