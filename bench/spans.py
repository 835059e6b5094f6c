"""Span tracing for the traced benchmark run, from outside the program.

``install`` wraps each public function of the program at the name its
caller looks it up by (``wgcorr.cli.fit_universal_bound``,
``wgcorr.quadrature.oscillation_breakpoints``, ...) and wraps the packet
and pair ``__call__`` at class level.  Every wrapped call records a span
(name, start, end, parent span, run id) in memory; ``dump`` writes them
out when the job ends.  A span's self time is its duration minus the
time its child spans cover.

Kernel counts for the 2-D contraction are *computed* from traced node
counts, not measured: complex multiply-adds count 8 flop, real ones 2,
and bytes are the complex128 envelope values each refinement level
materialises.  Cache traffic is not modelled.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict

NODES_PER_PANEL, GAUSS_PER_PANEL = 15, 7

CORRELATOR_FUNCS = (
    "amplitude_single", "probability_single", "asymptotic_single",
    "amplitude_biphoton", "probability_biphoton", "asymptotic_biphoton",
    "entangled_spacetime_profile", "single_scan", "biphoton_scan",
    "momentum_norm", "position_norm", "kg_residual",
)
# quadrature driver -> (span name, dimension)
DRIVERS = {
    "osc_integrate_1d": ("quadrature.point1d", 1),
    "osc_integrate_1d_many": ("quadrature.scan1d", 1),
    "osc_integrate_2d": ("quadrature.tensor2d", 2),
    "osc_tensor_scan": ("quadrature.scan2d", 2),
}
PACKET_CLASSES = ("GaussianPacket", "TablePacket", "SymmetrizedProduct",
                  "CorrelatedGaussian", "PumpedPair")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.phase_rate_calls = 0

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each call records one span named ``name``.

        ``after(span, bound_args, result)`` may add attributes on success.
        """
        spans, stack, run_id = self.spans, self._stack, self.run_id
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "run": run_id,
                    "parent": stack[-1] if stack else None,
                    "start": time.perf_counter(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(span, sig.bind(*args, **kwargs).arguments, out)
                return out
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "phase_rate_calls": self.phase_rate_calls}, fh)


# ----------------------------------------------------------------------
# span attributes taken from arguments and results
# ----------------------------------------------------------------------

def _panelize_attrs(span, args, breaks):
    span["panels"] = len(breaks) - 1


def _driver_attrs(span, args, out):
    if isinstance(out, tuple):               # batched drivers: (..., panels per axis)
        span["panels_final"] = int(out[2])
    elif span["name"] == "quadrature.tensor2d":   # QuadResult over P x P cells
        span["panels_final"] = int(round(math.sqrt(out.panels_used)))
    else:
        span["panels_final"] = int(out.panels_used)
    if "z1_values" in args:
        span["n1"] = int(len(args["z1_values"]))
        span["n2"] = int(len(args["z2_values"]))


def _envelope_attrs(span, args, out):
    span["points"] = int(getattr(out, "size", 1))


def _spectrum_attrs(span, args, out):
    span["unknowns"] = int(out.node_x.size)


def install(run_id: str) -> Tracer:
    """Wrap the program's public functions; returns the recording tracer."""
    import wgcorr.bounds as bounds
    import wgcorr.cli as cli
    import wgcorr.correlators as correlators
    import wgcorr.quadrature as quadrature
    import wgcorr.svgplot as svgplot
    import wgcorr.wavepackets as wavepackets
    from wgcorr.dispersion import DispersionRelation

    tr = Tracer(run_id)

    def patch(module, attr, name, after=None):
        if hasattr(module, attr):
            setattr(module, attr, tr.wrap(name, getattr(module, attr), after))

    patch(cli, "main", "cli.main")
    patch(cli, "write_csv", "cli.output")
    patch(svgplot, "line_plot", "cli.output")
    for attr in ("fit_universal_bound", "check_lightcone_decay"):
        patch(cli, attr, f"bounds.{attr}")
    patch(cli, "fd_spectrum", "modes.fd_spectrum", _spectrum_attrs)
    patch(cli, "analytic_spectrum", "modes.analytic_spectrum")
    for module in (cli, wavepackets):
        for attr in ("normalize_biphoton", "normalized_packet"):
            patch(module, attr, "wavepackets.normalize")
    for module in (cli, bounds, correlators):
        for attr in CORRELATOR_FUNCS:
            patch(module, attr, f"correlators.{attr}")
    for module in (correlators, wavepackets):
        for attr, (name, _) in DRIVERS.items():
            patch(module, attr, name, _driver_attrs)
    patch(quadrature, "oscillation_breakpoints", "quadrature.panelize", _panelize_attrs)
    for cls_name in PACKET_CLASSES:
        cls = getattr(wavepackets, cls_name)
        cls.__call__ = tr.wrap("wavepackets.envelope", cls.__call__, _envelope_attrs)

    phase_rate = DispersionRelation.phase_rate

    @functools.wraps(phase_rate)
    def counted(self, k, z, t):
        tr.phase_rate_calls += 1
        return phase_rate(self, k, z, t)
    DispersionRelation.phase_rate = counted
    return tr


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def _tensor_counts(p0: int, pf: int, n1: int, n2: int) -> tuple[float, float]:
    """Computed flop and envelope bytes of one 2-D driver call, all levels."""
    flop = nbytes = 0.0
    levels = max(int(round(math.log2(pf / p0))), 0) if p0 else 0
    for level in range(levels + 1):
        n = NODES_PER_PANEL * p0 * 2 ** level
        g = GAUSS_PER_PANEL * p0 * 2 ** level
        flop += 8.0 * n * n * n2 + 8.0 * n * n1 * n2 + 2.0 * n * n
        flop += 8.0 * g * g * n2 + 8.0 * g * n1 * n2
        nbytes += 16.0 * n * n
    return flop, nbytes


ADDITIVE = (
    "quadrature.panelize_s", "quadrature.panelize_calls", "quadrature.panels_initial",
    "dispersion.phase_rate_calls", "quadrature.point1d_self_s", "quadrature.scan1d_self_s",
    "quadrature.tensor2d_self_s", "quadrature.scan2d_self_s", "quadrature.panels_final",
    "quadrature.levels", "quadrature.errors", "quadrature.contract_flop",
    "quadrature.envelope_bytes", "wavepackets.points", "wavepackets.envelope_s",
    "wavepackets.normalize_s", "correlators.calls", "correlators.self_s", "bounds.self_s",
    "bounds.spa_calls", "modes.solve_s", "modes.unknowns", "cli.output_s", "cli.self_s",
    "_accepted_points", "_driver_points",
)


def layer_totals(spans: list[dict], phase_rate_calls: int) -> dict:
    """Additive per-layer totals of one process (see ``finalize`` for ratios)."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children[s["id"]])

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else ""

    t = dict.fromkeys(ADDITIVE, 0.0)
    t["dispersion.phase_rate_calls"] = float(phase_rate_calls)
    t["quadrature.nodes_axis_max"] = 0.0
    self_keys = {name: f"quadrature.{name.split('.')[1]}_self_s"
                 for name, _ in DRIVERS.values()}
    dims = dict(DRIVERS.values())
    for s in spans:
        name = s["name"]
        if name == "quadrature.panelize":
            t["quadrature.panelize_s"] += dur(s)
            t["quadrature.panelize_calls"] += 1
            t["quadrature.panels_initial"] += s.get("panels", 0)
        elif name in self_keys:
            t[self_keys[name]] += self_time(s)
            if s.get("error") == "QuadratureError":
                t["quadrature.errors"] += 1
            if "panels_final" not in s:
                continue
            pf = s["panels_final"]
            p0 = next((c["panels"] for c in children[s["id"]]
                       if c["name"] == "quadrature.panelize" and "panels" in c), pf)
            dim = dims[name]
            t["quadrature.panels_final"] += pf
            t["quadrature.levels"] += math.log2(pf / p0) if p0 else 0.0
            t["quadrature.nodes_axis_max"] = max(t["quadrature.nodes_axis_max"],
                                                 NODES_PER_PANEL * pf)
            t["_accepted_points"] += float(NODES_PER_PANEL * pf) ** dim
            t["_driver_points"] += sum(c.get("points", 0) for c in children[s["id"]]
                                       if c["name"] == "wavepackets.envelope")
            if dim == 2:
                flop, nbytes = _tensor_counts(p0, pf, s.get("n1", 1), s.get("n2", 1))
                t["quadrature.contract_flop"] += flop
                t["quadrature.envelope_bytes"] += nbytes
        elif name == "wavepackets.envelope":
            if parent_name(s) != name:              # outermost envelope call only
                t["wavepackets.points"] += s.get("points", 0)
                t["wavepackets.envelope_s"] += dur(s)
        elif name == "wavepackets.normalize":
            if parent_name(s) != name:
                t["wavepackets.normalize_s"] += dur(s)
        elif name.startswith("correlators."):
            t["correlators.self_s"] += self_time(s)
            if not parent_name(s).startswith("correlators."):
                t["correlators.calls"] += 1
            if name == "correlators.asymptotic_biphoton":
                t["bounds.spa_calls"] += 1
        elif name.startswith("bounds."):
            t["bounds.self_s"] += self_time(s)
        elif name.startswith("modes."):
            t["modes.solve_s"] += dur(s)
            t["modes.unknowns"] += s.get("unknowns", 0)
        elif name == "cli.output":
            t["cli.output_s"] += dur(s)
        elif name == "cli.main":
            t["cli.self_s"] += self_time(s)
    return t


def combine(totals: list[dict]) -> dict:
    """Totals of several processes that make up one job."""
    out = dict.fromkeys(ADDITIVE, 0.0)
    out["quadrature.nodes_axis_max"] = 0.0
    for t in totals:
        for key in ADDITIVE:
            out[key] += t[key]
        out["quadrature.nodes_axis_max"] = max(out["quadrature.nodes_axis_max"],
                                               t["quadrature.nodes_axis_max"])
    return out


def finalize(t: dict) -> dict:
    """Public per-layer metrics of one job, ratios included."""
    out = {k: v for k, v in t.items() if not k.startswith("_")}
    out["quadrature.final_level_share"] = (
        t["_accepted_points"] / t["_driver_points"] if t["_driver_points"] else 0.0)
    out["quadrature.flop_per_byte"] = (
        t["quadrature.contract_flop"] / t["quadrature.envelope_bytes"]
        if t["quadrature.envelope_bytes"] else 0.0)
    out["wavepackets.ns_per_point"] = (
        1e9 * t["wavepackets.envelope_s"] / t["wavepackets.points"]
        if t["wavepackets.points"] else 0.0)
    return out
