"""Batch command line front end.

Subcommands read a sectioned key = value configuration file, run the
requested computation and write deterministic CSV tables (stable column
order, 17-significant-digit floats) plus static SVG line plots into the
output directory.  The defaults-resolved configuration is echoed to
``config_effective.ini`` so every run can be reproduced from its own
output directory byte for byte.

    wgcorr modes    --config cfg.ini [--out DIR]
    wgcorr single   --config cfg.ini ...
    wgcorr biphoton --config cfg.ini ...
    wgcorr bounds   --config cfg.ini ...
    wgcorr validate --config cfg.ini ...
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .bounds import (
    PROBABILITY_FLOOR,
    Ray,
    bound_fit_csv_rows,
    check_lightcone_decay,
    decay_orders,
    fit_universal_bound,
    summarize_bound_fits,
)
from .correlators import (
    SpacetimePoint,
    amplitude_biphoton,
    amplitude_single,
    asymptotic_single,
    biphoton_scan,
    entangled_spacetime_profile,
    kg_residual,
    momentum_norm,
    position_norm,
    probability_biphoton,
    probability_error,
    probability_single,
    single_scan,
)
from .dispersion import DispersionRelation
from .modes import (
    Disk,
    ModeSolverError,
    Rectangle,
    analytic_spectrum,
    fd_spectrum,
    load_raster,
)
from .quadrature import QuadratureError
from .wavepackets import (
    CorrelatedGaussian,
    GaussianPacket,
    PumpedPair,
    SymmetrizedProduct,
    load_table_packet,
    normalize_biphoton,
    normalized_packet,
)


class ConfigError(Exception):
    pass


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(raw)
    return value


def _fmt(value) -> str:
    """CSV cell rendering; floats carry 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (complex, np.complexfloating)):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


class Config:
    """Typed, line-anchored access to an INI file, recording every lookup.

    The record of resolved values (explicit and defaulted) is what gets
    echoed next to the outputs.
    """

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.exists():
            raise ConfigError(f"{path}: configuration file not found")
        self._raw_lines = self.path.read_text().splitlines()
        self._cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            self._cp.read_string("\n".join(self._raw_lines), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        self.resolved: dict[tuple[str, str], str] = {}

    def _line_of(self, section: str, key: str) -> int | None:
        current = None
        for i, ln in enumerate(self._raw_lines, start=1):
            s = ln.strip()
            if s.startswith("[") and s.endswith("]"):
                current = s[1:-1].strip().lower()
            elif current == section.lower() and (
                    s.lower().startswith(key.lower() + " ") or
                    s.lower().startswith(key.lower() + "=") or
                    s.lower().split("=")[0].strip() == key.lower()):
                return i
        return None

    def _fail(self, section, key, message):
        line = self._line_of(section, key)
        anchor = f"{self.path}:{line}" if line else f"{self.path} [{section}] {key}"
        raise ConfigError(f"{anchor}: {message}")

    def has(self, section, key) -> bool:
        return self._cp.has_option(section, key)

    def _get(self, section, key, default, conv, kind, positive=False):
        if self._cp.has_option(section, key):
            raw = self._cp.get(section, key).strip()
            try:
                value = conv(raw)
            except ValueError:
                self._fail(section, key, f"expected {kind}, got {raw!r}")
            if positive and not (np.asarray(value) > 0).all():
                self._fail(section, key, f"{key} must be positive, got {raw!r}")
        elif default is None:
            anchor = f"{self.path}"
            raise ConfigError(f"{anchor}: missing required key [{section}] {key}")
        else:
            value = default
        self.resolved[(section, key)] = self._render(value)
        return value

    @staticmethod
    def _render(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))
        if isinstance(value, tuple):
            return ":".join(Config._render(v) for v in value)
        if isinstance(value, list):
            return ", ".join(Config._render(v) for v in value)
        return str(value)

    def get_str(self, section, key, default=None):
        return self._get(section, key, default, str, "a string")

    def get_float(self, section, key, default=None, positive=False):
        return self._get(section, key, default, _finite_float, "a finite number", positive)

    def get_int(self, section, key, default=None, positive=False):
        return self._get(section, key, default, int, "an integer", positive)

    def get_bool(self, section, key, default=None):
        def conv(raw):
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return self._get(section, key, default, conv, "a boolean")

    def get_floats(self, section, key, default=None):
        def conv(raw):
            return [_finite_float(tok) for tok in raw.replace(";", ",").split(",")
                    if tok.strip()]
        return self._get(section, key, default, conv,
                         "a comma-separated list of finite numbers")

    def get_pairs(self, section, key, default=None, positive=False):
        def conv(raw):
            pairs = []
            for tok in raw.split(","):
                tok = tok.strip()
                if not tok:
                    continue
                a, _, b = tok.partition(":")
                pairs.append((_finite_float(a), _finite_float(b)))
            if not pairs:
                raise ValueError(raw)
            return pairs
        return self._get(section, key, default, conv,
                         "a list of finite pairs like 50:50, 800:800", positive)

    def get_grid(self, section, name, lo=None, hi=None, count=None):
        """``count`` (> 0) points spaced evenly over [``name``_min, ``name``_max]."""
        return np.linspace(self.get_float(section, f"{name}_min", lo),
                           self.get_float(section, f"{name}_max", hi),
                           self.get_int(section, f"{name}_count", count, positive=True))

    def get_rel_tol(self, key, default):
        tol = self.get_float("tolerances", key, default)
        if not 0 < tol < 1:
            self._fail("tolerances", key, f"relative tolerance must lie in (0, 1), got {tol!r}")
        return tol

    def echo(self, path):
        cp = configparser.ConfigParser()
        for (section, key), rendered in self.resolved.items():
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key, rendered)
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)


# ----------------------------------------------------------------------
# model construction from config sections
# ----------------------------------------------------------------------

def resolve_spectrum(cfg: Config, count: int, count_key: str = "count"):
    source = cfg.get_str("mode", "source")
    if source == "rectangle":
        cs = Rectangle(cfg.get_float("mode", "a", positive=True),
                       cfg.get_float("mode", "b", positive=True))
    elif source == "disk":
        cs = Disk(cfg.get_float("mode", "radius", positive=True))
    elif source == "raster":
        try:
            cs = load_raster(cfg.get_str("mode", "file"))
        except OSError as exc:
            cfg._fail("mode", "file", f"cannot read raster file: {exc}")
        except ValueError as exc:  # load_raster anchors its messages to path:line
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError(f"{cfg.path}: [mode] source={source!r} does not define a spectrum")
    solver = cfg.get_str("mode", "solver", "analytic" if source != "raster" else "fd")
    try:
        if solver == "analytic":
            return analytic_spectrum(cs, count)
        spacing = (cfg.get_float("mode", "spacing")
                   if cfg.has("mode", "spacing") or source != "raster" else None)
        return fd_spectrum(cs, count, spacing)  # a raster's own spacing when None
    except ValueError as exc:  # the solver, count or lattice does not suit the section
        key = ("solver" if solver == "analytic" else count_key if "count" in str(exc)
               else "spacing" if cfg.has("mode", "spacing") else "file")
        cfg._fail("mode", key, str(exc))


_SOURCE_KEYS = {"mass": ("mass",), "rectangle": ("a", "b"),
                "disk": ("radius",), "raster": ("file",)}


def resolve_mass(cfg: Config) -> float:
    source = cfg.get_str("mode", "source")
    if source not in _SOURCE_KEYS:
        raise ConfigError(
            f"{cfg.path}: [mode] source must be one of mass/rectangle/disk/raster, "
            f"got {source!r}")
    foreign = [k for s, keys in _SOURCE_KEYS.items() if s != source
               for k in keys if cfg.has("mode", k)]
    if foreign:
        raise ConfigError(
            f"{cfg.path}: [mode] must specify exactly one mass source; "
            f"source={source} conflicts with keys {foreign}")
    if source == "mass":
        return cfg.get_float("mode", "mass", positive=True)
    index = cfg.get_int("mode", "index", 1, positive=True)
    spectrum = resolve_spectrum(cfg, index, "index")
    return float(spectrum.cutoff_masses[index - 1])


def resolve_packet(cfg: Config):
    """The packet and whether to normalize it (which runs quadrature)."""
    family = cfg.get_str("packet", "family", "gaussian")
    if family == "gaussian":
        packet = GaussianPacket(
            center=cfg.get_float("packet", "center"),
            width=cfg.get_float("packet", "width", positive=True),
            amplitude=complex(cfg.get_float("packet", "amplitude_re", 1.0),
                              cfg.get_float("packet", "amplitude_im", 0.0)))
    elif family == "table":
        packet = load_table_packet(cfg.get_str("packet", "file"))
    else:
        raise ConfigError(f"{cfg.path}: [packet] family={family!r} unknown")
    return packet, cfg.get_bool("packet", "normalize", True)


def resolve_biphoton(cfg: Config):
    """The pair amplitude and the domain to normalize it on (None: keep its scale)."""
    family = cfg.get_str("biphoton", "family")
    if family == "separable":
        f = SymmetrizedProduct(
            GaussianPacket(cfg.get_float("biphoton", "packet1_center"),
                           cfg.get_float("biphoton", "packet1_width", positive=True)),
            GaussianPacket(cfg.get_float("biphoton", "packet2_center"),
                           cfg.get_float("biphoton", "packet2_width", positive=True)))
    elif family == "gaussian_correlated":
        f = CorrelatedGaussian(
            pump_center=cfg.get_float("biphoton", "pump_center"),
            pump_width=cfg.get_float("biphoton", "pump_width", positive=True),
            relative_width=cfg.get_float("biphoton", "relative_width", positive=True))
    elif family in ("pumped_pair", "yls"):
        pump = GaussianPacket(cfg.get_float("biphoton", "pump_center"),
                              cfg.get_float("biphoton", "pump_width", positive=True))
        f = PumpedPair(pump, pump_scale=cfg.get_float("biphoton", "pump_scale"))
    else:
        raise ConfigError(f"{cfg.path}: [biphoton] family={family!r} unknown")
    if not cfg.get_bool("biphoton", "normalize", True):
        return f, None
    lo, hi = f.axis_domain()
    return f, (cfg.get_float("biphoton", "norm_k_min", float(lo)),
               cfg.get_float("biphoton", "norm_k_max", float(hi)))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_modes(cfg: Config, out: Path) -> int:
    count = cfg.get_int("mode", "count", 10, positive=True)
    spectrum = resolve_spectrum(cfg, count)
    clusters = spectrum.degenerate_clusters()
    cluster_of = {}
    for cid, members in enumerate(clusters):
        for m in members:
            cluster_of[m] = cid
    rows = [(m.index, m.label, m.mode_class, m.cutoff_mass, m.cutoff_mass**2,
             cluster_of[i]) for i, m in enumerate(spectrum.modes)]
    write_csv(out / "modes.csv",
              ("index", "label", "mode_class", "cutoff_mass", "m_squared", "cluster"),
              rows)
    svgplot.line_plot(out / "modes.svg",
                      [m.index for m in spectrum.modes],
                      [("cutoff mass", [m.cutoff_mass for m in spectrum.modes])],
                      title="mode cutoff masses", xlabel="mode index",
                      ylabel="cutoff mass")
    return 0


def cmd_single(cfg: Config, out: Path) -> int:
    mass = resolve_mass(cfg)
    d = DispersionRelation(mass)
    packet, normalize = resolve_packet(cfg)
    tol = cfg.get_rel_tol("quadrature_rel", 1e-9)
    z = cfg.get_grid("scan", "z")
    t_values = cfg.get_floats("scan", "t_values", [0.0])
    ray = cfg.has("scan", "v")
    if ray:
        v = cfg.get_float("scan", "v")
        if not abs(v) < 1.0:
            cfg._fail("scan", "v", f"detector velocities need |v| < 1, got {v!r}")
        ts = np.geomspace(cfg.get_float("scan", "t_min", 100.0, positive=True),
                          cfg.get_float("scan", "t_max", 1000.0, positive=True),
                          cfg.get_int("scan", "t_count", 25, positive=True))
    # the whole configuration is read, with its checks, before the first quadrature
    packet = normalized_packet(packet) if normalize else packet

    rows = []
    series = []
    for t in t_values:
        res = single_scan(packet, d, z, t, rel_tol=tol)
        for zz, a, p, e in zip(z, res.amplitudes, res.values, res.error_estimates):
            rows.append((float(t), float(zz), a.real, a.imag, p, e, "adaptive_panel"))
        series.append((f"t={t:g}", list(res.values)))
    write_csv(out / "single_scan.csv",
              ("t", "z", "amp_re", "amp_im", "probability", "error", "method"),
              rows)
    svgplot.line_plot(out / "single_scan.svg", list(z), series,
                      title="detection probability density",
                      xlabel="z", ylabel="P(z, t)")

    if ray:
        arows = []
        p_quad, p_asym = [], []
        for t in ts:
            pq, pe = probability_single(packet, d, SpacetimePoint(v * t, t), rel_tol=tol)
            asym = asymptotic_single(packet, d, v, t)
            rel = abs(pq - asym.probability) / asym.probability if asym.probability else np.inf
            arows.append((t, v, v * t, pq, pe, asym.probability, rel,
                          asym.guard_value, asym.guard_ok))
            p_quad.append(t * pq)
            p_asym.append(t * asym.probability)
        write_csv(out / "asymptotic_comparison.csv",
                  ("t", "v", "z", "p_quadrature", "p_error", "p_asymptotic",
                   "rel_diff", "guard_value", "guard_ok"),
                  arows)
        svgplot.line_plot(out / "asymptotic_comparison.svg", list(ts),
                          [("t * P quadrature", p_quad), ("t * P asymptotic", p_asym)],
                          title="ray probability against the large-time form",
                          xlabel="t", ylabel="t * P(v t, t)", logx=True)
    return 0


def cmd_biphoton(cfg: Config, out: Path) -> int:
    mass = resolve_mass(cfg)
    d = DispersionRelation(mass)
    f, norm = resolve_biphoton(cfg)
    f = normalize_biphoton(f, norm) if norm else f
    tol = cfg.get_rel_tol("biphoton_rel", 1e-6)

    t1 = cfg.get_float("scan", "t1")
    t2 = cfg.get_float("scan", "t2")
    z1 = cfg.get_grid("scan", "z1")
    z2 = cfg.get_grid("scan", "z2")
    amps, errs, _ = biphoton_scan(f, d, t1, t2, z1, z2, rel_tol=tol)
    rows = []
    for i, a in enumerate(z1):
        for j, b in enumerate(z2):
            amp = amps[i, j]
            err = errs[i, j]
            p = abs(amp) ** 2
            rows.append((t1, a, t2, b, amp.real, amp.imag, p,
                         probability_error(abs(amp), err), "adaptive_panel"))
    write_csv(out / "biphoton_scan.csv",
              ("t1", "z1", "t2", "z2", "amp_re", "amp_im", "probability",
               "error", "method"),
              rows)
    step = max(1, z2.size // 6)
    series = [(f"z2={z2[j]:g}", list(np.abs(amps[:, j]) ** 2))
              for j in range(0, z2.size, step)]
    svgplot.line_plot(out / "biphoton_scan.svg", list(z1), series,
                      title="joint detection probability density",
                      xlabel="z1", ylabel="P(z1, t1, z2, t2)")

    v = cfg.get_grid("scan", "profile_v", 0.1, 0.9, 41)
    prof = entangled_spacetime_profile(f, d, v, v)
    prows = []
    for i, a in enumerate(v):
        for j, b in enumerate(v):
            prows.append((a, b, prof.values[i, j], bool(prof.valid[i, j])))
    write_csv(out / "profile.csv", ("v1", "v2", "pair_weight", "valid"), prows)
    step = max(1, v.size // 6)
    series = [(f"v2={v[j]:.3g}", list(prof.values[:, j]))
              for j in range(0, v.size, step)]
    svgplot.line_plot(out / "profile.svg", list(v), series,
                      title="spacetime profile of the pair amplitude",
                      xlabel="v1", ylabel="|f(k10, k20)|^2")
    return 0


def cmd_bounds(cfg: Config, out: Path) -> int:
    mass = resolve_mass(cfg)
    d = DispersionRelation(mass)
    f, norm = resolve_biphoton(cfg)
    tol = cfg.get_rel_tol("biphoton_rel", 1e-6)
    t_pairs = cfg.get_pairs("scan", "t_pairs", [(50.0, 50.0), (200.0, 200.0)], positive=True)
    v1 = cfg.get_grid("scan", "v1")
    v2 = cfg.get_grid("scan", "v2")
    for name, v in (("v1", v1), ("v2", v2)):   # the grid ends are its extremes
        for key, value in ((f"{name}_min", v[0]), (f"{name}_max", v[-1])):
            if not abs(value) < 1.0:
                cfg._fail("scan", key, f"detector velocities need |v| < 1, got {float(value)!r}")
    # the whole configuration is read, with its checks, before the first quadrature
    lightcone = cfg.has("scan", "lightcone_t")
    if lightcone:
        t_ray = cfg.get_float("scan", "lightcone_t")
        zs = cfg.get_grid("scan", "lightcone_z", count=21)
        try:
            ray = Ray(t_ray, zs)
        except ValueError as exc:  # a detector inside the light cone
            cfg._fail("scan", "lightcone_z_min", str(exc))
        try:
            orders = decay_orders(cfg.get_floats("scan", "lightcone_orders",
                                                 [0.0, 2.0, 4.0, 6.0]))
        except ValueError as exc:
            cfg._fail("scan", "lightcone_orders", str(exc))
        qtol = cfg.get_rel_tol("quadrature_rel", 1e-9)
        packet, normalize = resolve_packet(cfg)
        packet = normalized_packet(packet) if normalize else packet
    f = normalize_biphoton(f, norm) if norm else f

    fits = [fit_universal_bound(f, d, t_pairs, v1, v2, rel_tol=tol)]
    if lightcone:
        report = check_lightcone_decay(packet, d, [ray], orders, rel_tol=qtol)
        fits.extend(report.fits)
        P = report.probabilities[0]
        write_csv(out / "lightcone_scan.csv",
                  ("t", "z", "probability", "below_floor"),
                  [(t_ray, float(z), p, p <= PROBABILITY_FLOOR)
                   for z, p in zip(zs, P)])
        svgplot.line_plot(out / "lightcone_scan.svg",
                          [1.0 + float(z) for z in zs],
                          [("P", list(np.maximum(P, 1e-300)))],
                          title=f"decay outside the light cone (verdict: {report.verdict})",
                          xlabel="1 + |z|", ylabel="P", logx=True, logy=True)

    header, rows = bound_fit_csv_rows(fits)
    write_csv(out / "bound_fits.csv", header, rows)
    (out / "bounds_summary.txt").write_text(summarize_bound_fits(fits))
    return 0


def cmd_validate(cfg: Config, out: Path) -> int:
    """Built-in property battery; one PASS/FAIL line per check."""
    d = DispersionRelation(1.0)
    checks = []

    vs = np.linspace(-0.95, 0.95, 39)
    worst = np.abs(d.omega_d(d.stationary_point(vs)) - vs).max()
    checks.append(("dispersion_round_trip", worst, 1e-12))

    g = normalized_packet(GaussianPacket(0.75, 0.1))
    lo, hi = g.support
    k = np.linspace(lo, hi, 400_001)
    k = k[:-1] + (k[1] - k[0]) / 2
    env = g(k) / (2 * np.sqrt(2 * np.pi * d.omega(k)))
    for t in (0.0, 30.0):
        oracle = np.sum(env * np.exp(1j * (k * 1.5 - d.omega(k) * t))) * (k[1] - k[0])
        got = amplitude_single(g, d, SpacetimePoint(1.5, t), rel_tol=1e-10).value
        checks.append((f"quadrature_oracle_t{t:g}", abs(got - oracle) / abs(oracle), 1e-7))

    ms = analytic_spectrum(Rectangle(np.pi, np.pi), count=6)
    checks.append(("mode_orthonormality", ms.orthonormality_defect(), 1e-8))

    ge = GaussianPacket(0.0, 0.3)
    p1, _ = probability_single(ge, d, SpacetimePoint(2.0, 9.0), rel_tol=1e-10)
    p2, _ = probability_single(ge, d, SpacetimePoint(-2.0, 9.0), rel_tol=1e-10)
    checks.append(("probability_parity", abs(p1 - p2) / p1, 1e-9))

    f = SymmetrizedProduct(GaussianPacket(0.6, 0.3), GaussianPacket(1.0, 0.25))
    pa, _ = probability_biphoton(f, d, SpacetimePoint(2.0, 4.0),
                                 SpacetimePoint(1.0, 6.0), rel_tol=1e-8)
    pb, _ = probability_biphoton(f, d, SpacetimePoint(1.0, 6.0),
                                 SpacetimePoint(2.0, 4.0), rel_tol=1e-8)
    checks.append(("biphoton_exchange", abs(pa - pb) / pa, 1e-10))

    joint = amplitude_biphoton(f, d, SpacetimePoint(1.0, 3.0),
                               SpacetimePoint(-0.5, 5.0), rel_tol=1e-10).value
    parts = (amplitude_single(f.packet1, d, SpacetimePoint(1.0, 3.0), rel_tol=1e-11).value
             * amplitude_single(f.packet2, d, SpacetimePoint(-0.5, 5.0), rel_tol=1e-11).value
             + amplitude_single(f.packet1, d, SpacetimePoint(-0.5, 5.0), rel_tol=1e-11).value
             * amplitude_single(f.packet2, d, SpacetimePoint(1.0, 3.0), rel_tol=1e-11).value)
    checks.append(("separable_factorization", abs(joint - parts) / abs(parts), 1e-7))

    target = momentum_norm(g, d)
    drift = max(abs(position_norm(g, d, t) - target) / target for t in (0.0, 5.0))
    checks.append(("norm_conservation", drift, 1e-6))

    r1, a1 = kg_residual(g, d, 6.0, 9.0, h=2e-2)
    r2, _ = kg_residual(g, d, 6.0, 9.0, h=1e-2)
    ratio = abs(r1) / abs(r2)
    checks.append(("wave_operator_residual_ratio", abs(ratio - 4.0), 1.0))

    rows = []
    failed = 0
    for name, metric, threshold in checks:
        ok = metric <= threshold
        failed += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: metric={metric:.3e} "
              f"threshold={threshold:.1e}")
        rows.append((name, metric, threshold, ok))
    write_csv(out / "validation.csv", ("check", "metric", "threshold", "passed"), rows)
    return 1 if failed else 0


_COMMANDS = {
    "modes": cmd_modes,
    "single": cmd_single,
    "biphoton": cmd_biphoton,
    "bounds": cmd_bounds,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wgcorr",
        description="waveguide photon correlation scans: modes, probabilities, bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        cfg = Config(args.config)
        out = Path(args.out) if args.out else Path(cfg.get_str("output", "directory", "out"))
        out.mkdir(parents=True, exist_ok=True)
        status = _COMMANDS[args.command](cfg, out)
        cfg.echo(out / "config_effective.ini")
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ModeSolverError) as exc:
        print(f"numeric failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
