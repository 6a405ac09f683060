"""Config-driven experiment runner with deterministic CSV output.

Four subcommands cover the workflows: ``check`` (invariant suite),
``simulate`` (sample one oscillating solution), ``homogenize`` (effective
coefficients) and ``sweep`` (weak/strong convergence table over a list of
eps).  Configs are flat ``key = value`` text files with dotted section keys;
every run with the same config produces byte-identical CSV.

Exit codes: 0 success, 1 invariant failure (check only), 2 config or file
error, 3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .diagnostics import (SpacetimeQuad, TestFunction, _fork_map, convergence_sweep,
                          default_dictionary, invariant_suite, strong_l2_error)
from .fields import (FieldError, InvalidCellError, RectifiedSystem, deltagamma_cell,
                     hyperbolic_twist_family, identity_cell, identity_curve,
                     jacobian_det, periodic_family, perturbed_identity_curve,
                     shear_cell, sine_cell, sine_curve, zero_curve)
from .flow import AccuracyError, BlowupError, IntegratorConfig
from .homogenize import (EffectiveCoefficients, InvalidCoefficientsError,
                         constant_coefficients, effective_from_cell)
from .transport import (Box, bump_datum, dependence_box, midpoint_times,
                        solve_homogenized, solve_transport)

CSV_VERSION_LINE = "# homoflow-csv v1"

FAMILY_NAMES = ("identity", "shear", "deltagamma", "example31", "periodic")


class ConfigError(ValueError):
    """Malformed or out-of-range configuration, with key/line context."""


def _key(key: str, default: str, kind: str):
    """A config field: its dotted key, default text and kind (a converter in
    _KINDS).  The fields keep their --help and canonical order."""
    return field(metadata={"key": key, "default": default, "kind": kind})


@dataclass(frozen=True)
class ExperimentConfig:
    family: str = _key("family.name", "identity", "str")
    delta: float = _key("family.delta", "0.3", "float")
    gamma: float = _key("family.gamma", "0.3", "float")
    # alpha(t) = t + (alpha_amp * eps) sin(t); amplitude 0 is the identity
    alpha_amp: float = _key("family.alpha_amp", "0.0", "float")
    beta_amp: float = _key("family.beta_amp", "1.0", "float")
    cell_matrix: tuple[float, float, float, float] = _key("family.m", "1,0,0,1", "matrix")
    eps: float = _key("eps", "0.1", "float")
    T: float = _key("T", "1.0", "float")
    u0_center: tuple[float, float] = _key("u0.center", "0,0", "pair")
    u0_radius: float = _key("u0.radius", "1.0", "float")
    h: float = _key("integrator.h", "0.001", "float")
    richardson: bool = _key("integrator.richardson", "false", "bool")
    quad_m: int = _key("quadrature.m", "64", "int")
    time_nodes: int = _key("quadrature.time_nodes", "64", "int")
    nodes_per_eps: float = _key("quadrature.nodes_per_eps", "8.0", "float")
    lp_m: int = _key("quadrature.lp_m", "256", "int")
    dict_count: int = _key("dictionary.count", "5", "int")
    dict_radius: float = _key("dictionary.radius", "0.4", "float")
    dict_centers: tuple[tuple[float, float, float], ...] = _key("dictionary.centers", "", "centers")
    check_samples: int = _key("check.samples", "1000", "int")
    check_box: tuple[float, float] = _key("check.box", "-2,2", "pair")
    simulate_t: tuple[float, ...] = _key("simulate.t", "0,0.5,1", "floats")
    simulate_m: int = _key("simulate.m", "9", "int")
    sweep_eps: tuple[float, ...] = _key("sweep.eps", "0.4,0.2,0.1,0.05", "floats")
    # the default avoids integer multiples of the sweep eps values, where
    # cell-periodic drifts realign exactly with the limit flow
    strong_t: tuple[float, ...] = _key("sweep.strong_t", "0.52,0.93", "floats")
    seed: int = _key("seed", "0", "int")

    dim = 2  # every config family is two-dimensional


# config key -> (ExperimentConfig field, default text, kind)
_KEYS: dict[str, tuple[str, str, str]] = {
    f.metadata["key"]: (f.name, f.metadata["default"], f.metadata["kind"])
    for f in fields(ExperimentConfig)}

_DEFAULTS: dict[str, str] = {key: default for key, (_, default, _) in _KEYS.items()}


def _finite(key: str, text: str, vals: tuple):
    if not all(abs(v) < math.inf for v in vals):  # nan fails too
        raise ConfigError(f"key {key!r}: must be finite ({text!r})")
    return vals


def _to_number(key: str, text: str, kind: type = float):
    try:
        val = kind(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r}: not {what} ({text!r})") from exc
    return _finite(key, text, (val,))[0]


def _to_bool(key: str, text: str) -> bool:
    val = text.strip().lower()
    if val in ("true", "1", "yes", "on"):
        return True
    if val in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean ({text!r})")


def _to_floats(key: str, text: str, n: int | None = None,
               sep: str = ",") -> tuple[float, ...]:
    parts = [p for p in text.split(sep) if p.strip() != ""]
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number list ({text!r})") from exc
    if n is not None and len(vals) != n:
        raise ConfigError(f"key {key!r}: expected {n} numbers, got {len(vals)}")
    return _finite(key, text, vals)


# kind -> converter (key, text) -> value; dictionary centers are
# ";"-separated t:x1:x2 triples
_KINDS = {
    "str": lambda key, text: text,
    "int": lambda key, text: _to_number(key, text, int),
    "float": _to_number,
    "bool": _to_bool,
    "floats": _to_floats,
    "pair": lambda key, text: _to_floats(key, text, 2),
    "matrix": lambda key, text: _to_floats(key, text, 4),
    "centers": lambda key, text: tuple(_to_floats(key, c, 3, ":")
                                       for c in text.split(";") if c.strip()),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value grammar and validate ranges."""
    raw = dict(_DEFAULTS)
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        raw[key] = value.strip()

    cfg = ExperimentConfig(**{name: _KINDS[kind](key, raw[key])
                              for key, (name, _, kind) in _KEYS.items()})
    _validate(cfg)
    return cfg


# the most samples a command may ask for: 8x the pairing grid of an
# eps = 1/80 sweep by default
_MAX_SAMPLES = 2 ** 27

# invariant_suite holds about 430 bytes per sample at its peak in one process
# (check on deltagamma under taskset -c 0: 63.9 MiB RSS at 2^16 samples,
# 144.9 MiB at 2^18); on 2 CPUs the parent's and its worker's peaks sum to
# 91.1 and 175.1 MiB, about 450 bytes per sample, so 2^21 samples keep a
# check under 1 GiB (959 MiB extrapolated from those two sums)
_MAX_CHECK_SAMPLES = 2 ** 21


def _validate(cfg: ExperimentConfig) -> None:
    """Range checks of single keys, and of the family keys every command
    reads.  A check across keys that some command never reads runs in the
    commands that read them, so a key cannot refuse a command that ignores it."""
    def need(cond: bool, key: str, msg: str):
        if not cond:
            raise ConfigError(f"key {key!r}: {msg}")

    need(cfg.family in FAMILY_NAMES, "family.name",
         f"must be one of {FAMILY_NAMES}")
    need(cfg.eps > 0.0, "eps", "must be positive")
    need(len(cfg.sweep_eps) > 0, "sweep.eps", "needs at least one value")
    need(all(e > 0.0 for e in cfg.sweep_eps), "sweep.eps", "must be positive")
    need(all(cfg.sweep_eps[i + 1] < cfg.sweep_eps[i]
             for i in range(len(cfg.sweep_eps) - 1)),
         "sweep.eps", "must be strictly decreasing")
    need(cfg.T > 0.0, "T", "must be positive")
    need(cfg.h > 0.0, "integrator.h", "must be positive")
    need(cfg.u0_radius > 0.0, "u0.radius", "must be positive")
    need(cfg.quad_m >= 2, "quadrature.m", "must be at least 2")
    need(cfg.time_nodes >= 1, "quadrature.time_nodes", "must be at least 1")
    need(cfg.nodes_per_eps > 0.0, "quadrature.nodes_per_eps", "must be positive")
    need(cfg.lp_m >= 2, "quadrature.lp_m", "must be at least 2")
    need(1 <= cfg.dict_count <= 8, "dictionary.count", "must be between 1 and 8")
    need(cfg.dict_radius > 0.0, "dictionary.radius", "must be positive")
    need(1 <= cfg.check_samples <= _MAX_CHECK_SAMPLES, "check.samples",
         "must be between 1 and 2^21")
    need(cfg.check_box[0] < cfg.check_box[1], "check.box", "needs lo < hi")
    need(len(cfg.simulate_t) > 0, "simulate.t", "needs at least one time")
    need(cfg.simulate_m >= 2, "simulate.m", "must be at least 2")
    need(len(cfg.strong_t) > 0, "sweep.strong_t", "needs at least one time")
    need(cfg.seed >= 0, "seed", "must be nonnegative")
    try:
        _build_cell(cfg)
    except InvalidCellError as exc:
        # the four corner determinants average to det M, so a cell with
        # det M <= 0 fails whatever delta and gamma are
        M = np.asarray(cfg.cell_matrix, dtype=float).reshape(2, 2)
        singular = cfg.family == "periodic" and not jacobian_det(M) > 0.0
        key = "family.m" if singular else "family.delta"
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if cfg.family == "example31":
        need(cfg.alpha_amp >= 0.0, "family.alpha_amp", "must be nonnegative")


# exp(x) overflows for x at or above log(largest float), about 709.78
_EXP_LIMIT = math.log(sys.float_info.max)

# the largest h times the twist drift bound below that RK4 may step: simulate
# at eps 0.1, h 1e-3 ran beta_amp 10 (0.49); 10.2 (0.51) and up blew up
_TWIST_STEP_LIMIT = 0.5


def _check_twist(cfg: ExperimentConfig, key: str, values, radius: float, h=None) -> None:
    """Refuse twist profiles that leave the regime at one of the eps
    ``values`` the command builds (config key ``key``): alpha(t) = t +
    (alpha_amp * e) sin(t) must keep increasing, and the drift e^{-beta}
    (alpha'(x2)(1 - p beta'(p)), alpha'(x1) alpha(x2)^2 beta'(p)) finite on
    the square |x1|, |x2| <= ``radius`` where the command samples it.  With
    c = alpha_amp e, it is at most exp(|beta_amp| e)(1 + c)(1 + 2 (radius +
    c)^2 |beta_amp|) there, whose log must stay below half of log(largest
    float), so that the squares a norm forms (and exp(+-beta)) stay finite;
    with an RK4 step ``h``, h times it must stay below _TWIST_STEP_LIMIT."""
    if cfg.family != "example31":
        return
    for e in values:
        if not cfg.alpha_amp * e < 1.0:
            raise ConfigError(
                f"key 'family.alpha_amp': alpha_amp * eps must stay below 1,"
                f" but {cfg.alpha_amp:g} * {e:g} is not ({key} = {e:g})")
        c, amp = cfg.alpha_amp * e, abs(cfg.beta_amp)
        bound = amp * e + math.log((1.0 + c) * (1.0 + 2.0 * (radius + c) ** 2 * amp))
        if not 2.0 * bound < _EXP_LIMIT:
            raise ConfigError(
                f"key 'family.beta_amp': on |x1|, |x2| <= {radius:g} the twist drift"
                f" is bounded only by exp({bound:.6g}), and its square overflows"
                f" from exp({_EXP_LIMIT / 2.0:.2f}) ({key} = {e:g})")
        if h is not None and not h * math.exp(bound) < _TWIST_STEP_LIMIT:
            raise ConfigError(
                f"key 'family.beta_amp': on |x1|, |x2| <= {radius:g} the twist drift"
                f" is bounded only by exp({bound:.6g}); 'integrator.h' = {h:g} times it"
                f" is {h * math.exp(bound):.3g}, not below {_TWIST_STEP_LIMIT:g} ({key} = {e:g})")


def _check_grid(key: str, what: str, n: float, n_times: int) -> None:
    """Refuse, naming ``key``, n^2 nodes at ``n_times`` times above
    _MAX_SAMPLES samples."""
    if n_times * n * n > _MAX_SAMPLES:
        raise ConfigError(
            f"key {key!r}: the {what} grid needs n = {n:.0f} nodes per axis at"
            f" {n_times} times, {n_times * n * n:.3g} samples, above 2^27")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    return "".join(f"{key} = {_fmt(getattr(cfg, name))}\n"
                   for key, (name, _, _) in _KEYS.items())


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def _build_cell(cfg: ExperimentConfig):
    if cfg.family == "identity":
        return identity_cell(2)
    if cfg.family == "shear":
        return shear_cell(cfg.gamma)
    if cfg.family == "deltagamma":
        return deltagamma_cell(cfg.delta, cfg.gamma)
    if cfg.family == "periodic":
        M = np.asarray(cfg.cell_matrix, dtype=float).reshape(2, 2)
        return sine_cell(M, cfg.delta, cfg.gamma)
    return None


def build_system(cfg: ExperimentConfig, eps: float) -> RectifiedSystem:
    cell = _build_cell(cfg)
    if cell is not None:
        return periodic_family(cell, eps, label=cfg.family)
    if cfg.alpha_amp == 0.0:
        alpha = identity_curve()
    else:
        alpha = perturbed_identity_curve(cfg.alpha_amp * eps)
    if cfg.beta_amp == 0.0:
        beta = zero_curve()
    else:
        beta = sine_curve(cfg.beta_amp * eps, 1.0 / eps)
    return hyperbolic_twist_family(alpha, beta, eps, label=cfg.family)


def build_coefficients(cfg: ExperimentConfig) -> EffectiveCoefficients:
    cell = _build_cell(cfg)
    if cell is not None:
        return effective_from_cell(cell)
    # twist family: the limit map is the identity at every eps, so sigma0 = 1
    # and the cofactor-route xi0 is e1, the flux of the identity Jacobian
    return constant_coefficients(2, 1.0, (1.0, 0.0))


def _integrator(cfg: ExperimentConfig) -> IntegratorConfig:
    return IntegratorConfig(h=cfg.h, richardson_check=cfg.richardson)


def _datum(cfg: ExperimentConfig):
    return bump_datum(cfg.dim, cfg.u0_center, cfg.u0_radius)


def _dictionary(cfg: ExperimentConfig) -> list[TestFunction]:
    if cfg.dict_centers:
        return [TestFunction(cfg.dim, c[0], np.asarray(c[1:]), cfg.dict_radius)
                for c in cfg.dict_centers]
    return default_dictionary(cfg.dim, cfg.T, cfg.dict_count, cfg.dict_radius)


def _estimated_sup(system: RectifiedSystem, radius: float) -> float:
    sup = system.b.sup_bound
    if sup is None:
        pts, _ = Box.from_radius(np.zeros(system.dim), radius).midpoint_grid(33)
        sup = float(np.linalg.norm(system.b.eval(pts), axis=-1).max()) * 1.1
    if not math.isfinite(sup):
        raise FloatingPointError(f"the drift's sampled sup is {sup} within radius {radius:g}")
    return sup


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """One CSV cell or config value: true/false, floats round-tripping in
    17 significant digits, number lists joined by "," and lists of
    dictionary centers by ";" (their numbers by ":")."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(":".join(_fmt(v) for v in ctr) for ctr in value)
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _csv(header: list[str], rows: list[tuple]) -> str:
    lines = [CSV_VERSION_LINE, ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_check(cfg: ExperimentConfig) -> tuple[int, str]:
    lo, hi = cfg.check_box
    _check_twist(cfg, "eps", (cfg.eps,), max(abs(lo), abs(hi)))
    system = build_system(cfg, cfg.eps)
    box = Box(np.full(cfg.dim, lo), np.full(cfg.dim, hi))
    report = invariant_suite(system, box, n_samples=cfg.check_samples,
                             seed=cfg.seed)
    rows = [(cfg.family, cfg.eps, c.invariant_id, c.max_residual, c.tolerance,
             c.passed) for c in report.checks]
    csv = _csv(["family", "eps", "invariant_id", "max_residual", "tolerance",
                "pass"], rows)
    return (0 if report.all_passed else 1), csv


def run_simulate(cfg: ExperimentConfig) -> tuple[int, str]:
    t_values = sorted(set(float(t) for t in cfg.simulate_t))
    t_reach = max(abs(t) for t in t_values)
    radius = cfg.u0_radius + t_reach + 1.0
    _check_twist(cfg, "eps", (cfg.eps,), radius, cfg.h)
    _check_grid("simulate.m", "sample", cfg.simulate_m, len(t_values))
    system = build_system(cfg, cfg.eps)
    u0 = _datum(cfg)
    sol = solve_transport(system.b, u0, _integrator(cfg))
    sup = _estimated_sup(system, radius)
    box = dependence_box(u0, sup, t_reach)
    pts, _ = box.midpoint_grid(cfg.simulate_m)
    vals = sol.eval_times(t_values, pts)
    sig = system.sigma.eval(pts)
    rows = []
    for k, t in enumerate(t_values):
        for i in range(pts.shape[0]):
            rows.append((t, pts[i, 0], pts[i, 1], vals[k, i], sig[i],
                         sig[i] * vals[k, i]))
    csv = _csv(["t", "x1", "x2", "u_eps", "sigma_eps", "v_eps"], rows)
    return 0, csv


def run_homogenize(cfg: ExperimentConfig) -> tuple[int, str]:
    cell = _build_cell(cfg)
    coeffs = build_coefficients(cfg)
    if cell is not None:
        det_m = float(jacobian_det(np.asarray(cell.M, dtype=float)))
        resid = coeffs.quasi_affinity_residual
        resolution = coeffs.resolution
    else:
        det_m = float("nan")
        resid = float("nan")
        resolution = 0
    origin = np.zeros((1, cfg.dim))
    xi = coeffs.xi0_at(origin)[0]
    sigma0 = float(coeffs.sigma0_at(origin)[0])
    rows = [(cfg.family, coeffs.provenance, sigma0, xi[0], xi[1], det_m,
             resid, resolution)]
    csv = _csv(["family", "provenance", "sigma0", "xi0_1", "xi0_2", "det_m",
                "quasi_affinity_residual", "resolution"], rows)
    return 0, csv


def run_sweep(cfg: ExperimentConfig) -> tuple[int, str]:
    """Weak and strong convergence table over ``sweep.eps``.  Each eps is
    built and solved once; its pairings (in :func:`convergence_sweep`) and
    its strong distance then run as independent cells on every usable CPU,
    to the bytes, exceptions and warnings of a one-process run."""
    radius = cfg.u0_radius + cfg.T + 1.0
    _check_twist(cfg, "sweep.eps", cfg.sweep_eps, radius, cfg.h)
    if not all(abs(t) <= cfg.T for t in cfg.strong_t):  # the strong box is sized for T
        raise ConfigError(f"key 'sweep.strong_t': times must all lie in [-T, T] (T = {cfg.T:g})")
    # the pairing grids resolve the smallest eps; a pairing samples
    # time_nodes x n^2 (time, node) pairs, n the most nodes on an axis
    dictionary = _dictionary(cfg)
    quad = SpacetimeQuad(T=cfg.T, n_time=cfg.time_nodes, m_space=cfg.quad_m,
                         nodes_per_period=cfg.nodes_per_eps,
                         resolve_scale=min(cfg.sweep_eps))
    ts = midpoint_times(cfg.T, cfg.time_nodes)
    for k, phi in enumerate(dictionary):
        # r2 at phi's spatial center is its time window's share alone
        if not np.any(phi.r2(ts, phi.x_center) < 1.0):
            raise ConfigError(
                f"key 'quadrature.time_nodes': none of the {cfg.time_nodes} midpoint times"
                f" of [0, {cfg.T:g}] lies in the time window {phi.t_center:g} +- {phi.radius:g}"
                f" of dictionary bump {k}, whose pairings would all read 0")
    n = max(int(quad.space_resolution(phi.space_box.widths).max()) for phi in dictionary)
    _check_grid("quadrature.nodes_per_eps" if n > cfg.quad_m else "quadrature.m",
                "pairing", n, cfg.time_nodes)
    _check_grid("quadrature.lp_m", "strong", cfg.lp_m, len(cfg.strong_t))
    u0 = _datum(cfg)
    integ = _integrator(cfg)
    coeffs = build_coefficients(cfg)

    # each eps is built and solved once, for the weak and strong passes
    solved = []
    for eps in cfg.sweep_eps:
        system = build_system(cfg, eps)
        solved.append((eps, system, solve_transport(system.b, u0, integ)))
    report = convergence_sweep(solved, coeffs, u0.scaled(coeffs.sigma0_at), dictionary,
                               quad, integ, label=cfg.family)

    sol_limit = solve_homogenized(coeffs, u0, "advective", integ)
    # the largest eps's drift sizes the strong box of every eps
    strong_box = dependence_box(u0, _estimated_sup(solved[0][1], radius), cfg.T,
                                margin=0.2)
    # one strong distance per eps, on every usable CPU
    strong = _fork_map(lambda cell: strong_l2_error(cell[2], sol_limit, cell[1], strong_box,
                                                    cfg.strong_t, quad, resolution=cfg.lp_m),
                       solved)

    rows = [(cfg.family, eps, e.phi_id, e.pairings[i], e.pairing_limit, e.errors[i],
             strong[i], e.fitted_rate)
            for i, eps in enumerate(report.eps_values) for e in report.entries]
    csv = _csv(["family", "eps", "phi_id", "pairing_eps", "pairing_limit",
                "weak_error", "strong_l2_error", "fitted_rate"], rows)
    return 0, csv


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# subcommand -> (runner, --help text)
_COMMANDS = {
    "check": (run_check, "run the invariant suite on one system"),
    "simulate": (run_simulate, "sample one oscillating solution on a grid"),
    "homogenize": (run_homogenize, "compute effective coefficients"),
    "sweep": (run_sweep, "weak/strong convergence table over an eps list"),
}

_CONFIG_HELP = "\n".join(f"  {k} (default: {v!r})" for k, v in _DEFAULTS.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="homoflow",
        description=__doc__,
        epilog="config keys:\n" + _CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text)
        if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
            raise ConfigError(f"cannot write output file {args.out!r}: it is a"
                              f" directory, or its directory does not exist")
        code, csv = _COMMANDS[args.command][0](cfg)
        if args.out:
            try:
                Path(args.out).write_text(csv, encoding="utf-8", newline="")
            except OSError as exc:
                raise ConfigError(f"cannot write output file {args.out!r}: {exc}") from exc
        else:
            sys.stdout.write(csv)
    except (ConfigError, FieldError, InvalidCoefficientsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BlowupError, AccuracyError, ArithmeticError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
