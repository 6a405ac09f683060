"""Benchmark workloads: pinned inputs, the entry-point call and its correctness check.

Every workload drives homoflow through public calls only.  Module attributes
are looked up at call time (``cli.run_sweep``, ``flow.dynamic_flow_family``,
``diagnostics.invariant_suite``) so the traced mode can wrap them in place.

The default seed reproduces the pinned inputs exactly, and its output must
match the sha256 in ``pins.json``.  Any other seed perturbs the inputs (sweep
dictionary centres, invariant-suite sample points) and the output is checked
structurally: every number finite and the verdicts equal to the pinned ones.
On every seed, consecutive calls in one run must give byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from homoflow import cli, diagnostics, fields, flow, transport

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
DEFAULT_SEED = PINS["default_seed"]

# dictionary centres move by at most this much in t and in each x on a
# non-default seed: enough to change every pairing, too little to move a bump
# out of the transported support or to change any quadrature grid size
CENTRE_JITTER = 0.02

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Workload:
    """``prepare(seed)`` parses inputs and builds the family (set-up);
    ``call(prepared)`` is the timed entry-point call and returns the output
    text; ``verdicts(rows)`` reduces its CSV rows to the facts pinned for
    non-default seeds."""

    name: str
    prepare: Callable[[int], object]
    call: Callable[[object], str]
    verdicts: Callable[[list[list[str]]], list]


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv(header: list[str], rows: list[tuple]) -> str:
    lines = [cli.CSV_VERSION_LINE, ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != cli.CSV_VERSION_LINE:
        raise ValueError("output does not start with the homoflow CSV schema line")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_config(name: str, seed: int) -> str:
    text = (INPUTS / f"{name}.cfg").read_text(encoding="utf-8")
    if seed == DEFAULT_SEED:
        return text
    cfg = cli.parse_config(text)
    rng = np.random.default_rng(seed)
    centres = []
    for phi in diagnostics.default_dictionary(cfg.dim, cfg.T, cfg.dict_count,
                                              cfg.dict_radius):
        shift = rng.uniform(-CENTRE_JITTER, CENTRE_JITTER, 1 + cfg.dim)
        point = [phi.t_center + shift[0]] + list(phi.x_center + shift[1:])
        centres.append(":".join(format(float(v), ".17g") for v in point))
    return text + f"dictionary.centers = {';'.join(centres)}\n"


def _sweep_prepare(name: str) -> Callable[[int], object]:
    def prepare(seed: int):
        cfg = cli.parse_config(_sweep_config(name, seed))
        cli.build_system(cfg, cfg.sweep_eps[0])
        return cfg

    return prepare


def _sweep_call(cfg) -> str:
    code, csv = cli.run_sweep(cfg)
    if code != 0:
        raise RuntimeError(f"run_sweep returned exit code {code}")
    return csv


def _sweep_verdicts(rows: list[list[str]]) -> list:
    """Per test function: its eps rows, and whether every weak error is
    exactly |pairing_eps - pairing_limit|.

    Whether the weak errors fall with eps is not a verdict: a jittered bump
    can sit where the pairing gap changes sign, and its errors then rise.
    """
    out = []
    for phi in sorted({r[2] for r in rows}, key=int):
        mine = [r for r in rows if r[2] == phi]
        consistent = all(float(r[5]) == abs(float(r[3]) - float(r[4])) for r in mine)
        out.append([phi, [r[1] for r in mine], consistent])
    return out


def _sweep(name: str) -> Workload:
    return Workload(name, _sweep_prepare(name), _sweep_call, _sweep_verdicts)


# ---------------------------------------------------------------------------
# dynamic-flow invariant check
# ---------------------------------------------------------------------------

def tanh_sine_velocity() -> fields.VectorField:
    """a(x) = (tanh x2, sin x2): bounded, with divergence cos x2."""
    def ev(x):
        return np.stack([np.tanh(x[..., 1]), np.sin(x[..., 1])], axis=-1)

    def jac(x):
        j = np.zeros(x.shape[:-1] + (2, 2))
        j[..., 0, 1] = 1.0 / np.cosh(x[..., 1]) ** 2
        j[..., 1, 1] = np.cos(x[..., 1])
        return j

    def div(x):
        return np.cos(x[..., 1])

    return fields.VectorField(2, ev, jac, div, sup_bound=2.0, div_bound=1.0)


def oscillating_velocity(eps: float, base: fields.VectorField) -> fields.VectorField:
    """base plus the rotated gradient of (1/4pi^2) sin sin at scale eps.

    The perturbation is divergence free, so the divergence is the base's.
    """
    def ev(x):
        y = x / eps
        gp = np.stack([np.cos(TWO_PI * y[..., 0]) * np.sin(TWO_PI * y[..., 1]),
                       np.sin(TWO_PI * y[..., 0]) * np.cos(TWO_PI * y[..., 1])],
                      axis=-1) / TWO_PI
        return base.eval(x) + fields.rot_perp(gp)

    def jac(x):
        y = x / eps
        c1, s1 = np.cos(TWO_PI * y[..., 0]), np.sin(TWO_PI * y[..., 0])
        c2, s2 = np.cos(TWO_PI * y[..., 1]), np.sin(TWO_PI * y[..., 1])
        j = np.empty(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = c1 * c2 / eps
        j[..., 0, 1] = -s1 * s2 / eps
        j[..., 1, 0] = s1 * s2 / eps
        j[..., 1, 1] = -c1 * c2 / eps
        return j + base.jacobian(x)

    return fields.VectorField(2, ev, jac, base.divergence,
                              sup_bound=(base.sup_bound or 0.0) + 0.3,
                              div_bound=base.div_bound)


@dataclass(frozen=True)
class _CheckInput:
    system: fields.RectifiedSystem
    box: transport.Box
    n_samples: int
    seed: int


def _check_prepare(seed: int) -> _CheckInput:
    p = json.loads((INPUTS / "check-dynamic.json").read_text(encoding="utf-8"))
    base = tanh_sine_velocity()
    system = flow.dynamic_flow_family(
        oscillating_velocity(p["eps"], base), base, p["t_star"], p["eps"],
        flow.IntegratorConfig(h=p["h"]))
    lo, hi = p["box"]
    box = transport.Box(np.full(2, lo), np.full(2, hi))
    return _CheckInput(system, box, p["n_samples"], seed)


def _check_call(inp: _CheckInput) -> str:
    """The invariant report, serialised the way ``homoflow check`` writes it."""
    report = diagnostics.invariant_suite(inp.system, inp.box,
                                         n_samples=inp.n_samples, seed=inp.seed)
    rows = [(report.label, report.eps, c.invariant_id, c.max_residual,
             c.tolerance, c.passed) for c in report.checks]
    return _csv(["family", "eps", "invariant_id", "max_residual", "tolerance",
                 "pass"], rows)


def _check_verdicts(rows: list[list[str]]) -> list:
    return [[r[2], r[5]] for r in rows]


WORKLOADS = {w.name: w for w in (
    _sweep("sweep-deltagamma"),
    _sweep("sweep-example31"),
    Workload("check-dynamic", _check_prepare, _check_call, _check_verdicts),
    # not in BENCHMARK.json: the quick self-test of the harness
    _sweep("smoke"),
)}


def check_output(name: str, seed: int, text: str, previous: str | None) -> list[str]:
    """Problems with one call's output; an empty list means it is correct."""
    pin = PINS["workloads"][name]
    problems = []
    if previous is not None and text != previous:
        problems.append("output differs from the previous call in this run")
    if seed == DEFAULT_SEED:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != pin["sha256"]:
            problems.append(f"sha256 {digest} != pinned {pin['sha256']}")
        return problems
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return problems + [str(exc)]
    if header != pin["header"]:
        problems.append(f"header {header} != pinned {pin['header']}")
        return problems
    numeric = [i for i, col in enumerate(header) if col in pin["numeric_columns"]]
    if not all(math.isfinite(float(r[i])) for r in rows for i in numeric):
        problems.append("non-finite value in output")
    verdicts = WORKLOADS[name].verdicts(rows)
    if verdicts != pin["verdicts"]:
        problems.append(f"verdicts {verdicts} != pinned {pin['verdicts']}")
    return problems
