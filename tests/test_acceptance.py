"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Canonical instances where a criterion leaves parameters free: families are
built at eps = 0.2 (the twist instance uses alpha = id, beta = eps sin(t/eps);
the cell families use delta = gamma = 0.3), the sample box is [-2, 2]^2 with
1000 seeded uniform points, and sweeps run the default dictionary with
h = 2e-3 (the step size is pinned only where a criterion states it).
"""

import itertools
import math

import numpy as np
import pytest

import homoflow as hf
from homoflow.cli import parse_config, run_sweep
from homoflow.diagnostics import SpacetimeQuad, density_pairing, weak_pairing
from homoflow.flow import IntegratorConfig, advect, dynamic_flow_family

from conftest import (central_jac, deltagamma_system, identity_system,
                      leibniz_det, oscillating_velocity, shear_system,
                      shear_velocity, tanh_sine_velocity, twist_system)

EPS_CANONICAL = 0.2
H_PINNED = IntegratorConfig(h=1e-3)
H_SWEEP = IntegratorConfig(h=2e-3)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(0)
    return rng.uniform(-2.0, 2.0, (1000, 2))


@pytest.fixture(scope="module")
def analytic_systems():
    return [identity_system(EPS_CANONICAL),
            twist_system(EPS_CANONICAL),
            deltagamma_system(EPS_CANONICAL),
            shear_system(EPS_CANONICAL)]


@pytest.fixture(scope="module")
def dynamic_systems():
    shear = shear_velocity()
    return [dynamic_flow_family(shear, shear, 1.0, EPS_CANONICAL, H_PINNED,
                                label="dynamic-shear"),
            dynamic_flow_family(oscillating_velocity(EPS_CANONICAL),
                                tanh_sine_velocity(), 1.0, EPS_CANONICAL,
                                H_PINNED, label="dynamic-oscillating")]


@pytest.fixture(scope="module")
def unit_bump_mod():
    return hf.bump_datum(2, [0.0, 0.0], 1.0, 1.0)


@pytest.fixture(scope="module")
def sweep_data(unit_bump_mod):
    """Shared sweep for criteria 7 and 8: systems and solutions per family/eps."""
    eps_list = [0.4, 0.2, 0.1, 0.05]
    makers = {
        "example31": lambda eps: twist_system(eps),
        "deltagamma": lambda eps: deltagamma_system(eps),
    }
    coeffs = {
        "example31": hf.constant_coefficients(2, 1.0, [1.0, 0.0]),
        "deltagamma": hf.effective_from_cell(hf.deltagamma_cell(0.3, 0.3), 64),
    }
    solutions = {}
    for fam, mk in makers.items():
        for eps in eps_list:
            system = mk(eps)
            solutions[fam, eps] = (system,
                                   hf.solve_transport(system.b, unit_bump_mod,
                                                      H_SWEEP))
    return eps_list, makers, coeffs, solutions


def test_criterion_01_rectification_identity(samples, analytic_systems,
                                             dynamic_systems):
    worst_analytic = max(
        float(np.abs(hf.rectification_residual(s, samples)).max())
        for s in analytic_systems)
    worst_flow = max(
        float(np.abs(hf.rectification_residual(s, samples)).max())
        for s in dynamic_systems)
    ok = worst_analytic < 1e-10 and worst_flow < 1e-6
    _report(1, "rectification-identity", ok,
            f"analytic {worst_analytic:.2e} < 1e-10, flow {worst_flow:.2e} < 1e-6")


def test_criterion_02_determinant_identity(samples, analytic_systems,
                                           dynamic_systems):
    def residual(system):
        det = np.linalg.det(system.W.jacobian(samples))
        return float(np.abs(det - system.sigma.eval(samples)
                            * system.theta.eval(samples)).max())

    worst_analytic = max(residual(s) for s in analytic_systems)
    worst_flow = max(residual(s) for s in dynamic_systems)
    ok = worst_analytic < 1e-10 and worst_flow < 1e-6
    _report(2, "determinant-identity", ok,
            f"analytic {worst_analytic:.2e} < 1e-10, flow {worst_flow:.2e} < 1e-6")


def test_criterion_03_cross_product_contract():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        v, v2, v3 = rng.standard_normal((3, 3))
        lhs = v @ hf.cross_product([v2, v3])
        det = leibniz_det(np.stack([v, v2, v3], axis=-1))
        worst = max(worst, abs(lhs - det) / max(1.0, abs(det)))
    ok = worst < 1e-12
    _report(3, "cross-product-contract", ok, f"relative {worst:.2e} < 1e-12")


def test_criterion_04_liouville_identities(samples):
    x0 = samples[:100]
    worst_consistency = 0.0
    for system in (twist_system(EPS_CANONICAL), deltagamma_system(EPS_CANONICAL),
                   shear_system(EPS_CANONICAL)):
        state = advect(system.b, x0, 2.0, H_PINNED, carry_jacobian=True)
        det = np.linalg.det(state.jac)
        worst_consistency = max(worst_consistency,
                                float(np.abs(det - np.exp(state.logdet)).max()))
    system = deltagamma_system(EPS_CANONICAL)
    state = advect(system.b, x0, 2.0, H_PINNED, carry_jacobian=True)
    ratio = system.sigma.eval(x0) / system.sigma.eval(state.pos)
    worst_ratio = float(np.abs(np.linalg.det(state.jac) - ratio).max())
    ok = worst_consistency < 1e-8 and worst_ratio < 1e-6
    _report(4, "liouville-identities", ok,
            f"det vs exp-integral {worst_consistency:.2e} < 1e-8, "
            f"density ratio {worst_ratio:.2e} < 1e-6")


@pytest.mark.slow
def test_criterion_05_lp_stability(unit_bump_mod):
    delta = gamma = 0.3
    system = deltagamma_system(EPS_CANONICAL, delta, gamma)
    sol = hf.solve_transport(system.b, unit_bump_mod, H_SWEEP)
    c = (1.0 + delta * gamma) / (1.0 - delta * gamma)
    box = hf.dependence_box(unit_bump_mod, system.b.sup_bound, 2.0)
    n0 = hf.lp_norm(sol, 0.0, 2.0, box, 256)
    worst = 0.0
    ok = True
    for t in (0.5, 1.0, 2.0):
        nt = hf.lp_norm(sol, t, 2.0, box, 256)
        worst = max(worst, nt / n0)
        ok = ok and nt <= c * n0 * (1.0 + 1e-3)
    _report(5, "lp-stability", ok,
            f"max ratio {worst:.6f} <= bound {c * (1 + 1e-3):.6f} at m=256")


def test_criterion_06_effective_coefficients():
    worst_sigma = worst_xi = worst_quasi = 0.0
    for cell in (hf.deltagamma_cell(0.3, 0.3), hf.shear_cell(0.3)):
        coeffs = hf.effective_from_cell(cell, m=64)
        worst_sigma = max(worst_sigma, abs(coeffs.sigma0 - 1.0))
        worst_xi = max(worst_xi,
                       float(np.abs(np.asarray(coeffs.xi0) - [1.0, 0.0]).max()))
        worst_quasi = max(worst_quasi, coeffs.quasi_affinity_residual)
    ok = worst_sigma < 1e-10 and worst_xi < 1e-10 and worst_quasi < 1e-10
    _report(6, "effective-coefficients", ok,
            f"sigma0 {worst_sigma:.2e}, xi0 {worst_xi:.2e}, "
            f"quasi-affinity {worst_quasi:.2e}, all < 1e-10 at m=64")


@pytest.mark.slow
def test_criterion_07_weak_convergence(sweep_data, unit_bump_mod):
    eps_list, makers, coeffs, solutions = sweep_data
    quad = SpacetimeQuad(T=1.0, n_time=64, m_space=64, nodes_per_period=8.0,
                         resolve_scale=min(eps_list))
    dico = hf.default_dictionary(2, T=1.0, count=5, radius=0.4)
    ok = True
    details = []
    for fam in makers:
        v0 = unit_bump_mod.scaled(float(coeffs[fam].sigma0))
        v = hf.solve_homogenized(coeffs[fam], v0, "density", H_SWEEP)
        for j, phi in enumerate(dico):
            limit = density_pairing(v, phi, quad)
            errors = [abs(weak_pairing(*solutions[fam, eps], phi, quad) - limit)
                      for eps in eps_list]
            monotone = all(errors[i + 1] < errors[i] for i in range(3))
            factor_ok = errors[-1] <= 0.25 * errors[0]
            ok = ok and monotone and factor_ok
            details.append(f"{fam}/phi{j}: factor {errors[-1] / errors[0]:.3f}"
                           f"{'' if monotone else ' NON-MONOTONE'}")
    _report(7, "weak-convergence", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_08_strong_convergence(sweep_data, unit_bump_mod):
    # fixed datum and p = 4 > 2: the strong-convergence hypotheses hold, the
    # measured quantity is the density-weighted L2 distance on a box
    eps_list, makers, coeffs, solutions = sweep_data
    quad = SpacetimeQuad(T=1.0, n_time=64, m_space=64)
    t_list = (0.52, 0.93)  # avoids integer multiples of every eps in the list
    ok = True
    details = []
    for fam in makers:
        sol_limit = hf.solve_homogenized(coeffs[fam], unit_bump_mod,
                                         "advective", H_SWEEP)
        sup = solutions[fam, 0.4][0].b.sup_bound or 2.0
        box = hf.dependence_box(unit_bump_mod, sup, 1.0, margin=0.2)
        errors = []
        for eps in eps_list:
            system, sol = solutions[fam, eps]
            errors.append(hf.strong_l2_error(sol, sol_limit, system, box,
                                             t_list, quad, resolution=256))
        monotone = all(errors[i + 1] < errors[i] for i in range(3))
        ok = ok and monotone
        details.append(f"{fam}: " + " > ".join(f"{e:.3e}" for e in errors))
    _report(8, "strong-convergence", ok, "; ".join(details))


def test_criterion_09_homogenized_equivalence():
    rng = np.random.default_rng(2)
    u0 = hf.bump_datum(2, [0.0, 0.0], 1.0, 1.0)
    sigma0 = 2.0
    coeffs = hf.constant_coefficients(2, sigma0, [1.0, 0.5])
    v = hf.solve_homogenized(coeffs, u0.scaled(sigma0), "density", H_PINNED)
    u = hf.solve_homogenized(coeffs, u0, "advective", H_PINNED)
    worst = 0.0
    for t in rng.uniform(0.0, 1.0, 10):
        x = rng.uniform(-2.0, 2.0, (100, 2))
        worst = max(worst, float(np.abs(v.eval(t, x) - sigma0 * u.eval(t, x)).max()))
    ok = worst < 1e-12
    _report(9, "homogenized-equivalence", ok,
            f"density vs scaled advective {worst:.2e} < 1e-12 on 1000 samples")


def test_criterion_10_flow_map_correctness(samples):
    x0 = samples[:20]
    worst_var = worst_semi = worst_inv = 0.0
    for field in (shear_velocity(), deltagamma_system(EPS_CANONICAL).b):
        jac = advect(field, x0, 1.0, H_PINNED, carry_jacobian=True).jac
        fd = central_jac(lambda p: advect(field, p, 1.0, H_PINNED).pos, x0)
        worst_var = max(worst_var,
                        float((np.abs(jac - fd) / np.maximum(1.0, np.abs(fd))).max()))
        defect = hf.semigroup_defect(field, 0.3, 0.7, x0, H_PINNED)
        worst_semi = max(worst_semi, float(np.max(defect)))
        fwd = advect(field, x0, 1.0, H_PINNED).pos
        back = advect(field, fwd, -1.0, H_PINNED).pos
        worst_inv = max(worst_inv, float(np.abs(back - x0).max()))
    ok = worst_var < 1e-4 and worst_semi < 1e-8 and worst_inv < 1e-8
    _report(10, "flow-map-correctness", ok,
            f"variational vs FD {worst_var:.2e} < 1e-4, semigroup "
            f"{worst_semi:.2e} < 1e-8, inversion {worst_inv:.2e} < 1e-8")


def test_criterion_11_sweep_determinism():
    config = ("family.name = deltagamma\n"
              "sweep.eps = 0.4,0.2\n"
              "dictionary.count = 3\n"
              "quadrature.m = 24\n"
              "quadrature.time_nodes = 16\n"
              "quadrature.nodes_per_eps = 4.0\n"
              "quadrature.lp_m = 64\n"
              "integrator.h = 0.005\n")
    first = run_sweep(parse_config(config))
    second = run_sweep(parse_config(config))
    ok = first == second and first[0] == 0
    _report(11, "sweep-determinism", ok,
            f"two runs byte-identical ({len(first[1])} bytes)")
