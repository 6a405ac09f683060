"""Property tests of the twist drift: the one-pass evaluation returns the
bits of the formula b = ((e^{-B} a'(x2))(1 - p beta'(p)), ((e^{-B} a'(x1))
a(x2)^2) beta'(p)), p = a(x1) a(x2), B = beta(p), evaluated term by term;
with the identity alpha, RK4 converges to its closed-form flow, and
samplers pruned by that flow equal unpruned ones bit for bit.

Examples are derandomized, so every run draws the same families and points.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import homoflow as hf


def reference_drift(alpha, beta, x):
    """The twist drift term by term, from the curves' separate evaluators."""
    x1, x2 = x[..., 0], x[..., 1]
    a1, a2 = alpha.eval(x1), alpha.eval(x2)
    d1, d2 = alpha.deriv(x1), alpha.deriv(x2)
    p = a1 * a2
    bb, bp = beta.eval(p), beta.deriv(p)
    em = np.exp(-bb)
    return np.stack([em * d2 * (1.0 - p * bp), em * d1 * a2 ** 2 * bp], axis=-1)


_COORD = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-20.0, 20.0))


@st.composite
def twist_profiles(draw):
    """(alpha, beta) as the CLI builds them: identity or perturbed alpha,
    beta = (beta_amp eps) sin(t / eps), or zero for beta_amp = 0."""
    eps = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        alpha = hf.identity_curve()
    else:
        alpha = hf.perturbed_identity_curve(draw(st.floats(-0.99, 0.99)))
    beta_amp = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    beta = hf.zero_curve() if beta_amp == 0.0 else hf.sine_curve(beta_amp * eps, 1.0 / eps)
    return alpha, beta, eps


@settings(max_examples=80, deadline=None, derandomize=True)
@given(twist_profiles(), st.integers(1, 4), st.integers(1, 6), st.data())
def test_twist_drift_matches_the_formula_bit_for_bit(profiles, k, m, data):
    alpha, beta, eps = profiles
    b = hf.hyperbolic_twist_family(alpha, beta, eps).b
    flat = data.draw(st.lists(_COORD, min_size=2 * k * m, max_size=2 * k * m))
    x = np.array(flat).reshape(k, m, 2)
    for batch in (x.reshape(-1, 2), x[0, 0], x, x[:, :0], x.reshape(-1, 2)[:0]):
        got = b.eval(batch)
        want = reference_drift(alpha, beta, batch)
        assert got.shape == want.shape == batch.shape
        assert got.tobytes() == want.tobytes()
    # the input is left as it was
    assert np.array(flat).reshape(k, m, 2).tobytes() == x.tobytes()


# ---------------------------------------------------------------------------
# the closed-form flow of the identity-alpha drift, and the samplers it prunes
# ---------------------------------------------------------------------------

@st.composite
def identity_alpha_twists(draw, eps_range, amp_range):
    """The drift b of an identity-alpha twist, beta = (beta_amp eps) sin(t /
    eps), or zero for beta_amp = 0, with its eps and beta_amp."""
    eps = draw(st.floats(*eps_range))
    beta_amp = draw(st.one_of(st.just(0.0), st.floats(*amp_range)))
    beta = hf.zero_curve() if beta_amp == 0.0 else hf.sine_curve(beta_amp * eps, 1.0 / eps)
    return hf.hyperbolic_twist_family(hf.identity_curve(), beta, eps).b, eps, beta_amp


def test_only_a_unit_slope_alpha_carries_the_flow():
    beta = hf.sine_curve(0.1, 10.0)
    assert hf.hyperbolic_twist_family(hf.identity_curve(), beta, 0.1).b.exact_flow is not None
    assert hf.hyperbolic_twist_family(hf.perturbed_identity_curve(0.3), beta,
                                      0.1).b.exact_flow is None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(identity_alpha_twists((0.05, 0.5), (0.25, 2.0)),
       st.floats(0.1, 0.6), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_rk4_converges_to_the_exact_flow_at_fourth_order(drift, t, backward, seed):
    # RK4's gap to the closed form falls about 16x per halving of h once h
    # resolves the eps scale (n steps with h = |t|/n <= eps/8, then 2n and
    # 4n); gaps within reach of roundoff are not compared
    b, eps, beta_amp = drift
    t = -t if backward else t
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, (16, 2))
    exact = b.exact_flow(t, x)
    assert exact.shape == x.shape and np.all(np.isfinite(exact))
    n = int(np.ceil(8.0 * abs(t) / eps))
    gaps = [float(np.abs(hf.advect(b, x, t, hf.IntegratorConfig(h=abs(t) / m)).pos
                         - exact).max())
            for m in (n, 2 * n, 4 * n)]
    if beta_amp == 0.0:
        # b = e1: both are the translation x + t e1
        assert max(gaps) < 1e-14
        return
    for coarse, fine in zip(gaps, gaps[1:]):
        if fine > 1e-12:
            assert coarse >= 12.0 * fine, gaps


@settings(max_examples=12, deadline=None, derandomize=True)
@given(identity_alpha_twists((0.1, 0.4), (0.0, 1.0)),
       st.sampled_from([[0.52, 0.93], [0.25, 0.5, 1.0], [-0.93, -0.52]]),
       st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
       st.integers(0, 2 ** 32 - 1))
def test_flow_pruned_samplers_equal_unpruned_ones(drift, times, center, seed):
    # the sweep's strong grid at smoke size (64^2 nodes on the dependence box
    # of T = 1, its drift bound sampled as the CLI does, h = 0.005): the
    # drift with its flow prunes the far nodes, the same drift without it
    # integrates them all, and the two agree bit for bit
    b, _, _ = drift
    u0 = hf.bump_datum(2, center, 1.0)
    probe, _ = hf.Box.from_radius(np.zeros(2), 3.0).midpoint_grid(33)
    sup = float(np.linalg.norm(b.eval(probe), axis=-1).max()) * 1.1
    pts, _ = hf.dependence_box(u0, sup, 1.0, margin=0.2).midpoint_grid(64)
    cfg = hf.IntegratorConfig(h=0.005)
    pruned = hf.solve_transport(b, u0, cfg)
    full = hf.solve_transport(dataclasses.replace(b, exact_flow=None), u0, cfg)
    ref = full.eval_times(times, pts)
    assert np.count_nonzero(ref) > 0
    assert pruned.eval_times(times, pts).tobytes() == ref.tobytes()
    needed = np.random.default_rng(seed).random(ref.shape) < 0.5
    assert pruned.eval_times(times, pts, needed=needed).tobytes() == \
        np.where(needed, ref, 0.0).tobytes()
