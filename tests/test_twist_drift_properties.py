"""Property test of the twist drift: the one-pass evaluation returns the bits
of the formula b = ((e^{-B} a'(x2))(1 - p beta'(p)), ((e^{-B} a'(x1)) a(x2)^2)
beta'(p)), p = a(x1) a(x2), B = beta(p), evaluated term by term.

Examples are derandomized, so every run draws the same families and points.
"""

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(twist_profiles(), st.lists(_COORD, min_size=1, max_size=40))
def test_curve_jets_match_eval_and_deriv(profiles, ts):
    t = np.array(ts)
    for curve in profiles[:2]:
        value, slope = curve.value_and_slope(t)
        assert np.asarray(value).tobytes() == curve.eval(t).tobytes()
        assert np.asarray(slope).tobytes() == curve.deriv(t).tobytes()
