"""Property tests over random sine cells: the proven drift bound and the
closed-form drift.

Examples are derandomized, so every run draws the same cells.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import homoflow as hf

_SMALL = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.2, 0.2))
_LARGE = st.floats(0.5, 1.5)


@st.composite
def sine_cells(draw):
    """(M, delta, gamma) of a valid sine cell, signed zeros included."""
    a, b, c, e = (draw(_SMALL) for _ in range(4))
    p, q = draw(_LARGE), draw(_LARGE)
    if draw(st.booleans()):  # diagonal affine part: det >= 0.25 - 0.4^2
        m = [p, a, b, q]
    else:  # anti-diagonal affine part: det >= 0.3^2 - 0.2^2
        m = [a, p, -q, b]
    # negating both rows (delta and gamma with them) keeps every det
    sign = draw(st.sampled_from([1.0, -1.0]))
    m00, m01, m10, m11, d, g = (sign * v for v in m + [c, e])
    corners = np.array([-1.0, 1.0])
    det = m00 * m11 - (d * corners[None, :] + m01) * (g * corners[:, None] + m10)
    assume(det.min() > 0.0)
    return np.array([[m00, m01], [m10, m11]]), d, g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sine_cells(), st.floats(0.01, 1.0), st.integers(0, 2 ** 32 - 1))
def test_sine_cell_proven_bound_and_closed_form_drift(cell_args, eps, seed):
    cell = hf.sine_cell(*cell_args)
    bound = cell.proven_drift_sup
    assert bound is not None
    # the bound covers a dense cell grid (corners included) and is tight
    axis = np.arange(256) / 256
    y = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    dense = float(np.linalg.norm(cell.drift(y), axis=-1).max())
    assert dense <= bound <= dense * (1.0 + 1e-12)
    system = hf.periodic_family(cell, eps)
    assert system.b.proven_sup == bound <= system.b.sup_bound
    # the closed form returns the generic formula's bits, whatever the shape
    generic = dataclasses.replace(cell, drift=None, proven_drift_sup=None)
    reference = hf.periodic_family(generic, eps).b
    x = np.random.default_rng(seed).normal(scale=5.0, size=(300, 2))
    for batch in (x, x[7], x.reshape(10, 30, 2), x[:0]):
        assert system.b.eval(batch).tobytes() == reference.eval(batch).tobytes()
        assert system.b.eval(batch).shape == reference.eval(batch).shape
