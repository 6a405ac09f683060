"""Property tests over random sine cells: the proven drift box and the
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
    box = cell.proven_drift_box
    assert box is not None
    lo, hi = box
    # the box covers a dense cell grid (corners included) and is tight
    axis = np.arange(256) / 256
    y = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    dense = cell.drift(y)
    assert np.all(lo <= dense.min(axis=0)) and np.all(dense.max(axis=0) <= hi)
    corner = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    assert np.abs(dense.min(axis=0) - lo).max() <= 1e-12 * corner
    assert np.abs(dense.max(axis=0) - hi).max() <= 1e-12 * corner
    system = hf.periodic_family(cell, eps)
    assert system.b.proven_box is box
    # the closed form returns the generic formula's bits, whatever the shape
    generic = dataclasses.replace(cell, drift=None, proven_drift_box=None)
    reference = hf.periodic_family(generic, eps).b
    x = np.random.default_rng(seed).normal(scale=5.0, size=(300, 2))
    for batch in (x, x[7], x.reshape(10, 30, 2), x[:0]):
        assert system.b.eval(batch).tobytes() == reference.eval(batch).tobytes()
        assert system.b.eval(batch).shape == reference.eval(batch).shape


_ANY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))


@st.composite
def sine_cell_params(draw):
    """(m00, m01, m10, m11, delta, gamma): a valid cell, any parameters, or
    a cell whose smallest corner det, m00 m11 - delta gamma, is within
    rounding of 0."""
    kind = draw(st.sampled_from(["valid", "any", "near"]))
    if kind == "valid":
        m, d, g = draw(sine_cells())
        return (*(float(v) for v in m.ravel()), d, g)
    if kind == "near":
        m00, m11, d = draw(_LARGE), draw(_LARGE), draw(_LARGE)
        return m00, 0.0, 0.0, m11, d, (m00 * m11 - draw(st.floats(-1e-9, 1e-9))) / d
    return tuple(draw(_ANY) for _ in range(6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sine_cell_params(), st.integers(0, 2 ** 32 - 1))
def test_sine_drift_box_contains_every_computed_drift(params, seed):
    m00, m01, m10, m11, d, g = params
    c = np.array([-1.0, 1.0])
    det = m00 * m11 - (d * c[None, :] + m01) * (g * c[:, None] + m10)
    M = np.array([[m00, m01], [m10, m11]])
    if not np.all(det > 0.0):
        # a corner det <= 0 refuses the cell
        with pytest.raises(hf.InvalidCellError, match="least corner value"):
            hf.sine_cell(M, d, g)
        return
    # the box is claimed exactly where a norm bound was claimed before:
    # where the rounding estimate's kappa <= 1e12
    claimed = (abs(m00 * m11) + (abs(d) + abs(m01)) * (abs(g) + abs(m10))) / det.min() <= 1e12
    cell = hf.sine_cell(M, d, g)
    assert (cell.proven_drift_box is not None) == claimed
    if not claimed:
        return
    lo, hi = cell.proven_drift_box
    # the exact cosine corners, where the extremes sit, and random points
    corners = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
    y = np.concatenate([corners, np.random.default_rng(seed).normal(scale=3.0,
                                                                    size=(2000, 2))])
    b = cell.drift(y)
    assert np.all(lo <= b) and np.all(b <= hi)
