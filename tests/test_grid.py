import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu1d.grid import build_grid, d1, d2, integrate


def test_build_grid_exact_window_nodes():
    g = build_grid(16, -0.5, 0.5)
    assert (g.ia, g.ib) == (4, 12)
    assert g.h == 0.125
    assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
    assert g.a == -0.5 and g.b == 0.5


def test_build_grid_snaps_to_nearest_node():
    g = build_grid(16, -0.49, 0.5)
    assert g.ia == 4
    assert g.a == -0.5


def test_build_grid_window_too_small():
    with pytest.raises(ValueError, match="window too small"):
        build_grid(16, 0.4, 0.5)


@pytest.mark.parametrize("a,b", [(0.5, 0.4), (-1.2, 0.5), (0.1, 1.0), (-1.0, 0.5)])
def test_build_grid_bad_domain(a, b):
    with pytest.raises(ValueError, match="bad domain"):
        build_grid(64, a, b)


@pytest.mark.parametrize("n", [8, 15, 17])
def test_build_grid_rejects_small_or_odd_n(n):
    with pytest.raises(ValueError, match="need even n >= 16"):
        build_grid(n, -0.5, 0.5)


def test_nodes_refuse_writes():
    g = build_grid(16, -0.5, 0.5)
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        g.nodes += 1.0
    assert g.nodes[0] == -1.0


def test_window_masks():
    g = build_grid(16, -0.5, 0.5)
    assert g.nodes[g.window_slice()][0] == g.a
    assert g.nodes[g.window_slice()][-1] == g.b


def test_d1_exact_on_quadratics_and_constants():
    g = build_grid(16, -0.5, 0.5)
    x = g.nodes
    np.testing.assert_allclose(d1(x * x, g), 2 * x, atol=1e-13)
    np.testing.assert_allclose(d1(np.full_like(x, 3.7), g), 0.0, atol=1e-13)


def test_d2_exact_on_quadratics_and_affine():
    g = build_grid(16, -0.5, 0.5)
    x = g.nodes
    np.testing.assert_allclose(d2(x * x, g), 2.0, atol=1e-12)
    np.testing.assert_allclose(d2(1.5 * x - 0.25, g), 0.0, atol=1e-12)


def test_d1_refinement_ratio_on_cubic():
    errs = []
    for n in (64, 128):
        g = build_grid(n, -0.5, 0.5)
        x = g.nodes
        errs.append(np.max(np.abs(d1(x**3, g) - 3 * x * x)))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6


def test_d2_endpoint_refinement_ratio_on_quartic():
    errs = []
    for n in (32, 64):
        g = build_grid(n, -0.5, 0.5)
        x = g.nodes
        err = np.abs(d2(x**4, g) - 12 * x * x)
        errs.append(max(err[0], err[-1]))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6


def test_d2_refinement_ratio_interior():
    errs = []
    for n in (64, 128):
        g = build_grid(n, -0.5, 0.5)
        x = g.nodes
        errs.append(np.max(np.abs(d2(np.sin(x), g) + np.sin(x))))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6


def test_integrate_constants_and_odd_symmetry():
    g = build_grid(64, -0.5, 0.5)
    assert integrate(np.ones(g.n + 1), g, 0, g.n) == pytest.approx(2.0, abs=1e-14)
    assert integrate(g.nodes.copy(), g, 0, g.n) == pytest.approx(0.0, abs=1e-14)


def test_integrate_quadratic_and_refinement():
    errs = []
    for n in (64, 128):
        g = build_grid(n, -0.5, 0.5)
        errs.append(abs(integrate(g.nodes**2, g, 0, g.n) - 2.0 / 3.0))
    assert errs[0] <= 1e-3
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_integrate_degree_two_error_formula():
    # trapezoid error on f with constant f'' over [lo, hi]:
    # exact - computed = -(h^2/12) * f'' * (hi - lo)
    g = build_grid(64, -0.5, 0.5)
    computed = integrate(g.nodes**2, g, 0, g.n)
    assert computed - 2.0 / 3.0 == pytest.approx(g.h**2 * 2.0 * 2.0 / 12.0, abs=1e-14)


def test_length_mismatch_and_bad_range():
    g = build_grid(16, -0.5, 0.5)
    with pytest.raises(ValueError):
        d1(np.zeros(g.n), g)
    with pytest.raises(ValueError):
        d2(np.zeros(g.n + 2), g)
    with pytest.raises(ValueError):
        integrate(np.zeros(g.n + 1), g, 5, 5)
    with pytest.raises(ValueError):
        integrate(np.zeros(g.n + 1), g, 0, g.n + 1)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _same_bits(a, b):
    # IEEE 754 leaves open which operand's sign and payload an operation on
    # two nans keeps, and numpy's scalars keep the other one from Python's
    # floats, so a nan matches any nan
    if np.isnan(a) and np.isnan(b):
        return True
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, min_size=17, max_size=17), st.sampled_from([16, 8192]))
def test_endpoint_rows_equal_numpy_scalar_formulas_bitwise(values, n):
    # the endpoint rows are formed in Python floats; numpy's float64 scalars
    # give the same bits, signed zeros and infinities included
    g = build_grid(n, -0.5, 0.5)
    v = np.zeros(n + 1)
    v[:8], v[-9:] = values[:8], values[8:]
    h, h2 = g.h, g.h * g.h
    with np.errstate(all="ignore"):
        first, second = d1(v, g), d2(v, g)
        rows = [
            (first[0], (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)),
            (first[-1], (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)),
            (second[0], (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2),
            (second[-1], (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2),
        ]
    for row, expected in rows:
        assert isinstance(expected, np.float64)
        assert _same_bits(row, expected), (row, expected)
