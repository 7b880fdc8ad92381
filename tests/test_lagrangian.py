import dataclasses

import numpy as np
import pytest
from helpers import SHALLOW_PHI, monopolist_setup, quartic_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu1d import lagrangian
from abreu1d.grid import build_grid
from abreu1d.lagrangian import LagrangianSpec, check_partials, make_rochet_chone, polyder, polyval
from abreu1d.minimizer import minimize_direct
from abreu1d.solver import newton_solve

DERIVED_PARTIALS = ("f0_z", "f0_zz", "f1_p", "f1_pp", "f1_px", "f1_pxp", "f1_ppp")


def _zero_field(x, y):
    return np.zeros_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))


def test_spec_is_nine_required_callbacks():
    fields = dataclasses.fields(LagrangianSpec)
    assert [f.name for f in fields] == [
        "f0", "f0_z", "f0_zz", "f1", "f1_p", "f1_pp", "f1_px", "f1_pxp", "f1_ppp"]
    assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
               for f in fields)


def test_constant_weight_partials():
    spec = make_rochet_chone([1.0])
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 50)
    z = rng.uniform(-2, 2, 50)
    p = rng.uniform(-2, 2, 50)
    np.testing.assert_allclose(spec.f1_px(x, p), -1.0)
    np.testing.assert_allclose(spec.f0_zz(x, z), 0.0)
    np.testing.assert_allclose(spec.f1_pp(x, p), 1.0)
    np.testing.assert_allclose(spec.f1_pxp(x, p), 0.0)
    np.testing.assert_allclose(spec.f1_ppp(x, p), 0.0)
    np.testing.assert_allclose(spec.f0(x, z), z)
    np.testing.assert_allclose(spec.f1(x, p), 0.5 * p * p - p * x)


def test_zero_weight_gives_zero_fields():
    spec = make_rochet_chone([0.0])
    x = np.linspace(-1, 1, 11)
    for f in dataclasses.fields(spec):
        np.testing.assert_allclose(getattr(spec, f.name)(x, x), 0.0)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative weight"):
        make_rochet_chone([0.0, 1.0])  # eta0(x) = x < 0 for x < 0


@pytest.mark.parametrize(
    "make",
    [lambda: make_rochet_chone([1.0]), lambda: make_rochet_chone([1.0, 0.5]),
     lambda: make_rochet_chone([1.0, 0.0, 0.5]), lambda: make_rochet_chone([0.0]), quartic_spec],
    ids=["const", "linear", "quadratic", "zero", "quartic"],
)
def test_check_partials_accepts_consistent_specs(make):
    check_partials(make())


def test_check_partials_rejects_concavity_in_p():
    spec = LagrangianSpec(
        f0=_zero_field, f0_z=_zero_field, f0_zz=_zero_field,
        f1=lambda x, p: -p * p,
        f1_p=lambda x, p: -2.0 * p,
        f1_pp=lambda x, p: -2.0 * np.ones_like(np.asarray(p, dtype=float)),
        f1_px=_zero_field, f1_pxp=_zero_field, f1_ppp=_zero_field,
    )
    with pytest.raises(ValueError, match=r"^f1_pp = -2 < 0 at x = "):
        check_partials(spec)


@pytest.mark.parametrize("name", DERIVED_PARTIALS)
def test_check_partials_names_a_corrupted_partial(name):
    # a constant offset changes no finite difference of this partial, so
    # only its own comparison can fail
    spec = quartic_spec()
    good = getattr(spec, name)
    bad = dataclasses.replace(spec, **{name: lambda x, y: good(x, y) + 0.01})
    with pytest.raises(ValueError, match=rf"^{name} disagrees with finite differences"):
        check_partials(bad)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LagrangianSpec)])
def test_check_partials_refuses_a_scalar_returning_callback(name):
    # the solvers slice what each callback returns, so each must return an
    # array of its arguments' shape; a Python float or a numpy scalar is refused
    for scalar in (lambda x, y: 1.0, lambda x, y: np.float64(1.0)):
        bad = dataclasses.replace(quartic_spec(), **{name: scalar})
        with pytest.raises(ValueError, match=rf"^{name} returns (float|float64) of shape \(\), "
                                             r"not an array of its arguments' shape \(41, 41\)$"):
            check_partials(bad)


def test_check_partials_rejects_nan():
    spec = dataclasses.replace(quartic_spec(), f1_ppp=lambda x, p: np.full_like(p, np.nan))
    with pytest.raises(ValueError, match="^f1_ppp disagrees"):
        check_partials(spec)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3),
    st.floats(1e-3, 2.0),
)
def test_check_partials_accepts_positive_cubic_weights(tail, margin):
    # eta0 = c0 + c1 x + c2 x^2 + c3 x^3 with c0 chosen so min eta0 = margin
    x = np.linspace(-1.0, 1.0, 2001)
    rest = np.polynomial.polynomial.polyval(x, [0.0, *tail])
    check_partials(make_rochet_chone([margin - float(np.min(rest)), *tail]))


def test_derivative_consistency_small_step():
    spec = make_rochet_chone([1.0, 0.0, 0.5])
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 200)
    z = rng.uniform(-2, 2, 200)
    p = rng.uniform(-2, 2, 200)
    d = 1e-6
    pairs = [
        ((spec.f0(x, z + d) - spec.f0(x, z - d)) / (2 * d), spec.f0_z(x, z)),
        ((spec.f1(x, p + d) - spec.f1(x, p - d)) / (2 * d), spec.f1_p(x, p)),
        ((spec.f1_p(x, p + d) - spec.f1_p(x, p - d)) / (2 * d), spec.f1_pp(x, p)),
        ((spec.f1_p(x + d, p) - spec.f1_p(x - d, p)) / (2 * d), spec.f1_px(x, p)),
    ]
    for fd, analytic in pairs:
        rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1.0)
        assert np.max(rel) <= 1e-6


FINITE = st.floats(-1e3, 1e3, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=6), st.lists(FINITE, min_size=1, max_size=40))
def test_polyval_equals_numpy_polyval_bitwise(coeffs, xs):
    # degrees 0-5, with coefficients as an array and as the tuple of floats
    # that `make_rochet_chone` passes, on arrays and on scalars
    x = np.array(xs)
    P = np.polynomial.polynomial
    for c in (np.array(coeffs), tuple(coeffs)):
        for point in (x, x.reshape(1, -1), xs[0], x[0]):
            ours, numpy_value = polyval(c, point), P.polyval(point, c)
            assert np.shape(ours) == np.shape(numpy_value)
            assert np.array_equal(ours, numpy_value)
            assert np.array_equal(np.signbit(ours), np.signbit(numpy_value))


@pytest.mark.parametrize("coeffs", [[-0.0], [0.0], [1.0, -0.0], [-0.0, -0.0], [2.0, 0.0, -0.0],
                                    [-0.0, 0.0, 0.0, -0.0]])
def test_polyval_keeps_numpys_signed_zeros(coeffs):
    # numpy starts Horner from c[-1] + 0 * x, which is not c[-1] when that is -0.0
    x = np.array([-2.0, -0.0, 0.0, 3.0, 5e-324, -5e-324])
    P = np.polynomial.polynomial
    for point in (x, *x.tolist()):
        ours, numpy_value = polyval(coeffs, point), P.polyval(point, coeffs)
        assert np.array_equal(ours, numpy_value)
        assert np.array_equal(np.signbit(ours), np.signbit(numpy_value))


@settings(max_examples=200, deadline=None)
@given(st.lists(FINITE, min_size=2, max_size=6))
def test_polyder_equals_numpy_polyder_bitwise(coeffs):
    P = np.polynomial.polynomial
    assert np.array_equal(polyder(coeffs), P.polyder(coeffs))
    if len(coeffs) > 2:
        assert np.array_equal(polyder(polyder(coeffs)), P.polyder(coeffs, 2))


# the obstacles and weights of the tests and the benchmark configs
SAMPLED_POLYNOMIALS = ([-1.0, 0.0, 1.0], [-3.0, 0.0, 3.0], [-1.0 / 3.0, 0.0, 1.0 / 3.0],
                       [1.0, 0.5], [1.0, 0.0, 0.5])


@pytest.mark.parametrize("n", [16, 128, 1024, 8192])
def test_sampled_polynomials_equal_numpy_bitwise(n):
    P = np.polynomial.polynomial
    x = build_grid(n, -0.5, 0.5).nodes
    for c in SAMPLED_POLYNOMIALS:
        assert np.array_equal(polyval(c, x), P.polyval(x, c))
        assert np.array_equal(polyval(polyder(c), x), P.polyval(x, P.polyder(c)))
        if len(c) > 2:
            assert np.array_equal(polyval(polyder(polyder(c)), x), P.polyval(x, P.polyder(c, 2)))


# eta0 of degree 0-3, nonnegative on [-1, 1]; -0.0 as the constant and as
# the leading coefficient of a line and a cubic
WEIGHTS = ([2.0], [-0.0], [1.0, 0.5], [1.0, 0.5, -0.0], [1.0, 0.0, 0.5],
           [1.0, 0.1, 0.2, 0.3], [1.0, 0.25, 0.5, -0.0])
# the callbacks whose value depends on x alone: three that a binding
# evaluates once, and two that are identically zero
X_ONLY = ("f0_z", "f1_pp", "f1_pxp")
ZERO_PARTIALS = ("f0_zz", "f1_ppp")


def _reference(coeffs, x, y):
    """Every callback of `make_rochet_chone(coeffs)` at (x, y), by `polyval`
    on every call."""
    eta, eta_prime = polyval(coeffs, x), polyval(polyder(coeffs), x)
    zeros = np.zeros_like(x)
    return {
        "f0": y * eta, "f0_z": eta, "f0_zz": zeros,
        "f1": (0.5 * y * y - y * x) * eta, "f1_p": (y - x) * eta, "f1_pp": eta,
        "f1_px": (y - x) * eta_prime - eta, "f1_pxp": eta_prime, "f1_ppp": zeros,
    }


def _assert_bitwise(value, expected, name):
    assert value.shape == expected.shape and value.tobytes() == expected.tobytes(), name


def _node_arrays(g):
    """The nodes, which the setup binds for the scheme, the window's cell
    midpoints, which it binds for the oracle, and a writeable copy of the nodes."""
    return g.nodes, g.nodes[g.ia : g.ib] + 0.5 * g.h, g.nodes.copy()


@pytest.mark.parametrize("coeffs", WEIGHTS)
def test_callbacks_equal_an_uncached_reference_bitwise(coeffs):
    g = build_grid(128, -0.5, 0.5)
    spec = make_rochet_chone(coeffs, g.nodes)
    for x in _node_arrays(g):
        y = np.cos(x)
        for name, expected in _reference(coeffs, x, y).items():
            _assert_bitwise(getattr(spec, name)(x, y), expected, name)


@pytest.mark.parametrize("spec", [*(make_rochet_chone(c) for c in WEIGHTS), quartic_spec()],
                         ids=[*(f"eta0={c}" for c in WEIGHTS), "quartic"])
def test_bound_partials_equal_unbound_bitwise(spec):
    g = build_grid(128, -0.5, 0.5)
    for x in _node_arrays(g):
        bound = spec.bind(x)
        assert bound.x is x
        for y in (np.linspace(-2.0, 2.0, len(x)), np.cos(x)):
            for name in DERIVED_PARTIALS + ("f0", "f1"):
                partial = getattr(bound, name)
                if partial is None:  # left out as identically zero
                    assert name in ZERO_PARTIALS
                    _assert_bitwise(np.zeros_like(x), getattr(spec, name)(x, y), name)
                else:
                    _assert_bitwise(partial(y), getattr(spec, name)(x, y), name)


@pytest.mark.parametrize("name", X_ONLY)
def test_cached_values_are_read_only(name):
    # `RochetChoneSpec.bind` evaluates the x-only values once and hands
    # out those arrays, read-only, on every call
    g = build_grid(64, -0.5, 0.5)
    spec = make_rochet_chone([1.0, 0.5], g.nodes)
    for x in _node_arrays(g):
        bound = spec.bind(x)
        value = getattr(bound, name)(x)
        assert value is getattr(bound, name)(-x)
        with pytest.raises(ValueError, match="read-only"):
            value += 1.0
        assert np.array_equal(value, _reference([1.0, 0.5], x, x)[name])


@pytest.mark.parametrize("name", ZERO_PARTIALS)
def test_identically_zero_partials_are_left_out(name):
    # `RochetChoneSpec.bind` hands out no array for them, so Newton's
    # Jacobian and the barrier's Hessian add no zeros; unbound, they are zero
    g = build_grid(64, -0.5, 0.5)
    spec = make_rochet_chone([1.0, 0.5], g.nodes)
    for x in _node_arrays(g):
        assert getattr(spec.bind(x), name) is None
        assert np.array_equal(getattr(spec, name)(x, np.cos(x)), np.zeros_like(x))
    assert getattr(quartic_spec().bind(g.nodes), name) is not None


def test_newton_evaluates_the_weight_once_per_stage(monkeypatch):
    # the newton-sweep benchmark's problem: eta0 = 1 + x/2 at n = 128.  The
    # setup has bound the weight, so a stage evaluates it no more, however
    # many iterations it takes.
    def polyval_calls(u0):
        setup = monopolist_setup(n=128, eps=0.1, weight=(1.0, 0.5))
        calls = []
        monkeypatch.setattr(lagrangian, "polyval",
                            lambda c, x: calls.append(x) or polyval(c, x))
        result = newton_solve(setup, setup.phi if u0 is None else u0)
        monkeypatch.undo()
        assert result.converged
        return len(calls), result

    cold_calls, cold = polyval_calls(None)
    warm_calls, warm = polyval_calls(cold.u)
    assert cold.newton_iters >= 3 and warm.newton_iters <= 1
    assert cold_calls == warm_calls == 0


def test_the_oracle_evaluates_the_weight_once_per_node_array(monkeypatch):
    # shallow at n = 128 takes the barrier's whole path from the obstacle,
    # some 675 steps; the setup has bound the weight at the cell midpoints
    # and at the nodes, so neither the barrier nor J evaluates it
    setup = monopolist_setup(n=128, phi=SHALLOW_PHI, rho=1.5)
    calls = []
    monkeypatch.setattr(lagrangian, "polyval", lambda c, x: calls.append(x) or polyval(c, x))
    result = minimize_direct(setup)
    assert result.start == "obstacle" and result.iters > 600
    assert calls == []


def test_the_setup_binds_the_weight_once_per_problem(monkeypatch):
    # eta0 and eta0' at the nodes and at the window's cell midpoints, and no
    # more when a stage's setup is made from it
    calls = []
    monkeypatch.setattr(lagrangian, "polyval", lambda c, x: calls.append(x) or polyval(c, x))
    setup = monopolist_setup(n=64, weight=(1.0, 0.5))
    g = setup.grid
    assert len(calls) == 1 + 4  # the sign check of eta0, then the two bindings
    assert setup.at_nodes.x is g.nodes
    assert np.array_equal(setup.at_midpoints.x, g.nodes[g.ia : g.ib] + 0.5 * g.h)
    stage = dataclasses.replace(setup, eps=1e-3)
    assert stage.at_nodes is setup.at_nodes and stage.at_midpoints is setup.at_midpoints
    assert len(calls) == 5
