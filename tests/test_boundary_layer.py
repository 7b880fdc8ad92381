"""The boundary layer of the second boundary condition when rho != 1/phi''(+-1).

On the calibration obstacle phi = x^2 - 1, u = phi and w = 1/phi'' = 1/2
solve the scheme for rho+- = 1/2.  Any other rho+- forces a layer at that
end: linearizing eps * w'' = (u - phi)/eps about u = phi gives a damped
oscillation of w - 1/phi'' with decay rate and wavenumber
beta = sqrt(phi''(+-1) / (2 eps)), so consecutive zeros of w - 1/2 lie pi/beta
apart wherever the grid resolves the layer.
"""

import numpy as np
import pytest
from helpers import CAL_PHI, SHALLOW_PHI, STEEP_PHI, monopolist_setup

from abreu1d.grid import build_grid
from abreu1d.lagrangian import make_rochet_chone
from abreu1d.solver import (Tolerances, continuation_sweep, default_eps_schedule, layer_beta_h,
                            make_setup)

N = 512
STAGES = 9  # eps = 0.1 * 2^-k down to 3.9e-4
# From eps = 3.125e-3 on, the layer is thin enough for the linearization to
# hold to 1 %, and pi/beta still spans >= 16 cells at the last stage.
RESOLVED_FROM = 5


def zero_crossings(x, y):
    """Linearly interpolated zeros of y between nodes where its sign changes."""
    k = np.flatnonzero(np.sign(y[:-1]) != np.sign(y[1:]))
    return x[k] - y[k] * (x[k + 1] - x[k]) / (y[k + 1] - y[k])


@pytest.mark.parametrize("rho_minus, rho_plus", [(1.0, 1.0), (1.0, 0.75)])
def test_layer_zeros_lie_pi_over_beta_apart(rho_minus, rho_plus):
    g = build_grid(N, -0.5, 0.5)
    setup = make_setup(g, make_rochet_chone([1.0], g.nodes), CAL_PHI, rho_minus, rho_plus, 0.1)
    stages = continuation_sweep(setup, default_eps_schedule(stages=STAGES),
                                Tolerances(newton_tol_scale=1e-6))
    assert len(stages) == STAGES and all(result.converged for _, result in stages)
    for stage, result in stages[RESOLVED_FROM:]:
        zeros = zero_crossings(g.nodes, result.w - 0.5)
        beta = np.sqrt(2.0 / (2.0 * stage.eps))  # phi'' = 2 at both ends
        # README's resolution rule: the layer is resolved while beta * h <~ 0.2
        assert layer_beta_h(stage) == (pytest.approx(beta * g.h, rel=1e-14),) * 2
        assert beta * g.h < 0.2
        for spacing in (zeros[1] - zeros[0], zeros[-1] - zeros[-2]):
            assert spacing * beta / np.pi == pytest.approx(1.0, abs=0.01), stage.eps


# The steep obstacle phi = 3(x^2 - 1) has phi'' = 6, so 1/phi'' = 1/6 and
# beta = sqrt(3 / eps): beta * h is 0.121 and 0.171 at eps = 3.125e-3 and
# 1.5625e-3, stages 5 and 6 of 11, and above 0.2 from stage 7 on.
STEEP_STAGES = 11
STEEP_RESOLVED = slice(5, 7)


@pytest.mark.parametrize("rho_minus, rho_plus", [(1.0 / 6.0, 0.3), (0.3, 1.0 / 6.0)])
def test_steep_layer_zeros_lie_pi_over_beta_apart(rho_minus, rho_plus):
    # only the end whose rho is not 1/6 has a layer; its two zeros of
    # w - 1/6 nearest the boundary, outside the window, lie pi/beta apart
    g = build_grid(N, -0.5, 0.5)
    setup = make_setup(g, make_rochet_chone([1.0], g.nodes), STEEP_PHI, rho_minus, rho_plus, 0.1)
    stages = continuation_sweep(setup, default_eps_schedule(stages=STEEP_STAGES),
                                Tolerances(newton_tol_scale=1e-6))
    assert len(stages) == STEEP_STAGES and all(result.converged for _, result in stages)
    left = rho_minus != 1.0 / 6.0
    outside = g.nodes < g.a if left else g.nodes > g.b
    for stage, result in stages[STEEP_RESOLVED]:
        beta = np.sqrt(6.0 / (2.0 * stage.eps))
        assert beta * g.h < 0.2
        zeros = zero_crossings(g.nodes[outside], result.w[outside] - 1.0 / 6.0)
        spacing = zeros[1] - zeros[0] if left else zeros[-1] - zeros[-2]
        assert spacing * beta / np.pi == pytest.approx(1.0, abs=0.01), stage.eps


# rho+- does not appear in the limit problem's J, so the limit cannot depend
# on the second boundary data: rho moves the solution outside the window
# only, by an O(h^2) term that does not fall with eps.
LIMIT_SCHEDULE = default_eps_schedule(0.1, 0.25, 12)  # eps = 0.1 down to 2.4e-8


def _sweep(n, phi, rho_minus, rho_plus):
    setup = monopolist_setup(n=n, eps=LIMIT_SCHEDULE[0], phi=phi, rho=rho_minus, rho_plus=rho_plus)
    stages = continuation_sweep(setup, LIMIT_SCHEDULE)
    assert len(stages) == len(LIMIT_SCHEDULE) and all(result.converged for _, result in stages)
    return stages


@pytest.mark.parametrize("phi, rho", [(STEEP_PHI, 1.0 / 6.0), (SHALLOW_PHI, 1.5)],
                         ids=["steep", "shallow"])
@pytest.mark.parametrize("other", [(1.0, 1.0), (0.5, 3.0)], ids=["rho=(1,1)", "rho=(0.5,3)"])
def test_the_limit_does_not_depend_on_the_second_boundary_data(phi, rho, other):
    outside = []
    for n in (64, 128):
        base, moved = _sweep(n, phi, rho, rho), _sweep(n, phi, *other)
        g = base[0][0].grid
        win = g.window_slice()
        for (stage, a), (_, b) in zip(base, moved):
            if stage.eps <= 1e-4:
                assert np.max(np.abs(a.u - b.u)[win]) <= 1e-12, (n, stage.eps)
        diff = np.abs(base[-1][1].u - moved[-1][1].u)
        diff[win] = 0.0
        outside.append(float(diff.max()))
    # the change outside the window is an O(h^2) term: it falls by 4 as h halves
    assert outside[0] / outside[1] == pytest.approx(4.0, abs=0.1)
