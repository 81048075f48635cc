"""Ground-state solver checks against closed forms and frozen values.

The one-dimensional problem -u'' + u = u^3 has the exact solution
sqrt(2) sech(s), which pins the solver end to end; the planar constants
were frozen from independent high-resolution runs of the shooting and
collocation stages.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from multibump import (
    ConvergenceError,
    PotentialSpec,
    RadialProfile,
    ValidationError,
    expansion_constants,
    radial_integral,
    solve_ground_state,
)
from multibump import groundstate
from multibump.groundstate import _series_start, classify_trajectory


def test_line_soliton_matches_sech(profile1d):
    exact = np.sqrt(2.0) / np.cosh(profile1d.s)
    assert np.max(np.abs(profile1d.values - exact)) <= 1e-6


def test_line_soliton_integrals(profile1d):
    # int U^2 = 4 and int U^4 = 16/3 over the whole line
    assert abs(radial_integral(profile1d, 2.0) - 4.0) <= 1e-5 * 4.0
    assert abs(radial_integral(profile1d, 4.0) - 16.0 / 3.0) <= 1e-5 * (16.0 / 3.0)


def test_line_soliton_point_value(profile1d):
    exact = np.sqrt(2.0) / np.cosh(1.0)
    i = int(np.argmin(np.abs(profile1d.s - 1.0)))
    assert abs(profile1d.values[i] - exact) <= 2e-6


def test_planar_peak_value(profile2d):
    assert abs(profile2d.u0 - 2.2062008646) <= 1e-6


def test_planar_quartic_integral(profile2d):
    assert abs(radial_integral(profile2d, 4.0) - 23.40179324111229) <= 1e-6


def test_planar_profile_shape(profile2d):
    vals = profile2d.values
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert profile2d.ode_residual_fd() <= 1e-5


def test_planar_expansion_constants(profile2d):
    consts = expansion_constants(profile2d, PotentialSpec(a=1.0, m=2.0))
    assert abs(consts.A - 5.850448310278073) <= 1e-7
    assert abs(consts.B1 - 5.850448272) <= 1e-6
    # B1 scales linearly with the potential amplitude
    half = expansion_constants(profile2d, PotentialSpec(a=0.5, m=2.0))
    assert abs(half.B1 - 0.5 * consts.B1) <= 1e-12
    assert half.A == consts.A


def test_classifier_brackets_the_ground_state():
    # the planar critical amplitude sits near 2.206
    assert classify_trajectory(1.5, 2, 3.0) == "turns"
    assert classify_trajectory(3.0, 2, 3.0) == "crosses"


def events_class(alpha, dimension, exponent, s_end=45.0):
    """The trajectory class as solve_ivp's terminal events give it, with
    the right-hand side in numpy scalars."""

    def rhs(s, y):
        u, du = y
        friction = (dimension - 1) / s * du if s > 0 else 0.0
        return [du, u - np.sign(u) * np.abs(u) ** exponent - friction]

    def ev_cross(s, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1

    def ev_turn(s, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1

    s0 = 1e-3
    y0 = _series_start(alpha, s0, dimension, exponent)
    sol = solve_ivp(rhs, (s0, s_end), y0, method="RK45",
                    rtol=1e-10, atol=1e-12, events=(ev_cross, ev_turn))
    if sol.t_events[0].size:
        return "crosses"
    if sol.t_events[1].size:
        return "turns"
    u, du = sol.y[:, -1]
    grow = du + u * (1.0 + (dimension - 1) / (2.0 * s_end))
    return "turns" if grow > 0 else "crosses"


@pytest.mark.parametrize("fixture", ["profile1d", "profile2d", "profile3d"])
def test_classifier_agrees_with_solve_ivp_events(fixture, request):
    profile = request.getfixturevalue(fixture)
    n, p = profile.dimension, profile.exponent
    heights = [profile.u0 * (1.0 + sign * rel) for rel in (1e-9, 1e-6, 1e-3)
               for sign in (-1.0, 1.0)]
    for alpha in heights + [1.5, 3.0]:
        assert classify_trajectory(alpha, n, p) == events_class(alpha, n, p), alpha


@pytest.mark.parametrize("dimension, exponent", [(1, 3.0), (2, 3.0), (2, 5.0)])
def test_estimate_skips_shootings_and_leaves_the_profile_bit_identical(
        dimension, exponent, monkeypatch):
    shots = []
    shoot = groundstate.classify_trajectory
    monkeypatch.setattr(groundstate, "classify_trajectory",
                        lambda *args: shots.append(args) or shoot(*args))
    fast = solve_ground_state(dimension, exponent)
    n_fast = len(shots)
    estimate = groundstate._u0_estimate(dimension, exponent, fast.s_max)
    assert abs(estimate / fast.u0 - 1.0) <= 1e-9
    # without the estimate every midpoint is shot
    monkeypatch.setattr(groundstate, "_u0_estimate", lambda *args: None)
    shot = solve_ground_state(dimension, exponent)
    assert n_fast <= 15 < len(shots) - n_fast
    assert np.array_equal(fast.s, shot.s)
    assert np.array_equal(fast.values, shot.values)
    assert np.array_equal(fast.derivatives, shot.derivatives)
    assert fast.far_field_amplitude == shot.far_field_amplitude
    assert fast.residual == shot.residual


def test_near_critical_solve_ends_in_a_typed_error():
    # N = 3, p = 4.5 sits close to the critical exponent 5: the final
    # collocation runs out of mesh nodes and must say so
    with pytest.raises(ConvergenceError):
        solve_ground_state(3, 4.5)


def test_fixed_step_convergence():
    """Peak value error shrinks with the output grid spacing."""
    coarse = solve_ground_state(1, 3.0, h=0.04)
    fine = solve_ground_state(1, 3.0, h=0.01)
    exact = np.sqrt(2.0)
    e_coarse = np.max(np.abs(coarse.values - np.sqrt(2.0) / np.cosh(coarse.s)))
    e_fine = np.max(np.abs(fine.values - np.sqrt(2.0) / np.cosh(fine.s)))
    assert abs(coarse.u0 - exact) <= 1e-6
    assert e_fine <= e_coarse + 1e-9


def test_profile_csv_round_trip(profile2d, tmp_path):
    path = tmp_path / "profile.csv"
    profile2d.to_csv(path)
    back = RadialProfile.from_csv(path)
    assert back.dimension == profile2d.dimension
    assert back.exponent == profile2d.exponent
    np.testing.assert_allclose(back.s, profile2d.s)
    np.testing.assert_allclose(back.values, profile2d.values)
    assert abs(back.far_field_amplitude - profile2d.far_field_amplitude) <= 1e-12


def test_parameter_validation():
    with pytest.raises(ValidationError):
        solve_ground_state(0, 3.0)
    with pytest.raises(ValidationError):
        solve_ground_state(2, 1.0)
    with pytest.raises(ValidationError):
        # supercritical for N = 3
        solve_ground_state(3, 7.0)
    with pytest.raises(ValidationError):
        solve_ground_state(2, 3.0, s_max=5.0)
    with pytest.raises(ValidationError):
        radial_integral(solve_ground_state(1, 3.0), 0.5)


def spline_and_law(profile, s):
    """U and U' from scipy's spline up to s_max and the decay law beyond."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    spline = CubicHermiteSpline(profile.s, profile.values, profile.derivatives)
    u, du = spline(s), spline.derivative()(s)
    out = s > profile.s_max
    tail = s[out]
    n = profile.dimension
    law = profile.far_field_amplitude * tail ** (-(n - 1) / 2.0) * np.exp(-tail)
    u[out] = law
    du[out] = -law * (1.0 + (n - 1) / (2.0 * tail))
    return u, du


def profile_points(profile):
    rng = np.random.default_rng(0)
    d = 12.0
    s = np.linspace(0.0, d + profile.s_max + 5.0, 1881)
    w = 2.0 * np.pi * np.arange(256) / 256
    return {
        "random": rng.uniform(0.0, 45.0, 10**5),
        "nodes": profile.s,
        "below_nodes": np.nextafter(profile.s, 0.0),
        "beyond": profile.s_max + np.array([1e-12, 0.01, 0.5, 7.0, 15.0]),
        # the distance array of a planar interaction integral
        "ring": np.sqrt(s[:, None] ** 2 + d * d - 2.0 * d * s[:, None] * np.cos(w)),
    }


@pytest.mark.parametrize("name", ["random", "nodes", "below_nodes", "beyond", "ring"])
def test_profile_kernel_is_bit_identical_to_the_spline(profile2d, name):
    """One interval lookup gives exactly scipy's spline values, at and
    one ulp below every node too, and the decay law past s_max."""
    s = profile_points(profile2d)[name]
    u, du = spline_and_law(profile2d, s.ravel())
    got_u, got_du = profile2d.evaluate(s)
    assert got_u.shape == got_du.shape == s.shape
    assert np.array_equal(got_u.ravel(), u)
    assert np.array_equal(got_du.ravel(), du)
    assert np.array_equal(profile2d(s).ravel(), u)
    assert np.array_equal(profile2d.deriv(s).ravel(), du)


def test_profile_kernel_on_scalars(profile2d):
    for s in (0.0, 2.5, profile2d.s_max, 40.0):
        u, du = spline_and_law(profile2d, s)
        assert profile2d(s) == u[0] and isinstance(profile2d(s), float)
        assert profile2d.deriv(s) == du[0] and isinstance(profile2d.deriv(s), float)
        assert profile2d.evaluate(s) == (u[0], du[0])


def test_profile_kernel_after_csv_round_trip(profile2d, tmp_path):
    path = tmp_path / "profile.csv"
    profile2d.to_csv(path)
    back = RadialProfile.from_csv(path)
    s = profile_points(back)["random"]
    u, du = spline_and_law(back, s)
    got_u, got_du = back.evaluate(s)
    assert np.array_equal(got_u, u) and np.array_equal(got_du, du)
    assert np.array_equal(got_u, profile2d(s))


def test_profile_kernel_refuses_uneven_nodes(profile2d):
    s = profile2d.s.copy()
    s[5] += 0.3 * profile2d.h
    uneven = RadialProfile(2, 3.0, s, profile2d.values, profile2d.derivatives,
                           profile2d.far_field_amplitude)
    with pytest.raises(ValidationError, match="uniformly spaced"):
        uneven(1.0)


def test_equal_profiles_compare_without_raising():
    """== on profiles is identity: equal node arrays must not make it raise."""
    s = np.linspace(0.0, 1.0, 5)

    def make():
        return RadialProfile(2, 3.0, s.copy(), np.exp(-s), -np.exp(-s), 1.0)

    a = make()
    assert a == a
    assert (a == make()) is False
