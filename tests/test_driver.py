"""Reduced-energy maximization, scaling study, and Newton certification."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq

from multibump import (
    ContractionError,
    ConvergenceError,
    NumericalError,
    PotentialSpec,
    ReducedEnergyCurve,
    ValidationError,
    admissible_radii,
    build_reduction_context,
    energy_functional,
    extend_past_edge,
    gram_matrix,
    maximize_reduced_energy,
    pde_residual,
    polish_and_certify,
    reduced_energy,
    riesz_lk,
    scaling_study,
)
from multibump import driver, reduction
from multibump.solvers import minres


def ring_formula(k, a_const=1.0, b1=1.0, b2=1.0, m=2.0):
    return lambda r: k * (a_const + b1 / r**m - b2 * math.exp(-2.0 * math.pi * r / k))


def test_formula_mode_finds_the_analytic_maximum(potential):
    """Golden-section argmax agrees with a root solve on the derivative."""
    k = 8
    f = ring_formula(k)
    curve = maximize_reduced_energy(None, potential, k, n_samples=21,
                                    evaluator=f, refine_frac=1e-5)
    window = admissible_radii(k, potential.m, beta=0.1)
    dfdr = lambda r: -2.0 / r**3 + (2.0 * math.pi / k) * math.exp(
        -2.0 * math.pi * r / k
    )
    r_star = brentq(dfdr, window.lower, window.upper, xtol=1e-12)
    assert curve.interior
    assert curve.r_max == pytest.approx(r_star, abs=1e-3)
    assert curve.f_max == pytest.approx(f(r_star), rel=1e-10)
    assert np.all(np.isnan(curve.asymptotics))


def test_formula_mode_without_interaction_hugs_the_lower_edge(potential):
    # b2 = 0 leaves k (A + B1/r^m), strictly decreasing in r
    k = 8
    curve = maximize_reduced_energy(None, potential, k, n_samples=11,
                                    evaluator=ring_formula(k, b2=0.0))
    assert not curve.interior
    assert curve.r_max - curve.lower <= 0.01 * (curve.upper - curve.lower)


def _counted(f, calls):
    def counted(r):
        calls.append(r)
        return f(r)
    return counted


@pytest.mark.parametrize("sign, edge", [(1.0, "upper"), (-1.0, "lower")])
def test_a_clamped_end_costs_one_inward_sample(potential, sign, edge):
    """F falls one refinement tolerance inside the best end sample: that
    end is the argmax, found with one evaluation past the scan."""
    k = 8
    calls = []
    curve = maximize_reduced_energy(None, potential, k, n_samples=11,
                                    evaluator=_counted(lambda r: sign * r, calls))
    assert len(calls) == 12
    assert curve.r_max == getattr(curve, edge)
    assert curve.f_max == sign * getattr(curve, edge)
    assert not curve.interior


def test_a_peak_inside_the_last_step_is_still_refined(potential):
    k = 8
    window = admissible_radii(k, potential.m, beta=0.1)
    step = window.width / 10
    r_star = window.upper - 0.3 * step
    calls = []
    curve = maximize_reduced_energy(
        None, potential, k, n_samples=11,
        evaluator=_counted(lambda r: -(r - r_star) ** 2, calls),
    )
    assert len(calls) > 12  # the golden section ran
    assert abs(curve.r_max - r_star) <= 1e-3 * window.width


def test_failed_scan_radii_are_reported(potential):
    k = 8
    window = admissible_radii(k, potential.m, beta=0.1)
    cut = window.lower + 0.3 * window.width
    base = ring_formula(k)

    def flaky(r):
        if r < cut:
            raise ContractionError("no correction here")
        return base(r)

    curve = maximize_reduced_energy(None, potential, k, n_samples=11,
                                    evaluator=flaky)
    assert len(curve.failed_radii) >= 1
    assert all(r < cut for r in curve.failed_radii)
    assert curve.radii.size + len(curve.failed_radii) >= 11
    assert np.all(curve.radii >= cut)


def test_maximize_validation(profile2d, potential):
    with pytest.raises(ValidationError):
        maximize_reduced_energy(profile2d, potential, 8, n_samples=5)
    with pytest.raises(ValidationError):
        maximize_reduced_energy(profile2d, potential, 1)


def test_reduced_energy_tracks_the_asymptotic_value(profile2d, potential,
                                                    constants2d, law2d):
    k = 8
    window = admissible_radii(k, potential.m, beta=0.1)
    res = reduced_energy(profile2d, potential, k, window.midpoint,
                         constants=constants2d, law=law2d, h=0.2)
    assert res.method in ("picard", "newton")
    assert res.correction.norm > 0.0
    assert abs(res.value - res.asymptotic) / abs(res.value) <= 0.05


def test_correction_barely_moves_the_ansatz_energy(profile2d, potential,
                                                   constants2d, law2d):
    """|I(W + phi) - I(W)| obeys the first-order bound |l(phi)| <= |l| |phi|.

    The sign of the shift is not fixed at desk scale: the constrained
    critical point trades the quadratic gain against a cubic remainder
    of comparable size.
    """
    k = 8
    window = admissible_radii(k, potential.m, beta=0.1)
    r = window.upper
    res = reduced_energy(profile2d, potential, k, r,
                         constants=constants2d, law=law2d, h=0.2)
    ctx = build_reduction_context(profile2d, potential, k, r, h=0.2)
    i_w = energy_functional(ctx.grid, ctx.w_ansatz, ctx.gram, profile2d.exponent)
    shift = abs(res.value - i_w)
    assert shift <= 1.0 / k
    assert shift <= riesz_lk(ctx).norm * res.correction.norm


@pytest.mark.parametrize("k, sample", [(4, 10), (4, 7), (8, 3)],
                         ids=["k4-upper", "k4-r1.9869", "k8-r4.6298"])
def test_newton_rescue_is_accepted_where_the_contraction_stops(profile2d, law2d,
                                                               k, sample):
    """At a = 2 these coarse radii need the rescue, and it holds.

    The inexact Newton steps must still land on the constrained critical
    point: converged residual, c(phi) = 0 and a perturbative norm.  At
    k = 4, r = 1.9869 (norm 2.90, cap 3.06) and k = 8, r = 4.6298 (norm
    3.55, cap 3.66) the accepted correction lies closest to the cap, so
    an early cap verdict that refused too soon would show here.
    """
    stronger = PotentialSpec(a=2.0, m=2.0)
    window = admissible_radii(k, stronger.m, beta=0.1)
    r = np.linspace(window.lower, window.upper, 11)[sample]
    res = reduced_energy(profile2d, stronger, k, r, law=law2d, h=0.15)
    ctx = build_reduction_context(profile2d, stronger, k, r, h=0.15)
    assert res.method == "newton"
    assert res.correction.residual <= 1e-8
    assert abs(res.correction.constraint_value) <= 1e-8
    assert res.correction.norm <= 0.25 * ctx.norm(ctx.w_ansatz)


def test_lower_edge_radius_is_still_refused(profile2d, potential, law2d,
                                           monkeypatch):
    """The lowest coarse k = 6 radius stays a typed refusal after the rescue.

    The damped steps there barely shrink |g|, so the stagnation verdict
    must end the rescue well before its 40-step cap; each Newton step
    makes one ``reduction.minres`` call, counted after the contraction
    has given up.
    """
    calls, picard_calls = [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return minres(*args, **kwargs)

    def picard(*args, **kwargs):
        try:
            return reduction.solve_correction(*args, **kwargs)
        finally:
            picard_calls.append(len(calls))

    monkeypatch.setattr(reduction, "minres", counted)
    monkeypatch.setattr(driver, "solve_correction", picard)
    r = admissible_radii(6, potential.m, beta=0.1).lower
    with pytest.raises((ContractionError, ConvergenceError)):
        reduced_energy(profile2d, potential, 6, r, law=law2d, h=0.15)
    assert len(picard_calls) == 1
    assert 1 <= len(calls) - picard_calls[0] <= 15


def test_desk_scale_curve_is_monotone(profile2d, potential, constants2d, law2d):
    """At these k the window is short of the turnover: F climbs across it.

    The argmax therefore clamps to the upper edge and the normalized
    radius reports the band edge value m/(2 pi) + beta.
    """
    curve = maximize_reduced_energy(profile2d, potential, 8, n_samples=9,
                                    constants=constants2d, law=law2d, h=0.2)
    assert np.all(np.diff(curve.values) > 0.0)
    assert not curve.interior
    assert not curve.extended
    assert curve.r_max == pytest.approx(curve.upper, abs=1e-6)
    assert curve.normalized == pytest.approx(1.0 / np.pi + 0.1, abs=1e-6)


def test_boundary_extension_reaches_the_turnover(profile2d, potential,
                                                 constants2d, law2d):
    curve = extend_past_edge(maximize_reduced_energy(
        profile2d, potential, 8, n_samples=9, constants=constants2d, law=law2d, h=0.2,
    ))
    assert curve.extended
    assert curve.r_max > curve.upper
    # frozen from an independent fixed-grid scan of the same setup
    assert curve.r_max == pytest.approx(9.20, abs=0.05)


def test_boundary_extension_refines_a_turnover_within_one_step(potential):
    """F falls on the first step outward but peaks past the edge.

    The maximum then lies in (upper - step, upper + step), and the
    refinement must search that bracket instead of keeping the clamp.
    """
    k = 8
    window = admissible_radii(k, potential.m, beta=0.1)
    step = window.width / 10
    r_star = window.upper + 0.4 * step
    curve = extend_past_edge(maximize_reduced_energy(
        None, potential, k, n_samples=11, evaluator=lambda r: -(r - r_star) ** 2,
    ))
    assert curve.extended
    assert curve.r_max == pytest.approx(r_star, abs=1e-3 * window.width)


def assert_same_curve(a, b):
    for field in dataclasses.fields(ReducedEnergyCurve):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=field.name)
        else:
            assert x == y, field.name


def _turnover_out(steps):
    """Parabola peaking ``steps`` coarse steps past the k = 8 window edge."""
    def make(window, step):
        r_star = window.upper + steps * step
        return lambda r: -(r - r_star) ** 2
    return make


def _edge_sample_fails(window, step):
    """F rises across the window but no correction exists at the edge."""
    def f(r):
        if r > window.upper - 0.01 * step:
            raise ContractionError("no correction here")
        return r
    return f


@pytest.mark.parametrize(
    "make, extended",
    [(_turnover_out(3.6), True), (_turnover_out(0.4), True),
     (_edge_sample_fails, False)],
    ids=["several-steps-out", "first-step-falls", "edge-sample-fails"],
)
def test_extension_continues_the_in_window_curve(potential, make, extended):
    """The continuation keeps the window samples and samples F, through
    the curve's own sampler, only past the edge."""
    k = 8
    window = admissible_radii(k, potential.m, beta=0.1)
    step = window.width / 10
    calls = []
    f = make(window, step)

    def counted(r):
        calls.append(r)
        return f(r)

    in_window = maximize_reduced_energy(None, potential, k, n_samples=11,
                                        evaluator=counted)
    n_search = len(calls)
    continued = extend_past_edge(in_window)
    assert continued.extended == extended
    assert continued.sampler is in_window.sampler
    np.testing.assert_array_equal(continued.radii[:in_window.radii.size], in_window.radii)
    extension = calls[n_search:]
    if extended:
        assert min(extension) > window.upper - step
        with pytest.raises(ValidationError, match="already continues"):
            extend_past_edge(continued)
    else:
        assert extension == []
        assert window.upper in continued.failed_radii
        assert_same_curve(continued, in_window)


def test_curve_csv(profile2d, potential, constants2d, law2d, tmp_path):
    curve = maximize_reduced_energy(profile2d, potential, 8, n_samples=9,
                                    constants=constants2d, law=law2d, h=0.2)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,f_reduced,f_asymptotic"
    assert len(lines) == 1 + curve.radii.size


def test_study_single_bump_row(profile2d, potential, constants2d, law2d):
    table = scaling_study(profile2d, potential, (1,), constants=constants2d,
                          law=law2d, h=0.25, n_samples=9)
    row = table.rows[0]
    assert row.k == 1
    assert math.isnan(row.normalized)
    assert row.interior
    assert row.rho_hat > 0.0
    assert row.phi_norm < 0.1  # one off-center bump needs a small correction
    assert table.trends() == []


def test_study_ladder_structure(study_table, tmp_path):
    table, _ = study_table
    ks = [row.k for row in table.rows]
    assert ks == [6, 8, 10, 12]
    trends = table.trends()
    assert math.isnan(trends[0][1])
    for k, step, gap in trends[1:]:
        assert abs(step) <= 1e-12  # every argmax clamps to the same band edge
        assert gap == pytest.approx(0.1, abs=1e-12)
    path = tmp_path / "study.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("k,r_k,normalized,")
    assert len(lines) == 1 + len(table.rows)


def test_study_parallel_rows_match_serial(profile2d, potential, constants2d, law2d):
    kwargs = dict(constants=constants2d, law=law2d, h=0.25, n_samples=9)
    serial = scaling_study(profile2d, potential, (6, 8), jobs=1, **kwargs)
    parallel = scaling_study(profile2d, potential, (6, 8), jobs=2, **kwargs)
    assert serial.rows == parallel.rows


def test_study_rows_from_supplied_curves_match_its_own_search(
    profile2d, potential, constants2d, law2d
):
    kwargs = dict(constants=constants2d, law=law2d, h=0.15, n_samples=9)
    curve = maximize_reduced_energy(profile2d, potential, 6, **kwargs)
    searched = scaling_study(profile2d, potential, (6,), **kwargs)
    supplied = scaling_study(profile2d, potential, (6,), curves={6: curve}, **kwargs)
    assert supplied.rows == searched.rows


def test_study_refuses_curves_it_cannot_use(potential):
    window = admissible_radii(6, potential.m, beta=0.1)
    continued = extend_past_edge(maximize_reduced_energy(
        None, potential, 6, evaluator=lambda r: -(r - window.upper - 0.5) ** 2,
    ))
    with pytest.raises(ValidationError, match="already continues"):
        scaling_study(None, potential, (6,), curves={6: continued})
    with pytest.raises(ValidationError, match="supplied under k=8"):
        scaling_study(None, potential, (8,), curves={8: continued})


@pytest.fixture(scope="module")
def curve6(profile2d, potential, constants2d, law2d):
    return maximize_reduced_energy(profile2d, potential, 6, n_samples=9,
                                   constants=constants2d, law=law2d, h=0.25)


def test_a_pickled_curve_keeps_an_equal_sampler(curve6):
    copy = pickle.loads(pickle.dumps(curve6))
    assert copy.sampler == curve6.sampler
    assert copy.sampler.profile is not curve6.sampler.profile
    assert copy.sampler != dataclasses.replace(curve6.sampler, h=0.3)


@pytest.mark.parametrize("setting, value, named", [
    ("h", 0.3, "another h than"),
    ("beta", 0.05, "another window than"),
    ("n_samples", 11, "another n_samples than"),
])
def test_study_refuses_a_curve_searched_with_other_settings(
    profile2d, potential, constants2d, law2d, curve6, monkeypatch, setting, value, named
):
    """A k = 6 curve searched at h = 0.25, beta = 0.1 with 9 samples is
    refused by a study with another setting, before any row runs."""
    rows = []
    monkeypatch.setattr(driver, "_study_row", lambda *args: rows.append(args))
    kwargs = dict(constants=constants2d, law=law2d, h=0.25, n_samples=9)
    kwargs[setting] = value
    with pytest.raises(ValidationError, match=named):
        scaling_study(profile2d, potential, (1, 6), curves={6: curve6}, **kwargs)
    assert rows == []


@pytest.fixture(scope="module")
def cert6(profile2d, potential):
    return polish_and_certify(profile2d, potential, 6, 6.2, tol=1e-8, h=0.15)


def test_polish_certifies_six_bumps(cert6):
    assert cert6.residual_norm <= 1e-8
    assert cert6.steps <= 10
    assert cert6.min_value > 0.0
    assert cert6.nonradiality >= 0.1
    # the secant on the multiplier stays close to the start radius
    assert abs(cert6.r_k - 6.2) <= 0.2
    assert np.isfinite(cert6.energy)


def test_certified_solution_satisfies_the_nehari_identity(profile2d, potential, cert6):
    """2k u.G u - 2k sum area |u|^(p+1) is 2k u.res, which Cauchy-Schwarz
    bounds by the L2 norm of u times the certified residual norm."""
    grid, u, p = cert6.grid, cert6.u, profile2d.exponent
    areas = grid.cell_areas().reshape(-1)
    quad = 2.0 * grid.k * float(u @ (gram_matrix(grid, potential) @ u))
    power = 2.0 * grid.k * float(np.sum(areas * np.abs(u) ** (p + 1.0)))
    u_l2 = math.sqrt(2.0 * grid.k * float(np.sum(areas * u * u)))
    assert abs(quad - power) <= u_l2 * cert6.residual_norm


def test_certificate_multiplier_is_bounded_by_the_tolerance(profile2d, potential, cert6):
    """The weak residual of u is lambda q up to 0.1 tol and its norm is at
    most tol, so |lambda| |q| <= 1.1 tol (weak norms on cert6's grid)."""
    grid, tol = cert6.grid, 1e-8
    ctx = build_reduction_context(profile2d, potential, 6, cert6.r_k, h=0.15, grid=grid)
    areas = grid.cell_areas().reshape(-1)

    def weak_norm(g):
        return math.sqrt(2.0 * grid.k * float(np.sum(g * g / areas)))

    res, _ = pde_residual(grid, cert6.u, gram_matrix(grid, potential), profile2d.exponent)
    assert cert6.multiplier != 0.0
    assert weak_norm(res - cert6.multiplier * ctx.q) <= 0.1 * tol
    assert abs(cert6.multiplier) * weak_norm(ctx.q) <= 1.1 * tol


@pytest.mark.parametrize("k, r_start, r_expected", [(8, 9.60, 9.2338), (12, 15.89, 15.5721)])
def test_polish_certifies_from_a_turnover_start(profile2d, potential, k, r_start, r_expected):
    """Starts a few tenths past the critical radius, where Newton on the
    unconstrained system used to crawl along the soft ring mode."""
    cert = polish_and_certify(profile2d, potential, k, r_start, h=0.15)
    assert cert.residual_norm <= 1e-6
    assert cert.min_value > 0.0
    assert cert.nonradiality >= 0.1
    assert abs(cert.r_k - r_expected) <= 1e-3


def test_polish_basin_covers_amplitude_errors(profile2d, potential, cert6):
    """Starts at 0.75 W and 1.25 W certify the same ring of bumps.

    These starts polish on the grid aligned at cert6's certified radius,
    cert6 on the grid aligned at its start 6.2, so the two discrete
    equilibria differ by the discretization: radii agree to a small
    fraction of the window, fields to a few percent and energies to
    about 1e-3, not to solver precision.
    """
    window = admissible_radii(6, potential.m, beta=0.1)
    ctx = build_reduction_context(profile2d, potential, 6, cert6.r_k, h=0.15)
    for scale in (-0.25, 0.25):
        cert2 = polish_and_certify(profile2d, potential, 6, cert6.r_k,
                                   phi=scale * ctx.w_ansatz, tol=1e-6,
                                   h=0.15, max_steps=60)
        assert abs(cert2.r_k - cert6.r_k) <= 1e-3 * (window.upper - window.lower)
        assert cert2.min_value > 0.0
        assert cert2.nonradiality >= 0.1
        assert np.max(np.abs(cert6.u - cert2.u)) <= 0.05
        assert cert2.energy == pytest.approx(cert6.energy, abs=1e-3)


def test_polish_refuses_a_mis_sized_correction(profile2d, potential):
    with pytest.raises(ValidationError, match="phi holds 10 values"):
        polish_and_certify(profile2d, potential, 6, 6.2, phi=np.zeros(10), h=0.15)


def test_certified_residual_is_the_pde_residual(profile2d, potential, cert6):
    gram = gram_matrix(cert6.grid, potential)
    _, norm = pde_residual(cert6.grid, cert6.u, gram, profile2d.exponent)
    assert cert6.residual_norm == norm


def test_polish_certificate_catches_basin_escape(profile2d, potential, cert6):
    """From half amplitude Newton hops to the sign-flipped ring.

    The scalar caricature shows why: for x - x^3 a start at 0.5 steps
    exactly to -1. The positivity certificate refuses that branch
    instead of returning it.
    """
    ctx = build_reduction_context(profile2d, potential, 6, cert6.r_k, h=0.15)
    with pytest.raises(NumericalError, match="not positive"):
        polish_and_certify(profile2d, potential, 6, cert6.r_k,
                           phi=-0.5 * ctx.w_ansatz, tol=1e-8, h=0.15)


def test_polish_free_single_bump(profile2d, free_potential):
    """With a = 0 the interpolated bump is already the discrete solution
    up to the O(h^2) symmetry-breaking floor of the polar grid."""
    cert = polish_and_certify(profile2d, free_potential, 1, 10.0, tol=1e-3, h=0.2)
    assert cert.steps <= 2
    assert cert.residual_norm <= 1e-3
    assert cert.min_value > 0.0


def test_certificate_json(cert6):
    import json

    data = json.loads(cert6.to_json())
    assert data["k"] == 6
    assert data["steps"] == cert6.steps
    assert data["residual_norm"] == cert6.residual_norm
    assert data["multiplier"] == cert6.multiplier
