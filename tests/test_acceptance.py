"""End-to-end checks of the headline numerical claims at desk scale.

Each numbered test is one claim and prints one verdict under pytest -v.
Two claims of the paper are asymptotic in k, and their checks test
them where they are stated:

- test_04 holds the three-term energy expansion to 5 percent at the
  window midpoints of k = 8 and 10 and asks that the mismatch not grow
  along k = 6, 8, 10.  At k = 6 the bumps overlap (3.42 apart) and the
  expansion claims only that its remainder is smaller than the
  interaction term k Psi(d_nn) it corrects, and shrinks relative to it
  along the ladder (measured 0.36 / 0.17 / 0.11).
- test_07 checks the maximizer on the turnover of F past the window
  edge for the ladder k (where the windowed argmax only clamps): the
  turnover is a genuine maximum, its gap to 1/pi shrinks with k, and it
  agrees with the maximizer of the expansion to one coarse scan step.
  The interior maximum inside the 1/pi +- 0.1 band is checked on the
  expansion at k = 10^7, where the paper's large-k statement applies.
"""

import math
import time

import numpy as np

from multibump import (
    admissible_radii,
    build_reduction_context,
    coercivity_probe,
    extend_past_edge,
    fit_interaction_law,
    interaction_integral,
    maximize_reduced_energy,
    polish_and_certify,
    radial_integral,
    reduced_energy,
    riesz_lk,
    solve_correction,
    solve_ground_state,
)
from multibump.interactions import ring_energy_numeric, single_bump_energy_report

LADDER = (6, 8, 10)


def window_midpoint(k, m=2.0):
    return admissible_radii(k, m, beta=0.1).midpoint


def expansion_r_part(k, constants, law, m=2.0):
    """r -> k (B1/r^m - Psi_law(2 r sin(pi/k))), the expansion less k A.

    The constant k A does not move the argmax, but at k = 10^7 it is so
    much larger than the variation of F across the window that float64
    cancellation would.
    """
    return lambda r: k * (
        constants.B1 / r**m - float(law.predict(2.0 * r * math.sin(math.pi / k)))
    )


def test_01_ground_state_matches_the_closed_form():
    t0 = time.monotonic()
    profile = solve_ground_state(1, 3.0)
    elapsed = time.monotonic() - t0
    exact = np.sqrt(2.0) / np.cosh(profile.s)
    assert np.max(np.abs(profile.values - exact)) <= 1e-6
    assert abs(radial_integral(profile, 2.0) - 4.0) <= 1e-5 * 4.0
    assert abs(radial_integral(profile, 4.0) - 16.0 / 3.0) <= 1e-5 * (16.0 / 3.0)
    assert elapsed < 1.0, f"line solve took {elapsed:.2f}s"


def test_02_pair_interaction_decays_like_exp_over_sqrt(profile2d):
    t0 = time.monotonic()
    samples = [(d, interaction_integral(profile2d, d)) for d in (8.0, 10.0, 12.0, 14.0, 16.0)]
    law = fit_interaction_law(samples)
    elapsed = time.monotonic() - t0
    assert abs(law.lam - 1.0) <= 0.01
    assert abs(law.nu - 0.5) <= 0.05
    assert elapsed < 60.0, f"fit took {elapsed:.1f}s"


def test_03_single_bump_tail_has_an_extra_power(profile2d, potential):
    rep = single_bump_energy_report(profile2d, potential, (20.0, 30.0, 40.0))
    scaled = np.abs(rep.scaled_residuals)
    # the r^m-scaled deviation from A + B1/r^m must keep falling
    assert scaled[0] >= 1.8 * scaled[2]


def test_04_ring_energy_matches_the_expansion_at_window_midpoints(
    profile2d, potential, constants2d, law2d
):
    mm, ratio = [], []
    for k in LADDER:
        r = window_midpoint(k)
        num = ring_energy_numeric(profile2d, potential, k, r, h=0.1)
        d_nn = 2.0 * r * math.sin(math.pi / k)
        pair = k * float(law2d.predict(d_nn))
        asym = k * (constants2d.A + constants2d.B1 / r**2) - pair
        mm.append(abs(num - asym) / abs(num))
        ratio.append(abs(num - asym) / pair)
    assert mm[2] <= mm[1] <= mm[0], f"mismatch not non-increasing: {mm}"
    assert mm[1] <= 0.05 and mm[2] <= 0.05, f"mismatch at k=8,10: {mm[1:]}"
    # at k = 6 the remainder is overlap content the expansion leaves to
    # h.o.t.: it must stay below the interaction term it corrects and
    # shrink relative to it as the bumps separate
    assert ratio[0] < 1.0, (
        f"remainder {ratio[0]:.3f} x k Psi(d_nn) at k = 6 (mismatch {mm[0]:.2%})"
    )
    assert ratio[2] < ratio[1] < ratio[0], f"remainder / k Psi(d_nn): {ratio}"


def test_05_linearization_stays_coercive_across_the_ladder(
    profile2d, potential, study_table
):
    # probe the window midpoint and the branch radius for each k
    for k in LADDER:
        w = admissible_radii(k, potential.m, beta=0.1)
        for r in (w.midpoint, w.upper):
            ctx = build_reduction_context(profile2d, potential, k, r, h=0.1)
            rho = coercivity_probe(ctx)
            assert rho > 0.0, f"rho_hat = {rho} at k={k}, r={r:.3f}"
    table, _ = study_table
    ladder = [row.rho_hat for row in table.rows if row.k in LADDER]
    assert min(ladder) >= 0.5 * max(ladder), f"ladder rho_hat: {ladder}"


def test_06_correction_contracts_and_decays_in_k(profile2d, potential, study_table):
    table, _ = study_table
    for k in LADDER:
        row = next(r for r in table.rows if r.k == k)
        ctx = build_reduction_context(profile2d, potential, k, row.r_k, h=0.1)
        res = solve_correction(ctx)
        assert res.ratios, f"no outer iterations recorded at k={k}"
        assert max(res.ratios) < 1.0, f"ratios at k={k}: {res.ratios}"
    ks = np.array([row.k for row in table.rows], dtype=float)
    phis = np.array([row.phi_norm for row in table.rows], dtype=float)
    slope = np.polyfit(np.log(ks), np.log(phis), 1)[0]
    assert -slope >= 0.5, f"phi norm decay exponent {-slope:.3f}"


def test_07_maximizer_scales_like_k_log_k_over_pi(
    study_table, extended_curves, potential, constants2d, law2d
):
    table, _ = study_table
    curves, _ = extended_curves
    target = 1.0 / math.pi
    scan_step = 2.0 * 0.1 / (11 - 1)  # one coarse step in r/(k ln k)
    gaps, offsets = [], []
    for row in table.rows:
        k = row.k
        curve = curves[k]
        # the windowed argmax clamps; the turnover past the edge is a
        # genuine maximum of F above the clamped study value
        assert curve.extended, f"no turnover past the edge at k={k}"
        beyond = curve.values[curve.radii > curve.r_max]
        assert beyond.size and beyond.min() < curve.f_max, (
            f"F does not fall after r = {curve.r_max:.3f} at k={k}"
        )
        assert not row.interior
        assert curve.r_max > row.r_k
        assert curve.f_max >= k * row.f_over_k
        formula = extend_past_edge(maximize_reduced_energy(
            None, potential, k, n_samples=11,
            evaluator=expansion_r_part(k, constants2d, law2d),
        ))
        gaps.append(abs(curve.normalized - target))
        offsets.append(abs(curve.normalized - formula.normalized))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), f"turnover gaps to 1/pi: {gaps}"
    assert max(offsets) <= scan_step, f"PDE vs expansion maximizer: {offsets}"
    # the band and interiority are large-k statements: the expansion's
    # maximizer crosses the band edge only near k = 10^5
    k = 10**7
    far = maximize_reduced_energy(
        None, potential, k, n_samples=11, evaluator=expansion_r_part(k, constants2d, law2d)
    )
    assert far.interior, f"expansion argmax not interior at k={k}: {far.normalized:.4f}"
    assert abs(far.normalized - target) <= 0.1 + 1e-9, (
        f"r_k/(k ln k) = {far.normalized:.6f} at k={k}"
    )


def test_08_polish_certifies_a_positive_nonradial_solution(cert_k6):
    cert, elapsed = cert_k6
    assert cert.k == 6
    assert cert.steps <= 10
    assert cert.residual_norm <= 1e-6
    assert cert.min_value > 0.0
    assert cert.nonradiality >= 0.1
    assert elapsed <= 600.0, f"certification took {elapsed:.0f}s"


def test_09_free_single_bump_short_circuits(profile2d, free_potential, constants2d):
    ctx = build_reduction_context(profile2d, free_potential, 1, 10.0, h=0.2)
    assert riesz_lk(ctx).norm == 0.0
    res = solve_correction(ctx, tol=1e-8)
    assert res.norm == 0.0
    assert res.iterations == 1
    values = [
        reduced_energy(profile2d, free_potential, 1, r, h=0.2).value
        for r in (8.0, 10.0, 12.0)
    ]
    for v in values:
        assert abs(v - constants2d.A) <= 5e-2
    assert max(values) - min(values) <= 1e-2
    cert = polish_and_certify(profile2d, free_potential, 1, 10.0, tol=1e-3, h=0.2)
    assert cert.steps <= 2
    assert cert.residual_norm <= 1e-3
    assert cert.min_value > 0.0
