"""Interaction integral, fitted decay law, and energy expansion checks.

Frozen values come from independent high-resolution quadrature runs:
Psi(4) = 0.55190 and Psi(8) = 7.2513e-3 for the planar cubic problem.
"""

import numpy as np
import pytest

from multibump import (
    ValidationError,
    expansion_comparison,
    expansion_constants,
    fit_interaction_law,
    interaction_integral,
)
from multibump.geometry import admissible_radii
from multibump.groundstate import ExpansionConstants
from multibump.interactions import ring_energy_numeric, single_bump_energy_report


def test_interaction_integral_frozen_values(profile2d):
    assert interaction_integral(profile2d, 4.0) == pytest.approx(0.55190, rel=1e-3)
    assert interaction_integral(profile2d, 8.0) == pytest.approx(7.2513e-3, rel=1e-3)


def test_interaction_integral_decays(profile2d):
    vals = [interaction_integral(profile2d, d) for d in (6.0, 8.0, 10.0, 12.0)]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # between d = 8 and d = 12 the drop is dominated by e^{-d}
    assert vals[1] / vals[3] == pytest.approx(np.exp(4.0) * (12.0 / 8.0) ** 0.5,
                                              rel=0.08)


def test_fitted_law_parameters(law2d):
    assert law2d.lam == pytest.approx(1.0, rel=0.01)
    assert law2d.nu == pytest.approx(0.5, rel=0.10)
    assert law2d.residual <= 1e-4
    assert law2d.amplitude == pytest.approx(59.06, rel=5e-3)


def test_law_prediction_matches_samples(profile2d, law2d):
    for d in (9.0, 13.0):
        psi = interaction_integral(profile2d, d)
        assert float(law2d.predict(d)) == pytest.approx(psi, rel=5e-3)


def test_fit_validation():
    good = [(4.0, 1.0), (5.0, 0.5), (6.0, 0.25), (7.0, 0.125)]
    fit_interaction_law(good)
    with pytest.raises(ValidationError):
        fit_interaction_law(good[:3])
    with pytest.raises(ValidationError):
        fit_interaction_law([(4.0, 1.0), (4.0, 0.5), (6.0, 0.25), (7.0, 0.1)])
    with pytest.raises(ValidationError):
        fit_interaction_law([(4.0, 1.0), (5.0, -0.5), (6.0, 0.25), (7.0, 0.1)])


def test_fit_recovers_synthetic_law():
    law = lambda d: 3.0 * d**-0.5 * np.exp(-1.2 * d)
    ds = np.linspace(5.0, 15.0, 8)
    fitted = fit_interaction_law([(d, law(d)) for d in ds])
    assert fitted.amplitude == pytest.approx(3.0, rel=1e-9)
    assert fitted.lam == pytest.approx(1.2, rel=1e-9)
    assert fitted.nu == pytest.approx(0.5, rel=1e-9)
    assert fitted.residual <= 1e-12


def test_single_bump_report(profile2d, potential):
    rep = single_bump_energy_report(profile2d, potential, (20.0, 30.0, 40.0))
    # deviations from A + B1/r^m are next order, so they shrink faster
    # than r^-m: the scaled residual must fall along the ladder
    scaled = np.abs(rep.scaled_residuals)
    assert scaled[2] < scaled[1] < scaled[0]
    assert np.all(np.abs(rep.deviations) <= 1e-2)
    text = rep.to_csv()
    assert text.splitlines()[0] == "r,I_numeric,I_minus_A_minus_B1_term,scaled_residual"
    with pytest.raises(ValidationError):
        single_bump_energy_report(profile2d, potential, (2.0,))


def test_reports_use_the_expansion_constants(profile2d, potential, law2d):
    expected = expansion_constants(profile2d, potential)
    rep = single_bump_energy_report(profile2d, potential, (20.0,))
    table = expansion_comparison(profile2d, potential, (1,), law=law2d)
    assert rep.constants == expected
    assert table.constants == expected


def test_ring_energy_matches_expansion_at_midpoint(profile2d, potential, law2d):
    k = 8
    window = admissible_radii(k, potential.m, beta=0.1)
    r = window.midpoint
    i_num = ring_energy_numeric(profile2d, potential, k, r, h=0.15)
    d = 2.0 * r * np.sin(np.pi / k)
    consts = ExpansionConstants(A=5.850448310278073, B1=5.850448272)
    i_asym = k * (consts.A + consts.B1 / r**2 - float(law2d.predict(d)))
    assert abs(i_num - i_asym) / abs(i_num) <= 0.05


def test_expansion_table(profile2d, potential, law2d):
    table = expansion_comparison(profile2d, potential, (1, 6), law=law2d, h=0.15)
    ks = sorted({row.k for row in table.rows})
    assert ks == [1, 6]
    for row in table.rows:
        assert np.isfinite(row.mismatch) and row.mismatch >= 0.0
        # the expansion is only trustworthy once neighbours separate;
        # at the bottom of the k = 6 window they nearly touch
        d_nn = 2.0 * row.r * np.sin(np.pi / row.k) if row.k >= 2 else np.inf
        if d_nn >= 4.0:
            assert row.mismatch < 0.08
    text = table.to_csv()
    assert text.splitlines()[0] == "k,r,I_numeric,I_asymptotic,mismatch"
    assert len(text.splitlines()) == 1 + len(table.rows)
