import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibump import (
    PotentialSpec,
    ValidationError,
    admissible_radii,
    eval_ansatz,
    eval_z1,
    place_bumps,
)


def test_potential_far_field():
    pot = PotentialSpec(a=1.0, m=2.0)
    rho = np.array([50.0, 100.0, 200.0])
    np.testing.assert_allclose(pot(rho) - 1.0, rho**-2.0, rtol=1e-3)
    assert pot(0.0) == 2.0


def test_potential_validation():
    with pytest.raises(ValidationError):
        PotentialSpec(a=-0.5, m=2.0)
    with pytest.raises(ValidationError):
        PotentialSpec(a=1.0, m=1.0)
    for a, m in ((np.nan, 2.0), (np.inf, 2.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValidationError, match="finite"):
            PotentialSpec(a=a, m=m)


def test_window_formula():
    w = admissible_radii(8, 2.0, beta=0.1)
    scale = 8.0 * np.log(8.0)
    assert w.lower == pytest.approx((1.0 / np.pi - 0.1) * scale)
    assert w.upper == pytest.approx((1.0 / np.pi + 0.1) * scale)
    assert w.lower < w.midpoint < w.upper


def test_window_validation():
    with pytest.raises(ValidationError):
        admissible_radii(1, 2.0)
    with pytest.raises(ValidationError):
        admissible_radii(8, 2.0, beta=0.5)


@given(k=st.integers(min_value=2, max_value=60),
       beta=st.floats(min_value=0.0, max_value=0.31))
@settings(max_examples=60, deadline=None)
def test_window_ordering(k, beta):
    w = admissible_radii(k, 2.0, beta=beta)
    assert 0.0 < w.lower <= w.upper
    assert w.lower <= w.midpoint <= w.upper
    assert w.width == pytest.approx(2.0 * beta * k * np.log(k))


@given(k=st.integers(min_value=1, max_value=40),
       r=st.floats(min_value=0.1, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_bump_placement(k, r):
    config = place_bumps(k, r)
    norms = np.linalg.norm(config.centers, axis=1)
    np.testing.assert_allclose(norms, r, rtol=1e-12)
    if k >= 2:
        gap = np.linalg.norm(config.centers[1] - config.centers[0])
        assert gap == pytest.approx(2.0 * r * np.sin(np.pi / k), rel=1e-12)


def test_bump_placement_validation():
    with pytest.raises(ValidationError):
        place_bumps(0, 5.0)
    with pytest.raises(ValidationError):
        place_bumps(4, -1.0)


def test_ansatz_symmetry(profile2d):
    """W_r is invariant under rotation by the k-fold angle."""
    config = place_bumps(6, 8.0)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-12.0, 12.0, size=(40, 2))
    rot = 2.0 * np.pi / 6.0
    c, s = np.cos(rot), np.sin(rot)
    rotated = pts @ np.array([[c, -s], [s, c]]).T
    np.testing.assert_allclose(
        eval_ansatz(config, profile2d, pts),
        eval_ansatz(config, profile2d, rotated),
        rtol=1e-10, atol=1e-12,
    )


def test_ansatz_peak_value(profile2d):
    config = place_bumps(6, 10.0)
    at_center = eval_ansatz(config, profile2d, config.centers[0])
    # neighbours contribute only their exponential tails
    assert abs(at_center - profile2d.u0) <= 2e-4
    assert at_center > profile2d.u0


def test_ring_derivative_direction(profile2d):
    """eval_z1 matches a central difference of the first bump in r."""
    config = place_bumps(6, 9.0)
    rng = np.random.default_rng(3)
    pts = config.centers[0] + rng.uniform(-2.0, 2.0, size=(30, 2))
    x1_hat = config.centers[0] / config.r
    delta = 1e-5
    moved_p = np.linalg.norm(pts - (config.centers[0] + delta * x1_hat), axis=1)
    moved_m = np.linalg.norm(pts - (config.centers[0] - delta * x1_hat), axis=1)
    fd = (profile2d(moved_p) - profile2d(moved_m)) / (2.0 * delta)
    np.testing.assert_allclose(eval_z1(config, profile2d, pts), fd,
                               rtol=1e-5, atol=1e-8)


def test_ring_derivative_center_is_zero(profile2d):
    config = place_bumps(6, 9.0)
    assert eval_z1(config, profile2d, config.centers[0]) == 0.0
