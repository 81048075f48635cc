"""Constrained correction solve and its supporting linear algebra.

Directional identities (self-adjointness, projections) are probed with
smooth localized fields; white-noise directions are useless here since
the stiffness form amplifies their high-frequency content until the
identity being tested drowns in rounding error.
"""

import numpy as np
import pytest
import scipy.linalg

from multibump import (
    ContractionError,
    PotentialSpec,
    ValidationError,
    admissible_radii,
    build_reduction_context,
    coercivity_probe,
    riesz_lk,
    solve_correction,
)
from multibump import reduction
from multibump.reduction import nonlinear_remainder
from multibump.solvers import minres


@pytest.fixture(scope="module")
def ctx8(profile2d, potential):
    window = admissible_radii(8, potential.m, beta=0.1)
    return build_reduction_context(profile2d, potential, 8, window.midpoint, h=0.2)


def smooth_directions(ctx, n, seed):
    """Random superpositions of Gaussian blobs inside the sector."""
    rng = np.random.default_rng(seed)
    pts = ctx.grid.mesh()
    out = []
    for _ in range(n):
        field = np.zeros(ctx.grid.shape)
        for _ in range(3):
            rho0 = rng.uniform(0.3 * ctx.r, ctx.r + 3.0)
            th0 = rng.uniform(0.0, np.pi / ctx.k)
            x0, y0 = rho0 * np.cos(th0), rho0 * np.sin(th0)
            width = rng.uniform(0.8, 2.0)
            amp = rng.uniform(-1.0, 1.0)
            field += amp * np.exp(
                -((pts[..., 0] - x0) ** 2 + (pts[..., 1] - y0) ** 2) / width**2
            )
        out.append(field.ravel())
    return out


def test_reuse_shares_the_gram_solver(ctx8, profile2d, potential):
    other = build_reduction_context(
        profile2d, potential, 8, ctx8.r + 0.05, h=0.2, grid=ctx8.grid, reuse=ctx8
    )
    assert other.gram_solver is ctx8.gram_solver
    assert other.gram is ctx8.gram
    assert other.weights is ctx8.weights
    assert other.v_values is ctx8.v_values


def test_norm_is_induced_by_inner(ctx8):
    v = smooth_directions(ctx8, 1, 0)[0]
    assert ctx8.norm(v) == pytest.approx(np.sqrt(ctx8.inner(v, v)), rel=1e-12)


def test_orthogonal_projection_onto_E(ctx8):
    in_e = [ctx8.project_orth(w) for w in smooth_directions(ctx8, 3, 5)]
    for v in smooth_directions(ctx8, 4, 1):
        pv = ctx8.project_orth(v)
        scale = max(abs(ctx8.constraint_value(v)), 1.0)
        assert abs(ctx8.constraint_value(pv)) <= 1e-10 * scale
        # projecting twice changes nothing
        np.testing.assert_allclose(ctx8.project_orth(pv), pv,
                                   rtol=1e-10, atol=1e-12)
        # what is removed is H^1_V-orthogonal to E
        for w in in_e:
            bound = 1e-10 * ctx8.norm(v - pv) * ctx8.norm(w)
            assert abs(ctx8.inner(v - pv, w)) <= bound


def test_operator_self_adjoint_on_smooth_directions(ctx8):
    dirs = [ctx8.project_orth(v) for v in smooth_directions(ctx8, 3, 2)]
    for i, u in enumerate(dirs):
        for v in dirs[i + 1:]:
            left = ctx8.inner(ctx8.apply_l_operator(u), v)
            right = ctx8.inner(u, ctx8.apply_l_operator(v))
            scale = ctx8.norm(u) * ctx8.norm(v)
            assert abs(left - right) <= 1e-8 * scale


def test_riesz_potential_part_linear_in_amplitude(profile2d, potential):
    window = admissible_radii(8, potential.m, beta=0.1)
    r = window.midpoint
    rep1 = riesz_lk(build_reduction_context(profile2d, potential, 8, r, h=0.2))
    rep2 = riesz_lk(
        build_reduction_context(profile2d, PotentialSpec(a=2.0, m=2.0), 8, r, h=0.2)
    )
    assert rep2.potential_norm == pytest.approx(2.0 * rep1.potential_norm, rel=1e-10)
    assert rep2.interaction_norm == pytest.approx(rep1.interaction_norm, rel=1e-10)


def test_remainder_vanishes_at_zero(ctx8):
    zero = np.zeros(ctx8.grid.n_cells)
    value, grad = nonlinear_remainder(ctx8, zero)
    assert value == 0.0
    assert ctx8.norm(grad) == 0.0


def test_correction_contracts_at_window_midpoint(ctx8):
    corr = solve_correction(ctx8, tol=1e-8)
    assert all(r < 0.5 for r in corr.ratios)
    assert abs(corr.constraint_value) <= 1e-10
    assert corr.residual <= 1e-8
    assert corr.norm > 0.0


def test_late_correction_steps_solve_for_the_update(ctx8, monkeypatch):
    """Each outer step solves for the update from the measured gap, to
    the accuracy a solve from zero reaches, so the last steps take
    few Krylov iterations."""
    iterations = []

    def counted(*args, **kwargs):
        sol = minres(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(reduction, "minres", counted)
    corr = solve_correction(ctx8, tol=1e-8)
    assert len(iterations) == corr.iterations >= 3
    assert iterations[-1] <= iterations[0] / 2


def test_a_posteriori_norm_bound(ctx8):
    """Coercivity turns the solved equation into a bound on phi."""
    corr = solve_correction(ctx8, tol=1e-8)
    rep = riesz_lk(ctx8)
    rho = coercivity_probe(ctx8, seed=0)
    assert rho > 0.0
    _, r_grad = nonlinear_remainder(ctx8, corr.phi)
    bound = 2.0 * (rep.norm + ctx8.norm(r_grad)) / rho
    assert corr.norm <= bound


def test_coercivity_probe_matches_the_dense_pencil(profile2d, potential):
    """rho is min |mu| over the pencil (G - M, G) restricted to E.

    M is the diagonal of v -> p int W^{p-1} v; at h = 0.5 the context
    has a few hundred cells, so the pencil is solved densely on a basis
    of E = ker c.
    """
    window = admissible_radii(6, potential.m, beta=0.1)
    ctx = build_reduction_context(profile2d, potential, 6, window.midpoint, h=0.5)
    assert ctx.grid.n_cells <= 600
    gram = ctx.gram.toarray()
    basis = scipy.linalg.null_space(ctx._q[None, :])
    mu = scipy.linalg.eigh(basis.T @ (gram - np.diag(ctx._mass_diag)) @ basis,
                           basis.T @ gram @ basis, eigvals_only=True)
    assert coercivity_probe(ctx, seed=0) == pytest.approx(np.abs(mu).min(), rel=1e-8)


def test_free_potential_needs_no_correction(profile2d, free_potential):
    """With a = 0 and one bump the ansatz is already the solution."""
    ctx = build_reduction_context(profile2d, free_potential, 1, 10.0, h=0.2)
    rep = riesz_lk(ctx)
    assert rep.norm == 0.0
    assert rep.potential_norm == 0.0
    corr = solve_correction(ctx, tol=1e-8)
    assert corr.norm == 0.0
    assert corr.iterations == 1
    assert corr.residual == 0.0


def test_window_validation(profile2d, potential):
    # r = 16 sits beyond even the widest admissible window for k = 8
    ctx = build_reduction_context(profile2d, potential, 8, 16.0, h=0.2)
    with pytest.raises(ValidationError):
        solve_correction(ctx, tol=1e-8)
    # the check can be bypassed for off-window experiments
    corr = solve_correction(ctx, tol=1e-6, validate_window=False)
    assert corr.norm > 0.0


def test_overlapping_bumps_stop_contracting(profile2d, potential):
    window = admissible_radii(6, potential.m, beta=0.1)
    ctx = build_reduction_context(profile2d, potential, 6, window.lower, h=0.2)
    with pytest.raises(ContractionError) as err:
        solve_correction(ctx, tol=1e-8)
    assert err.value.ratios is not None
    assert err.value.ratios[-1] >= 1.0
