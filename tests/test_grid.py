"""Sector grid, quadrature, and discrete operator checks.

The k = 1 free-potential identities anchor the discretization: for the
ground state U the Nehari identity int |grad U|^2 + U^2 = int U^{p+1}
holds exactly, and the action value is the expansion constant A.
"""

import pickle

import numpy as np
import pytest
from scipy.fft import dct
from scipy.sparse.linalg import splu

from multibump import (
    NumericalError,
    PotentialSpec,
    ValidationError,
    admissible_radii,
    build_aligned_sector_grid,
    build_sector_grid,
    energy_functional,
    gram_matrix,
    gram_solver,
    pde_residual,
    place_bumps,
    radial_integral,
    stiffness_matrix,
)


def bump_field(grid, profile, k, r):
    pts = grid.mesh()
    vals = np.zeros(grid.shape)
    for c in place_bumps(k, r).centers:
        vals += profile(np.hypot(pts[..., 0] - c[0], pts[..., 1] - c[1]))
    return vals.reshape(-1)


def test_grid_quadrature_weights():
    g = build_sector_grid(4, 10.0, 0.1)
    # cell areas integrate the wedge exactly
    assert g.sector_integral(np.ones(g.shape)) == pytest.approx(
        0.5 * (np.pi / 4.0) * 10.0**2, rel=1e-12
    )
    # 2k reflected copies of the wedge cover the disc
    assert 2.0 * g.k * g.sector_integral(np.ones(g.shape)) == pytest.approx(
        np.pi * 10.0**2, rel=1e-12
    )


def test_margin_contract():
    with pytest.raises(ValidationError):
        build_sector_grid(6, 20.0, 0.1, r_max=10.0)
    # exactly 15 of margin is allowed
    g = build_sector_grid(6, 25.0, 0.1, r_max=10.0)
    assert g.r_out == 25.0


def test_aligned_grid_puts_ring_on_cell_center():
    for r in (4.2971, 6.9541, 9.2803):
        g = build_aligned_sector_grid(8, r, 0.1)
        assert np.min(np.abs(g.rho - r)) <= 1e-12
        assert g.r_out >= r + 15.0 - 1e-9


def test_odd_refinement_keeps_alignment():
    r = 6.9541
    g = build_aligned_sector_grid(8, r, 0.15)
    fine = build_sector_grid(8, g.r_out, g.d_rho / 3.0, r_max=r)
    assert np.min(np.abs(fine.rho - r)) <= 1e-10


def test_field_csv_header():
    g = build_sector_grid(4, 25.0, 0.5)
    text = g.to_csv(np.zeros(g.n_cells))
    lines = text.splitlines()
    assert lines[0].startswith("# k=4 ")
    assert lines[1] == "rho,theta,value"
    assert len(lines) == 2 + g.n_cells


def test_stiffness_matrix_matches_face_sum():
    """u.K v is the finite-volume Dirichlet form, written face by face.

    Each interior face contributes (face length / center distance)
    times the jumps of u and v across it; the outer wall adds the
    ghost term with half a cell to the clamped value.
    """
    g = build_sector_grid(3, 6.0, 0.5)
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal((2,) + g.shape)
    total = 0.0
    for i in range(g.n_rho):
        for j in range(g.n_theta):
            if i + 1 < g.n_rho:
                coeff = (i + 1) * g.d_rho * g.d_theta / g.d_rho
                total += coeff * (u[i + 1, j] - u[i, j]) * (v[i + 1, j] - v[i, j])
            if j + 1 < g.n_theta:
                coeff = g.d_rho / (g.rho[i] * g.d_theta)
                total += coeff * (u[i, j + 1] - u[i, j]) * (v[i, j + 1] - v[i, j])
        if i == g.n_rho - 1:
            coeff = g.r_out * g.d_theta / (0.5 * g.d_rho)
            total += coeff * float(u[i] @ v[i])
    assert u.ravel() @ (stiffness_matrix(g) @ v.ravel()) == pytest.approx(
        total, rel=1e-12
    )


def test_stiffness_matrix_symmetric_nonnegative():
    g = build_sector_grid(6, 12.0, 0.3)
    mat = stiffness_matrix(g)
    asym = abs(mat - mat.T).max()
    assert asym <= 1e-12
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.standard_normal(mat.shape[0])
        assert u @ (mat @ u) >= -1e-12


def _upper_edge(k):
    return admissible_radii(k, 2.0, beta=0.1).upper


@pytest.mark.parametrize("make_grid, shape", [
    (lambda: build_aligned_sector_grid(1, 10.0, 0.15), (167, 421)),
    (lambda: build_aligned_sector_grid(6, _upper_edge(6), 0.15), (128, 50)),
    (lambda: build_aligned_sector_grid(12, _upper_edge(12), 0.15), (184, 40)),
    (lambda: build_aligned_sector_grid(12, _upper_edge(12), 0.1), (275, 59)),
    (lambda: build_sector_grid(3, 2.0, 0.5), (4, 8)),
])
def test_gram_solver_matches_sparse_lu(make_grid, shape):
    """The separable solve agrees with a sparse LU of the assembled G.

    The grids include prime n_theta (421 and 59), where the DCT takes
    its slowest path, and the smallest radial count the builder allows.
    """
    g = make_grid()
    assert g.shape == shape
    pot = PotentialSpec(a=1.0, m=2.0)
    gram = gram_matrix(g, pot)
    b = np.random.default_rng(3).standard_normal(g.n_cells)
    x = gram_solver(g, pot).solve(b)
    x_lu = splu(gram.tocsc()).solve(b)
    assert np.linalg.norm(x - x_lu) <= 1e-10 * np.linalg.norm(x_lu)
    assert np.linalg.norm(gram @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("h", [0.1, 0.15])
@pytest.mark.parametrize("k", [1, 6, 12, 24])
def test_gram_solve_residual_is_at_rounding_level(k, h):
    """||G x - b|| stays below eps ||G||_1 ||x||, the residual that
    rounding G's entries alone allows, for several right-hand sides.

    A bound relative to ||b|| alone holds for some b and not others at
    the same accuracy; this one bounds the solver, not the sample.
    """
    r = 10.0 if k == 1 else _upper_edge(k)
    g = build_aligned_sector_grid(k, r, h)
    pot = PotentialSpec(a=1.0, m=2.0)
    gram = gram_matrix(g, pot)
    solver = gram_solver(g, pot)
    scale = np.finfo(float).eps * abs(gram).sum(axis=0).max()
    for seed in range(3, 8):
        b = np.random.default_rng(seed).standard_normal(g.n_cells)
        x = solver.solve(b)
        assert np.linalg.norm(gram @ x - b) <= scale * np.linalg.norm(x)


@pytest.mark.parametrize("n_theta", [8, 35, 41, 47, 59, 421])
def test_gram_solver_transform_is_the_orthonormal_dct(n_theta):
    """The solver's DCT-II matrix is orthonormal and is scipy's transform,
    its modes stored from the highest frequency down.

    The sizes include the primes 41, 47, 59 and 421, the angular counts
    where an FFT-based DCT is slowest.
    """
    g = build_sector_grid(1, 6.0, np.pi / (n_theta - 0.5))
    assert g.n_theta == n_theta
    c = gram_solver(g, PotentialSpec(a=1.0, m=2.0))._dct
    assert c.shape == (n_theta, n_theta) and c.flags.c_contiguous
    assert np.abs(c @ c.T - np.eye(n_theta)).max() <= 1e-13
    x = np.random.default_rng(5).standard_normal(n_theta)
    np.testing.assert_allclose((c @ x)[::-1], dct(x, type=2, norm="ortho"),
                               rtol=0, atol=1e-13 * np.linalg.norm(x))


def test_gram_solve_returns_a_fresh_flat_array():
    g = build_aligned_sector_grid(8, 5.3, 0.15)
    solver = gram_solver(g, PotentialSpec(a=1.0, m=2.0))
    b = np.random.default_rng(6).standard_normal(g.n_cells)
    kept = b.copy()
    x = solver.solve(b)
    assert x.shape == (g.n_cells,) and x.flags.c_contiguous
    assert not np.shares_memory(x, b)
    np.testing.assert_array_equal(b, kept)


def test_gram_solve_refuses_a_wrong_size_input():
    g = build_aligned_sector_grid(6, 4.5, 0.15)
    solver = gram_solver(g, PotentialSpec(a=1.0, m=2.0))
    with pytest.raises(ValidationError, match=f"needs {g.n_cells} .* got 10"):
        solver.solve(np.ones(10))


def test_gram_solver_refuses_an_indefinite_gram_matrix():
    g = build_sector_grid(3, 6.0, 0.5)
    with pytest.raises(NumericalError, match="not positive definite"):
        gram_solver(g, lambda rho: -10.0 * np.ones_like(rho))


def test_gram_matrix_symmetry():
    """u.G v is the H^1_V inner product: symmetric and positive."""
    g = build_sector_grid(5, 12.0, 0.3)
    gram = gram_matrix(g, PotentialSpec(a=1.0, m=2.0))
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal((2, g.n_cells))
    assert u @ (gram @ v) == pytest.approx(v @ (gram @ u), rel=1e-12)
    assert u @ (gram @ u) > 0.0


def test_nehari_identity_on_grid(profile2d, free_potential):
    """int |grad U|^2 + U^2 equals int U^4 for the interpolated bump."""
    r = 10.0
    g = build_aligned_sector_grid(1, r, 0.1)
    u = bump_field(g, profile2d, 1, r)
    quad = 2.0 * g.k * float(u @ (gram_matrix(g, free_potential) @ u))
    target = radial_integral(profile2d, 4.0)
    assert abs(quad - target) / target <= 2e-2


def test_free_action_matches_constant(profile2d, free_potential, constants2d):
    r = 10.0
    g = build_aligned_sector_grid(1, r, 0.1)
    u = bump_field(g, profile2d, 1, r)
    val = energy_functional(g, u, gram_matrix(g, free_potential), 3.0)
    assert abs(val - constants2d.A) / constants2d.A <= 2e-2


def test_residual_shrinks_under_refinement(profile2d, free_potential):
    """The interpolated ground state satisfies the scheme to O(h^2)."""
    r = 10.0
    norms = []
    for h in (0.3, 0.15):
        g = build_aligned_sector_grid(1, r, h)
        u = bump_field(g, profile2d, 1, r)
        _, norm = pde_residual(g, u, gram_matrix(g, free_potential), 3.0)
        norms.append(norm)
    assert norms[1] <= norms[0] / 3.0


def test_a_pickled_grid_compares_without_raising():
    """== on grids is identity: a pickled copy is another grid, and no error."""
    g = build_sector_grid(6, 12.0, 0.5)
    copy = pickle.loads(pickle.dumps(g))
    assert np.array_equal(copy.rho, g.rho)
    assert (g == copy) is False
    assert g == g
