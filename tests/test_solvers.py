import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from multibump.solvers import lanczos_smallest, minres


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.5, 10.0, size=n)
    return q @ np.diag(eigs) @ q.T, eigs


def test_minres_solves_spd_system():
    a, _ = random_spd(80, 0)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(80)
    sol = minres(lambda v: a @ v, b, None, rtol=1e-12)
    assert sol.converged
    np.testing.assert_allclose(sol.x, np.linalg.solve(a, b), rtol=1e-8)
    assert np.linalg.norm(b - a @ sol.x) <= 1e-10 * np.linalg.norm(b)


def test_minres_indefinite_system():
    # MINRES only needs symmetry, not definiteness
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    eigs = np.concatenate([rng.uniform(-5.0, -0.5, 10), rng.uniform(0.5, 5.0, 50)])
    a = q @ np.diag(eigs) @ q.T
    b = rng.standard_normal(60)
    sol = minres(lambda v: a @ v, b, None, rtol=1e-11, maxiter=300)
    assert sol.converged
    np.testing.assert_allclose(sol.x, np.linalg.solve(a, b), rtol=1e-7)


def test_minres_weighted_inner_product():
    """A diagonal operator is self-adjoint in any diagonal metric."""
    rng = np.random.default_rng(3)
    d = rng.uniform(1.0, 4.0, size=50)
    w = rng.uniform(0.5, 2.0, size=50)
    b = rng.standard_normal(50)
    sol = minres(lambda v: d * v, b, sp.diags(w), rtol=1e-12)
    assert sol.converged
    np.testing.assert_allclose(sol.x, b / d, rtol=1e-9)


def metric_pair(n, seed):
    """A dense SPD metric M and a symmetric A; M^-1 A is M-self-adjoint."""
    m, _ = random_spd(n, seed)
    rng = np.random.default_rng(seed + 100)
    a = rng.standard_normal((n, n))
    a = a + a.T + 2.0 * n**0.5 * np.eye(n)
    return m, a


def test_minres_in_dense_metric_matches_direct_solve():
    m, a = metric_pair(60, 11)
    b = np.random.default_rng(12).standard_normal(60)
    sol = minres(lambda v: np.linalg.solve(m, a @ v), np.linalg.solve(m, b), m,
                 rtol=1e-13, maxiter=300)
    assert sol.converged
    exact = np.linalg.solve(a, b)
    np.testing.assert_allclose(sol.x, exact, atol=1e-8 * np.abs(exact).max())


def test_lanczos_in_dense_metric_finds_generalized_eigenvalue():
    m, a = metric_pair(60, 13)
    smallest = scipy.linalg.eigh(a, m, eigvals_only=True)[0]
    val, vec = lanczos_smallest(lambda v: np.linalg.solve(m, a @ v),
                                np.zeros(60), m, n_steps=60)
    assert val == pytest.approx(smallest, abs=1e-8)
    assert vec @ (m @ vec) == pytest.approx(1.0, abs=1e-12)


class CountingMetric:
    """A metric that counts its products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, v):
        self.products += 1
        return self.matrix @ v


def test_minres_makes_one_metric_product_per_iteration():
    m, a = metric_pair(60, 14)
    metric = CountingMetric(m)
    b = np.random.default_rng(15).standard_normal(60)
    sol = minres(lambda v: np.linalg.solve(m, a @ v), b, metric,
                 rtol=1e-10, maxiter=300)
    assert sol.converged and sol.iterations > 5
    assert metric.products == sol.iterations + 1


def test_lanczos_makes_three_metric_products_per_step():
    m, a = metric_pair(60, 16)
    metric = CountingMetric(m)
    n_steps = 30
    steps = []

    def apply_a(v):
        steps.append(1)
        return np.linalg.solve(m, a @ v)

    lanczos_smallest(apply_a, np.zeros(60), metric, n_steps=n_steps)
    assert len(steps) == n_steps
    assert metric.products <= 3 * n_steps + 2


def test_lanczos_stops_at_a_converged_ritz_value():
    """A well separated smallest eigenvalue ends the run before the cap."""
    m, _ = random_spd(80, 19)
    chol = np.linalg.cholesky(m)
    q, _ = np.linalg.qr(np.random.default_rng(20).standard_normal((80, 80)))
    eigs = np.concatenate([[0.1], np.random.default_rng(21).uniform(1.0, 2.0, 79)])
    a = chol @ q @ np.diag(eigs) @ q.T @ chol.T  # pencil (a, m) has eigenvalues eigs
    steps = []

    def apply_a(v):
        steps.append(1)
        return np.linalg.solve(m, a @ v)

    n_steps = 60
    val, _ = lanczos_smallest(apply_a, np.zeros(80), m, n_steps=n_steps)
    assert len(steps) < n_steps
    smallest = scipy.linalg.eigh(a, m, eigvals_only=True)[0]
    assert val == pytest.approx(smallest, abs=1e-10)


def test_minres_respects_projection():
    a, _ = random_spd(40, 4)
    rng = np.random.default_rng(5)
    n_vec = rng.standard_normal(40)
    n_vec /= np.linalg.norm(n_vec)
    project = lambda v: v - np.dot(n_vec, v) * n_vec
    apply_a = lambda v: project(a @ project(v))
    b = project(rng.standard_normal(40))
    sol = minres(apply_a, b, None, rtol=1e-10, project=project)
    assert sol.converged
    assert abs(np.dot(n_vec, sol.x)) <= 1e-10
    resid = b - apply_a(sol.x)
    assert np.linalg.norm(resid) <= 1e-8


def test_minres_projects_once_per_iteration():
    """The operator maps the subspace into itself; only the new Lanczos
    vector is projected, once per step, plus b once."""
    a, _ = random_spd(40, 17)
    rng = np.random.default_rng(18)
    n_vec = rng.standard_normal(40)
    n_vec /= np.linalg.norm(n_vec)
    calls = []

    def project(v):
        calls.append(1)
        return v - np.dot(n_vec, v) * n_vec

    def apply_a(v):
        av = a @ v
        return av - np.dot(n_vec, av) * n_vec

    b = rng.standard_normal(40)
    sol = minres(apply_a, b, None, rtol=1e-10, project=project)
    assert sol.converged and sol.iterations > 5
    assert len(calls) == sol.iterations + 1


def test_minres_iteration_cap():
    a, _ = random_spd(80, 6)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(80)
    sol = minres(lambda v: a @ v, b, None, rtol=1e-14, maxiter=3)
    assert not sol.converged
    assert sol.iterations == 3


def test_lanczos_finds_smallest_eigenvalue():
    a, eigs = random_spd(120, 8)
    val, vec = lanczos_smallest(lambda v: a @ v, np.zeros(120), None, n_steps=80)
    assert val == pytest.approx(eigs.min(), abs=1e-8)
    # Ritz vector satisfies the eigen equation
    assert np.linalg.norm(a @ vec - val * vec) <= 1e-5


def test_lanczos_projected_skips_deflated_mode():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    eigs = np.sort(rng.uniform(1.0, 9.0, size=60))
    a = q @ np.diag(eigs) @ q.T
    ground = q[:, 0]
    project = lambda v: v - np.dot(ground, v) * ground
    val, _ = lanczos_smallest(lambda v: project(a @ project(v)),
                              np.zeros(60), None, n_steps=60, project=project)
    assert val == pytest.approx(eigs[1], abs=1e-6)


def test_lanczos_seed_is_reproducible():
    a, _ = random_spd(50, 10)
    v1, _ = lanczos_smallest(lambda v: a @ v, np.zeros(50), None, n_steps=20, seed=3)
    v2, _ = lanczos_smallest(lambda v: a @ v, np.zeros(50), None, n_steps=20, seed=3)
    assert v1 == v2
