"""Krylov iterations in the inner product of a symmetric positive metric.

The correction equation of the reduction scheme is self-adjoint with
respect to a weighted H^1 inner product u . (M v), M the Gram matrix,
so the standard library solvers do not apply directly.  This module
carries a minimal MINRES (Paige and Saunders recurrences in the metric)
and a Lanczos routine for the smallest eigenvalue of a symmetric
positive operator.  Both take M itself and carry M v for the current
Lanczos vector, so an inner product is a dense dot; iterates do not
change when M is scaled by a constant.  Both accept an optional
projection that is re-applied every iteration to keep the Krylov basis
inside a constraint subspace despite round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError

__all__ = ["MinresResult", "minres", "lanczos_smallest"]

RITZ_RTOL = 1e-8  # Lanczos stops at Ritz residual bound <= RITZ_RTOL |theta|


@dataclass
class MinresResult:
    """Outcome of a MINRES solve.

    Attributes
    ----------
    x : ndarray
        Approximate solution.
    residual_norm : float
        Metric norm sqrt(r . (M r)) of r = b - A x, tracked by the
        recurrence.
    iterations : int
    converged : bool
    """

    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def minres(apply_a, b, metric, rtol=1e-10, maxiter=500, project=None):
    """Solve A x = b for an operator self-adjoint in the metric M.

    Parameters
    ----------
    apply_a : callable
        Action of the operator on a flat vector.  With ``project``, it
        must map the projection's range into itself (end with the
        projection); its output is not projected again.
    b : ndarray
        Right-hand side, a flat vector.
    metric : matrix or None
        Symmetric positive definite M (anything with ``@``) such that
        ``apply_a`` is self-adjoint in u . (M v).  None means Euclidean.
        One product with M is made per iteration, plus one for b.
    rtol : float
        Stop when the residual norm falls below rtol * |b|.
    maxiter : int
    project : callable, optional
        Idempotent map applied to b and to every new Lanczos vector
        (one call per iteration, plus one for b); use it to confine the
        iteration to an invariant subspace despite round-off.

    Returns
    -------
    MinresResult
    """
    m_dot = (lambda v: v) if metric is None else (lambda v: metric @ v)
    if project is not None:
        b = project(b)
    x = np.zeros_like(b)
    gv = m_dot(b)
    b_norm = np.sqrt(max(float(b @ gv), 0.0))
    if b_norm == 0.0:
        return MinresResult(x=x, residual_norm=0.0, iterations=0, converged=True)

    v_prev = np.zeros_like(b)
    v = b / b_norm
    gv = gv / b_norm
    beta = 0.0
    # QR of the tridiagonal via Givens rotations.
    c_prev, s_prev = 1.0, 0.0
    c_cur, s_cur = 1.0, 0.0
    w_prev = np.zeros_like(b)
    w_cur = np.zeros_like(b)
    phi = b_norm

    for it in range(1, maxiter + 1):
        av = apply_a(v)
        alpha = float(av @ gv)
        av = av - alpha * v - beta * v_prev
        if project is not None:
            av = project(av)
        g_av = m_dot(av)
        beta_next = np.sqrt(max(float(av @ g_av), 0.0))

        # Apply the two previous rotations to the new column of the
        # tridiagonal, then compute the rotation that zeroes beta_next.
        diag = c_cur * alpha - c_prev * s_cur * beta
        superdiag = s_cur * alpha + c_prev * c_cur * beta
        epsilon = s_prev * beta

        rho = np.hypot(diag, beta_next)
        if rho == 0.0:
            raise NumericalError("minres breakdown: singular tridiagonal factor")
        c_next = diag / rho
        s_next = beta_next / rho

        w_next = (v - superdiag * w_cur - epsilon * w_prev) / rho
        x = x + (c_next * phi) * w_next
        phi = -s_next * phi

        if beta_next > 0.0:
            v_prev, v = v, av / beta_next
            gv = g_av / beta_next
        beta = beta_next
        w_prev, w_cur = w_cur, w_next
        c_prev, s_prev = c_cur, s_cur
        c_cur, s_cur = c_next, s_next

        if abs(phi) <= rtol * b_norm:
            return MinresResult(
                x=x, residual_norm=abs(phi), iterations=it, converged=True
            )
        if beta_next == 0.0:
            break

    return MinresResult(x=x, residual_norm=abs(phi), iterations=it, converged=False)


def lanczos_smallest(apply_a, shape_like, metric, n_steps=60, seed=0, project=None):
    """Smallest eigenvalue of an operator self-adjoint in the metric M.

    The basis is fully reorthogonalized by classical Gram-Schmidt done
    twice (CGS2; Giraud, Langou and Rozloznik, Comput. Math. Appl.
    2005), as stable as modified Gram-Schmidt done twice: three metric
    products per step, plus one each for the start and Ritz vectors.

    Parameters
    ----------
    apply_a : callable
        Operator action on a flat vector.
    shape_like : ndarray
        Any flat array with the shape and dtype of the operator's vectors.
    metric : matrix or None
        Symmetric positive definite M (anything with ``@``) in whose
        inner product ``apply_a`` is self-adjoint; None means Euclidean.
    n_steps : int
        Cap on the Lanczos steps (matrix applications).  The iteration
        stops once the smallest Ritz value theta of the tridiagonal has
        residual bound beta_j |s_j| <= RITZ_RTOL |theta| (Parlett 1980,
        13.2), s_j the last entry of its normalized eigenvector.
    seed : int
        Seed for the randomized start vector.
    project : callable, optional
        Constraint projection applied to the start vector and to every
        new basis vector.

    Returns
    -------
    value : float
        Ritz estimate of the smallest eigenvalue.
    vector : ndarray
        Corresponding Ritz vector (normalized in the metric).
    """
    m_dot = (lambda v: v) if metric is None else (lambda v: metric @ v)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(np.shape(shape_like))
    if project is not None:
        q = project(q)
    gq = m_dot(q)
    nrm = np.sqrt(max(float(q @ gq), 0.0))
    if nrm == 0.0:
        raise NumericalError("lanczos start vector vanished under projection")

    basis = np.empty((n_steps + 1, q.size))
    basis[0] = q / nrm
    gq = gq / nrm
    alphas, betas = [], []
    for j in range(n_steps):
        q = basis[j]
        w = apply_a(q)
        if project is not None:
            w = project(w)
        alpha = float(w @ gq)
        alphas.append(alpha)
        w = w - alpha * q
        if j > 0:
            w = w - betas[-1] * basis[j - 1]
        # Full reorthogonalization against the M-orthonormal basis, CGS2.
        active = basis[: j + 1]
        for _pass in range(2):
            w = w - (active @ m_dot(w)) @ active
        if project is not None:
            w = project(w)
        gw = m_dot(w)
        beta = np.sqrt(max(float(w @ gw), 0.0))
        theta, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        if beta < 1e-14 or beta * abs(s[-1, 0]) <= RITZ_RTOL * abs(theta[0]):
            break
        betas.append(beta)
        basis[j + 1] = w / beta
        gq = gw / beta

    ritz = s[:, 0] @ basis[: len(alphas)]
    nr = np.sqrt(max(float(ritz @ m_dot(ritz)), 0.0))
    if nr > 0.0:
        ritz = ritz / nr
    return float(theta[0]), ritz
