"""Constrained correction solve around the k-bump ansatz.

Writing u = W_r + phi with phi in the constrained space

    E = { v symmetric : c(v) = integral of U_{x1}^{p-1} Z_1 v = 0 },

the energy expands as J(phi) = J(0) + l(phi) + <L phi, phi>/2 - R(phi),
and the correction solves the projected equation l_k + L phi = R'(phi)
by a contraction iteration.  Everything here acts on flat arrays of
sector cell values; the weighted H^1 inner product is carried by the
sparse Gram operator G = K + diag(area * V), whose separable solver
(``grid.gram_solver``: an orthonormal DCT-II matrix product in theta,
O(n_rho n_theta^2) in BLAS, and tridiagonals in rho) is built once per
context.

Two linear functionals enter:

* the constraint c, represented on the sector by the symmetrized weight
  (1/k) sum_j U_j^{p-1} Z_j, which reproduces the single full-space
  constraint exactly for symmetric test fields;
* the first variation of the energy at W, assembled from the identity
  I'(W) v = integral of ((V-1) W - (W^p - sum_j U_j^p)) v, which each
  bump's own equation makes exact.  At a = 0 with one bump both pieces
  vanish identically, so the zero correction is reproduced without any
  grid-resolution floor.

E has one projector, orthogonal in the H^1_V inner product: it
subtracts the multiple of G^{-1} c that removes c(v).  Composing the
linearized operator with it keeps the operator self-adjoint on E, which
the Krylov solver and the eigenvalue probe rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# Unused here; bench/layers.py still patches reduction.splu. ROADMAP
# item 7 (counters inside the package) removes the import.
from scipy.sparse.linalg import splu  # noqa: F401

from .errors import ContractionError, ConvergenceError, ValidationError
from .geometry import bump_terms, correction_window, place_bumps
from .grid import build_aligned_sector_grid, gram_solver, stiffness_matrix
from .solvers import lanczos_smallest, minres

__all__ = [
    "ReductionContext",
    "ConstraintSpec",
    "RieszReport",
    "CorrectionResult",
    "build_reduction_context",
    "riesz_lk",
    "coercivity_probe",
    "solve_correction",
]


@dataclass(frozen=True)
class ConstraintSpec:
    """Sector data of the constraint functional c(v) = int U^{p-1} Z_1 v.

    Attributes
    ----------
    z_direction : ndarray
        The field Z = dW/dr, the soft ring-translation direction.
    gamma : float
        c(Z), the pairing of the constraint with the Z direction.
    """

    z_direction: np.ndarray
    gamma: float


class ReductionContext:
    """Precomputed grid, ansatz, and Gram solver for one (k, r).

    Instances are immutable in practice and safe to use from parallel
    workers, each worker holding its own context.

    Parameters
    ----------
    profile : RadialProfile
    potential : PotentialSpec
    k : int
        Number of bumps.
    r : float
        Ring radius.
    h : float
        Target grid spacing; the actual spacing aligns the ring radius
        with a radial cell center.
    margin : float
        Distance kept between the ring and the outer Dirichlet wall.
    grid : SectorGrid, optional
        Reuse a prebuilt grid instead of aligning a new one to r. Lets
        nearby radii be compared on an identical mesh, which is what the
        polish needs when its secant moves the ring across one grid.
    reuse : ReductionContext, optional
        Another context on the same grid and potential; its cell
        weights, potential values, assembled Gram matrix and Gram
        solver are shared instead of rebuilt, which makes a radius scan
        on one grid cheap in time and memory.
    """

    def __init__(
        self,
        profile,
        potential,
        k,
        r,
        h=0.1,
        margin=15.0,
        grid=None,
        reuse=None,
    ):
        if k < 1 or k != int(k):
            raise ValidationError(f"bump count must be a positive integer, got {k}")
        k = int(k)
        self.profile = profile
        self.potential = potential
        self.k = k
        self.r = float(r)
        self.h = float(h)

        if grid is None:
            grid = build_aligned_sector_grid(k, self.r, self.h, margin=margin)
        self.grid = grid
        g = self.grid
        pts = g.mesh().reshape(-1, 2)
        shared = reuse is not None and reuse.grid is g and reuse.potential == potential
        if shared:
            self.weights = reuse.weights
            self.v_values = reuse.v_values
        else:
            self.weights = g.cell_areas().reshape(-1).copy()
            self.v_values = np.repeat(
                np.asarray(potential(g.rho), dtype=float), g.n_theta
            )

        p = profile.exponent
        w_sum = np.zeros(len(pts))
        sum_up = np.zeros(len(pts))
        z_dir = np.zeros(len(pts))
        wc = np.zeros(len(pts))
        for u_j, z_j in bump_terms(place_bumps(k, self.r), profile, pts):
            w_sum += u_j
            sum_up += u_j**p
            z_dir += z_j
            wc += u_j ** (p - 1.0) * z_j
        wc /= k
        self.w_ansatz = w_sum
        self.sum_up = sum_up
        self.exponent = p
        # Dual of v -> p int W^{p-1} v (.), one diagonal entry per cell.
        self._mass_diag = self.weights * (p * w_sum ** (p - 1.0))

        if shared:
            self.gram = reuse.gram
            self.gram_solver = reuse.gram_solver
        else:
            # grid.gram_matrix spelled out: bench/layers.py traces the
            # stiffness_matrix calls made from this module.
            self.gram = stiffness_matrix(g) + sp.diags(self.weights * self.v_values)
            self.gram_solver = gram_solver(g, potential)

        q = self.weights * wc
        gamma = 2.0 * k * float(q @ z_dir)
        if abs(gamma) < 1e-30:
            raise ValidationError(
                "constraint pairing with the Z direction vanished; "
                "degenerate profile or radius"
            )
        self.constraint = ConstraintSpec(z_direction=z_dir, gamma=gamma)
        self._q = q
        self._z_orth = self.gram_solver.solve(q)
        self._cz_orth = 2.0 * k * float(q @ self._z_orth)

    # -- inner product and constraint -------------------------------------

    def inner(self, u, v):
        """Full-space H^1_V inner product of sector cell arrays."""
        return 2.0 * self.k * float(u @ (self.gram @ v))

    def norm(self, v):
        return float(np.sqrt(max(self.inner(v, v), 0.0)))

    def constraint_value(self, v):
        """c(v), the full-space pairing of v with U_{x1}^{p-1} Z_1."""
        return 2.0 * self.k * float(self._q @ v)

    # -- projection ----------------------------------------------------------

    def project_orth(self, v):
        """H^1_V-orthogonal projection onto E (keeps operators symmetric)."""
        c = self.constraint_value(v)
        return v - (c / self._cz_orth) * self._z_orth

    # -- operator pieces -----------------------------------------------------

    def _mass_image(self, v):
        """Riesz image of v -> p int W^{p-1} v (.)."""
        return self.gram_solver.solve(self._mass_diag * v)

    def apply_l_operator(self, v):
        """Image of the linearized-form Riesz operator, projected on E.

        ``v`` must lie in E, as the Krylov iterates and corrections do;
        the operator then maps E into E and is self-adjoint there.
        """
        return self.project_orth(v - self._mass_image(v))


def build_reduction_context(profile, potential, k, r, **kwargs):
    """Build a :class:`ReductionContext`; see the class for parameters."""
    return ReductionContext(profile, potential, k, r, **kwargs)


@dataclass
class RieszReport:
    """Riesz representative of the energy's first variation at W.

    Attributes
    ----------
    field : ndarray
        The representative l_k, projected into E.
    norm : float
        H^1_V dual norm of the functional (norm of the representative).
    potential_norm : float
        Weighted L^2 norm of the density (V - 1) W alone; exactly
        linear in the potential amplitude a.
    interaction_norm : float
        Weighted L^2 norm of the density W^p - sum U_j^p alone;
        independent of a.
    """

    field: np.ndarray
    norm: float
    potential_norm: float
    interaction_norm: float


def riesz_lk(ctx):
    """Compute l_k in E with <l_k, v> = I'(W) v for discrete v in E.

    The two pieces of the first variation are reported separately as
    plain L^2 magnitudes; measuring them through the a-dependent H^1_V
    metric would break the exact proportionality of the potential part
    to a.
    """
    w = ctx.w_ansatz
    dens_pot = (ctx.v_values - 1.0) * w
    dens_int = np.abs(w) ** ctx.exponent * np.sign(w) - ctx.sum_up
    b = ctx.weights * (dens_pot - dens_int)
    l_full = ctx.project_orth(ctx.gram_solver.solve(b))
    l2 = lambda dens: float(
        np.sqrt(2.0 * ctx.k * np.sum(ctx.weights * dens * dens))
    )
    return RieszReport(
        field=l_full,
        norm=ctx.norm(l_full),
        potential_norm=l2(dens_pot),
        interaction_norm=l2(dens_int),
    )


def coercivity_probe(ctx, seed=0):
    """Smallest singular value of L on E by Lanczos on L squared.

    At most 60 Lanczos steps are taken; the run stops earlier at a
    converged Ritz value (``solvers.lanczos_smallest``).

    Parameters
    ----------
    ctx : ReductionContext
    seed : int
        Seed of the randomized start vector.

    Returns
    -------
    float
        The estimate rho; positive when L is invertible on E.
    """
    def squared(v):
        return ctx.apply_l_operator(ctx.apply_l_operator(v))

    template = np.zeros(ctx.grid.n_cells)
    val, _ = lanczos_smallest(
        squared, template, ctx.gram, n_steps=60, seed=seed,
        project=ctx.project_orth,
    )
    return float(np.sqrt(max(val, 0.0)))


def _remainder_gradient(ctx, phi):
    """R'(phi) for the remainder beyond quadratic order,

    R(phi) = 1/(p+1) int (|W+phi|^{p+1} - W^{p+1} - (p+1) W^p phi
    - (p+1)p/2 W^{p-1} phi^2): its Riesz representative, projected into E.
    """
    w = ctx.w_ansatz
    p = ctx.exponent
    tot = w + phi
    dual = ctx.weights * (np.abs(tot) ** p * np.sign(tot) - w**p) - ctx._mass_diag * phi
    return ctx.project_orth(ctx.gram_solver.solve(dual))


@dataclass
class CorrectionResult:
    """Converged correction phi with its run record.

    Attributes
    ----------
    phi : ndarray
        Sector cell values of the correction.
    norm : float
        H^1_V norm of phi.
    iterations : int
        Outer fixed-point iterations performed.
    ratios : list of float
        Successive update-norm ratios (contraction measurements).
    residual : float
        Norm of the projected gradient of the energy at W + phi.
    constraint_value : float
        c(phi), for the preservation check.
    """

    phi: np.ndarray
    norm: float
    iterations: int
    ratios: list
    residual: float
    constraint_value: float


def solve_correction(ctx, tol=1e-8):
    """Solve the constrained correction equation by contraction.

    Starting from phi = 0, each outer step solves the projected linear
    problem L phi_new = -(l_k - R'(phi)) with a constraint-preserving
    MINRES, stopping when both the update norm and the projected
    gradient fall below tol.  The step is solved for the update d =
    phi_new - phi from L d = -gap, where gap = l_k + L phi - R'(phi) is
    the projected gradient the previous step measured, to the absolute
    accuracy 1e-11 |l_k - R'(phi)| that a solve for phi_new from zero
    would reach; late steps, whose gap is small, then take few Krylov
    iterations.  At most 30 outer steps are taken.  For k >= 2 the
    radius must lie in ``geometry.correction_window``.

    Parameters
    ----------
    ctx : ReductionContext
    tol : float
        Convergence tolerance in the H^1_V norm.

    Returns
    -------
    CorrectionResult
    """
    if ctx.k >= 2:
        window = correction_window(ctx.k, ctx.potential.m)
        if not (window.lower - 1e-9 <= ctx.r <= window.upper + 1e-9):
            raise ValidationError(
                f"radius {ctx.r} outside the admissible window "
                f"[{window.lower:.4f}, {window.upper:.4f}] for k={ctx.k}"
            )
    rep = riesz_lk(ctx)
    l_flat = rep.field
    phi = np.zeros_like(l_flat)
    if rep.norm == 0.0:
        return CorrectionResult(
            phi=phi,
            norm=0.0,
            iterations=1,
            ratios=[],
            residual=0.0,
            constraint_value=0.0,
        )

    ratios = []
    prev_update = None
    bad_ratio_streak = 0
    r_grad = _remainder_gradient(ctx, phi)
    gap = l_flat - r_grad
    residual = ctx.norm(gap)
    for outer in range(1, 31):
        # The accuracy a solve of L phi_new = -(l_k - R'(phi)) from zero
        # reaches, asked of the update's equation L d = -gap instead.
        target = 1e-11 * ctx.norm(l_flat - r_grad)
        if residual <= target:
            d = np.zeros_like(phi)
        else:
            sol = minres(
                ctx.apply_l_operator,
                -gap,
                ctx.gram,
                rtol=target / residual,
                maxiter=400,
                project=ctx.project_orth,
            )
            if not sol.converged:
                raise ConvergenceError(
                    "inner linear solve did not converge",
                    iterations=sol.iterations,
                    residual=sol.residual_norm,
                )
            d = sol.x
        update = ctx.norm(d)
        if prev_update is not None and prev_update > 0.0:
            ratio = update / prev_update
            ratios.append(ratio)
            if ratio >= 1.0:
                bad_ratio_streak += 1
                if bad_ratio_streak >= 2:
                    raise ContractionError(
                        "correction updates stopped contracting", ratios=ratios
                    )
            else:
                bad_ratio_streak = 0
        prev_update = update
        phi = phi + d
        # Projected Euler-Lagrange residual; it and R'(phi) feed the next step.
        r_grad = _remainder_gradient(ctx, phi)
        gap = l_flat + ctx.apply_l_operator(phi) - r_grad
        residual = ctx.norm(gap)
        if update <= tol and residual <= tol:
            return CorrectionResult(
                phi=phi,
                norm=ctx.norm(phi),
                iterations=outer,
                ratios=ratios,
                residual=residual,
                constraint_value=ctx.constraint_value(phi),
            )
    raise ConvergenceError(
        "correction iteration ran out of outer steps",
        iterations=outer,
        residual=residual,
    )
