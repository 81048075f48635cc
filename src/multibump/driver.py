"""Reduced energy curve, its maximization, and certified solutions.

The pipeline here sits on top of the reduction machinery: evaluate
F(r) = I(W_r + phi(r)) sample by sample, locate the maximizer over the
admissible window, polish the best ansatz into a genuine solution of
the discrete equation, and assemble the k ladder table.  The polish is
the constrained problem once more, solved for the full field: Newton
at a fixed radius returns the Lyapunov-Schmidt multiplier lambda(r),
and a secant on lambda finds the radius where it vanishes.

A desk-scale caveat that shapes two functions below: for small k the
fixed-point iteration only contracts on the outer part of the window
(the bumps overlap too strongly further in), and the measured F is
still increasing at the upper window edge, so the argmax reported by
``maximize_reduced_energy`` can sit on the boundary.  Both situations
are reported, not hidden: failed samples are listed on the curve and
the interiority flag stays False for a boundary argmax.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ContractionError, ConvergenceError, NumericalError, ValidationError
from .geometry import admissible_radii, correction_window
from .grid import energy_functional, pde_residual, weak_norm
# Unused here; bench/layers.py still patches driver.stiffness_matrix.
# ROADMAP item 7 (counters inside the package) removes the import.
from .grid import stiffness_matrix  # noqa: F401
from .groundstate import expansion_constants
from .groundstate import solve_ground_state  # noqa: F401  (traced by bench/layers.py)
from .interactions import asymptotic_energy, fit_interaction_law, interaction_integral
from .reduction import (
    CorrectionResult,
    build_reduction_context,
    coercivity_probe,
    riesz_lk,
    solve_correction,
)
from .solvers import minres

__all__ = [
    "ReducedEnergyResult",
    "ReducedEnergyCurve",
    "CertifiedSolution",
    "StudyRow",
    "StudyTable",
    "reduced_energy",
    "maximize_reduced_energy",
    "extend_past_edge",
    "polish_and_certify",
    "scaling_study",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _fill_defaults(profile, potential, constants, law, need_law):
    """(constants, law) with the omitted ones computed: A and B1 from the
    profile, and, where ``need_law``, the pair law fitted on d in [8, 16]."""
    if constants is None:
        constants = expansion_constants(profile, potential)
    if law is None and need_law:
        ds = np.arange(8.0, 16.0 + 1e-9, 2.0)
        law = fit_interaction_law([(d, interaction_integral(profile, d)) for d in ds])
    return constants, law


# A correction is only meaningful while it stays perturbative; past this
# fraction of the ansatz norm the constrained critical point belongs to a
# different branch and its energy must not enter the reduced curve.
_PERTURBATIVE_FRACTION = 0.25


def _cap(ctx):
    return _PERTURBATIVE_FRACTION * ctx.norm(ctx.w_ansatz)


def _beyond_cap(norm, cap, r):
    return ContractionError(
        "correction of size %.3f exceeds the perturbative cap %.3f; "
        "the ansatz at r=%.4f has no small correction" % (norm, cap, r)
    )


def _newton_correction(ctx, tol=1e-8, max_outer=40):
    """Inexact damped Newton iteration for the projected correction equation.

    Fallback used where the plain fixed-point map stops contracting
    (strongly overlapping bumps).  Each step solves the Hessian system
    by MINRES to the forcing term max(1e-10, min(0.1, |g|^(1/2)))
    relative to the projected gradient g (Eisenstat & Walker 1996),
    then backtracks on |g|.  The gradient l + P(v - G^-1(mass v +
    w cubic)) costs one Gram solve.

    Refusals come early: ContractionError once a full step (alpha = 1)
    cuts |g| fourfold with |phi| - |step| above the perturbative cap
    (the limit then lies within |step| of phi; Deuflhard 2004, 2.1),
    ConvergenceError once |g| falls by under 10% in 8 accepted steps.
    """
    w = ctx.weights
    l_flat = riesz_lk(ctx).field
    phi = np.zeros_like(l_flat)
    wb = ctx.w_ansatz
    p = ctx.exponent
    cap = _cap(ctx)

    def grad(v):
        u = wb + v
        cubic = np.abs(u) ** (p - 1.0) * u - wb**p - p * wb ** (p - 1.0) * v
        dual = ctx._mass_diag * v + w * cubic
        return l_flat + ctx.project_orth(v - ctx.gram_solver.solve(dual))

    g = grad(phi)
    g_norm = ctx.norm(g)
    g_history = [g_norm]
    ratios = []
    prev_step = None
    for outer in range(1, max_outer + 1):
        if g_norm <= tol:
            return CorrectionResult(
                phi=phi,
                norm=ctx.norm(phi),
                iterations=outer - 1,
                ratios=ratios,
                residual=g_norm,
                constraint_value=ctx.constraint_value(phi),
            )
        coef = w * p * np.abs(wb + phi) ** (p - 1.0)

        def hess(v):
            return ctx.project_orth(v - ctx.gram_solver.solve(coef * v))

        sol = minres(
            hess,
            ctx.project_orth(-g),
            ctx.gram,
            rtol=max(1e-10, min(0.1, math.sqrt(g_norm))),
            maxiter=800,
            project=ctx.project_orth,
        )
        alpha = 1.0
        accepted = False
        while alpha > 1e-6:
            trial = phi + alpha * sol.x
            g_trial = grad(trial)
            g_trial_norm = ctx.norm(g_trial)
            if g_trial_norm < (1.0 - 0.25 * alpha) * g_norm:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise ConvergenceError(
                "projected newton line search stalled; no nearby correction",
                iterations=outer,
                residual=g_norm,
            )
        step = alpha * ctx.norm(sol.x)
        if prev_step is not None and prev_step > 0.0:
            ratios.append(step / prev_step)
        prev_step = step
        if alpha == 1.0 and g_trial_norm <= 0.25 * g_norm:
            lower = ctx.norm(trial) - step
            if lower > cap:
                raise _beyond_cap(lower, cap, ctx.r)
        phi = trial
        g = g_trial
        g_norm = g_trial_norm
        g_history.append(g_norm)
        if len(g_history) > 8 and g_norm > 0.9 * g_history[-9]:
            raise ConvergenceError(
                "projected newton stagnated; no nearby correction",
                iterations=outer,
                residual=g_norm,
            )
    raise ConvergenceError(
        "projected newton did not reach tolerance",
        iterations=max_outer,
        residual=g_norm,
    )


def _solve_with_rescue(ctx, tol=1e-8):
    """Correction by contraction, falling back to damped Newton.

    Returns (CorrectionResult, method) where method is "picard" or
    "newton".  Either way the result must be perturbative: deep in the
    overlap region the damped Newton can converge to a critical point
    with phi comparable to W itself, and treating that as "the
    correction" would poison the reduced energy with another branch's
    value.
    """
    try:
        corr, method = solve_correction(ctx, tol=tol), "picard"
    except (ContractionError, ConvergenceError):
        corr, method = _newton_correction(ctx, tol=tol), "newton"
    cap = _cap(ctx)
    if corr.norm > cap:
        raise _beyond_cap(corr.norm, cap, ctx.r)
    return corr, method


@dataclass(frozen=True)
class ReducedEnergyResult:
    """One evaluation of the reduced energy.

    Attributes
    ----------
    value : float
        F(r) = I(W_r + phi(r)).
    asymptotic : float
        k (A + B1/r^m - Psi(2 r sin(pi/k))) for side-by-side reporting.
    correction : CorrectionResult
    method : str
        "picard" when the contraction converged, "newton" for the
        damped fallback.
    """

    value: float
    asymptotic: float
    correction: CorrectionResult
    method: str


def reduced_energy(
    profile,
    potential,
    k,
    r,
    constants=None,
    law=None,
    h=0.1,
    tol=1e-8,
    margin=15.0,
):
    """Evaluate F(r) together with its asymptotic prediction.

    Where the contraction fails, the damped-Newton rescue
    (``_newton_correction``) takes over.

    Parameters
    ----------
    profile, potential
        Ground state and potential.
    k : int
        Bump count.
    r : float
        Ring radius inside the admissible window.
    constants : ExpansionConstants, optional
        A and B1; computed from the profile when omitted.
    law : InteractionLaw, optional
        Fitted interaction law; fitted on d in [8, 16] when omitted
        and k >= 2.
    h, tol, margin
        Grid spacing, correction tolerance, Dirichlet margin.

    Returns
    -------
    ReducedEnergyResult
    """
    constants, law = _fill_defaults(profile, potential, constants, law, k >= 2)
    ctx = build_reduction_context(profile, potential, k, r, h=h, margin=margin)
    corr, method = _solve_with_rescue(ctx, tol=tol)
    return ReducedEnergyResult(
        value=energy_functional(ctx.grid, ctx.w_ansatz + corr.phi, ctx.gram,
                                ctx.exponent),
        asymptotic=asymptotic_energy(k, r, constants, law, potential.m),
        correction=corr,
        method=method,
    )


@dataclass(frozen=True, eq=False)
class _Sampler:
    """r -> (F(r), asymptotic value, method) at one curve's fixed settings.

    Each sample is a ``reduced_energy`` solve, or the caller's
    ``evaluator`` (asymptotic value nan, method "formula"); where no
    correction could be computed it is (-inf, nan, None).  Samplers are
    equal when all their settings are, the profile compared by value, so
    a copy pickled to a worker equals its original.
    """

    profile: object
    potential: object
    k: int
    constants: object
    law: object
    h: float
    tol: float
    margin: float
    evaluator: object = None

    def __call__(self, r):
        try:
            if self.evaluator is not None:
                return float(self.evaluator(r)), math.nan, "formula"
            res = reduced_energy(self.profile, self.potential, self.k, r,
                                 constants=self.constants, law=self.law, h=self.h,
                                 tol=self.tol, margin=self.margin)
            return float(res.value), res.asymptotic, res.method
        except (ContractionError, ConvergenceError, NumericalError, ValidationError):
            return -math.inf, math.nan, None

    def value(self, r):
        return self(r)[0]

    def differences(self, other):
        """Names of the settings in which ``other`` differs from this one."""
        return [f.name for f in fields(self)
                if not _same(getattr(self, f.name), getattr(other, f.name))]

    def __eq__(self, other):
        return isinstance(other, _Sampler) and not self.differences(other)


def _same(a, b):
    """a == b, with dataclasses compared field by field and arrays by value."""
    if is_dataclass(a) and type(a) is type(b):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@dataclass(frozen=True)
class ReducedEnergyCurve:
    """Sampled reduced energy over the admissible window.

    Attributes
    ----------
    k : int
    radii, values : ndarray
        Scan samples where the correction solve succeeded.
    asymptotics : ndarray
        Matching asymptotic predictions (nan in evaluator mode).
    methods : tuple of str
        Solver used per sample.
    failed_radii : tuple of float
        Scan radii where no correction could be computed; empty in
        the asymptotic regime, populated at desk scale for small k
        near the lower window edge.
    r_max, f_max : float
        Argmax after golden-section refinement and its value; a window
        end whose inward neighbour at the refinement tolerance is lower
        is kept as it is, unrefined.
    interior : bool
        True when the argmax keeps at least one coarse step away
        from both window endpoints.
    normalized : float
        r_max / (k ln k).
    lower, upper : float
        Window bounds.
    extended : bool
        True when the boundary-argmax continuation stepped past the
        upper window edge; r_max then lies outside [lower, upper].
    sampler : callable
        The F that was sampled, r -> (F(r), asymptotic value, method),
        with the search's settings as attributes.
    """

    k: int
    radii: np.ndarray
    values: np.ndarray
    asymptotics: np.ndarray
    methods: tuple
    failed_radii: tuple
    r_max: float
    f_max: float
    interior: bool
    normalized: float
    lower: float
    upper: float
    extended: bool
    sampler: _Sampler

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,f_reduced,f_asymptotic\n")
            for r, f, fa in zip(self.radii, self.values, self.asymptotics):
                fh.write("%.12e,%.12e,%.12e\n" % (r, f, fa))


def _golden_max(fun, lo, hi, tol):
    """Golden-section maximization on [lo, hi], tracking the best eval."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = fun(x1)
    f2 = fun(x2)
    best_r, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    while b - a > tol:
        if f1 < f2:
            a = x1
            x1, f1 = x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
            if f2 > best_f:
                best_r, best_f = x2, f2
        else:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
            if f1 > best_f:
                best_r, best_f = x1, f1
    return best_r, best_f


def maximize_reduced_energy(
    profile,
    potential,
    k,
    n_samples=11,
    constants=None,
    law=None,
    beta=0.1,
    h=0.1,
    tol=1e-8,
    refine_frac=1e-3,
    evaluator=None,
    margin=15.0,
):
    """Locate the maximizer of F over the admissible window.

    Coarse scan with ``n_samples`` points, then golden-section
    refinement around the best sample to |delta r| <= refine_frac
    times the window length (refine_tol).  When the best sample is a
    window end, F is first evaluated once refine_tol inside it; if that
    value is strictly lower, F (unimodal, as the golden section already
    assumes) peaks within refine_tol of the end, which is kept as the
    argmax without refinement, so a clamped curve costs n_samples + 1
    evaluations.  A boundary argmax is reported through the interiority
    flag rather than raised; ``extend_past_edge`` continues it.

    Parameters
    ----------
    profile, potential
        Ground state and potential; the profile may be None when an
        ``evaluator`` is supplied.
    k : int
        Bump count, k >= 2.
    n_samples : int
        Coarse scan size, at least 9.
    constants, law, beta, h, tol, margin
        Forwarded to the per-sample evaluation.
    refine_frac : float
        Refinement tolerance relative to the window length.
    evaluator : callable, optional
        r -> F(r) replacement for the full solve; used for the
        formula-only mode and test hooks.

    Returns
    -------
    ReducedEnergyCurve
    """
    if n_samples < 9:
        raise ValidationError(f"scan needs at least 9 samples, got {n_samples}")
    if k < 2:
        raise ValidationError("the admissible window degenerates at k = 1")
    window = admissible_radii(k, potential.m, beta=beta)
    if evaluator is None:
        constants, law = _fill_defaults(profile, potential, constants, law, True)
    sampler = _Sampler(profile, potential, k, constants, law, h, tol, margin, evaluator)

    rs = np.linspace(window.lower, window.upper, n_samples)
    scan = [(r,) + sampler(r) for r in rs]
    vals = np.array([f for _, f, _, _ in scan])
    ok = np.isfinite(vals)
    if not ok.any():
        raise ConvergenceError(f"no window sample admitted a correction for k={k}")
    i_best = int(np.argmax(np.where(ok, vals, -math.inf)))
    lo = rs[max(i_best - 1, 0)]
    hi = rs[min(i_best + 1, n_samples - 1)]
    refine_tol = refine_frac * window.width
    r_max, f_max = float(rs[i_best]), float(vals[i_best])
    # An end sample with F lower one refine_tol inside it: a unimodal F
    # peaks within refine_tol of the end, so the golden section is skipped.
    at_end = i_best in (0, n_samples - 1)
    inward = r_max + refine_tol if i_best == 0 else r_max - refine_tol
    if not (at_end and sampler.value(inward) < f_max):
        r_ref, f_ref = _golden_max(sampler.value, lo, hi, refine_tol)
        if f_ref >= f_max:
            r_max, f_max = r_ref, f_ref

    return _curve(
        sampler, window.lower, window.upper, window.width / (n_samples - 1), r_max, f_max,
        [s for s, good in zip(scan, ok) if good], tuple(float(r) for r in rs[~ok]),
    )


def _curve(sampler, lower, upper, step, r_max, f_max, samples, failed_radii):
    """ReducedEnergyCurve of the (r, F, asymptotic, method) ``samples`` on
    the window [lower, upper] scanned at ``step``.

    The argmax is interior when it keeps at least one step from both
    window ends and extended when it lies past the upper end.
    """
    radii, values, asymptotics, methods = zip(*samples)
    k = sampler.k
    return ReducedEnergyCurve(
        k=k,
        radii=np.array(radii),
        values=np.array(values),
        asymptotics=np.array(asymptotics),
        methods=methods,
        failed_radii=failed_radii,
        r_max=float(r_max),
        f_max=float(f_max),
        interior=bool(r_max - lower >= step - 1e-12 and upper - r_max >= step - 1e-12),
        normalized=float(r_max / (k * math.log(k))),
        lower=lower,
        upper=upper,
        extended=bool(r_max > upper + 1e-12),
        sampler=sampler,
    )


def _require_in_window(curve):
    """Reject a curve that already holds samples past the upper edge."""
    if curve.radii.size and curve.radii[-1] > curve.upper:
        raise ValidationError(
            f"the k={curve.k} curve already continues past the window edge "
            f"r = {curve.upper:.4f}"
        )


def extend_past_edge(curve, refine_frac=1e-3):
    """Continue an in-window curve past the upper edge to the turnover of F.

    When the argmax of ``curve`` lies within one coarse step of the
    upper window edge, keep stepping outward (inside the wider radius
    range the correction solver itself validates) until F turns over,
    then refine between the samples either side of the last rising
    one, [upper - step, upper + step] when F already falls on the
    first step out.  Otherwise, or when the upper-edge sample failed,
    no radius is evaluated and the result equals ``curve``.  The
    window samples and the evaluations behind ``curve`` are reused, and
    every new sample is taken by ``curve.sampler``.

    Parameters
    ----------
    curve : ReducedEnergyCurve
        In-window result of ``maximize_reduced_energy``.
    refine_frac : float
        Refinement tolerance relative to the window length.

    Returns
    -------
    ReducedEnergyCurve
        ``extended`` is True when r_max lies past the upper edge.
    """
    _require_in_window(curve)
    lower, upper, sampler = curve.lower, curve.upper, curve.sampler
    step = (upper - lower) / (curve.radii.size + len(curve.failed_radii) - 1)
    if upper - curve.r_max >= step - 1e-12:
        return curve
    slack = correction_window(curve.k, sampler.potential.m)
    edge_ok = curve.radii.size and curve.radii[-1] == upper
    r_prev = upper - step
    r_cur = upper
    f_cur = float(curve.values[-1]) if edge_ok else -math.inf
    ext = []
    while math.isfinite(f_cur) and r_cur < slack.upper - 1e-9:
        r_next = min(r_cur + step, slack.upper)
        f_next, asymptotic, method = sampler(r_next)
        if math.isfinite(f_next):
            ext.append((r_next, f_next, asymptotic, method))
        if not math.isfinite(f_next) or f_next <= f_cur:
            break
        r_prev, r_cur, f_cur = r_cur, r_next, f_next
    r_max, f_max = curve.r_max, curve.f_max
    if math.isfinite(f_cur):
        r_ref, f_ref = _golden_max(sampler.value, r_prev, min(r_cur + step, slack.upper),
                                   refine_frac * (upper - lower))
        if f_cur > f_max:
            r_max, f_max = r_cur, f_cur
        if f_ref >= f_max:
            r_max, f_max = r_ref, f_ref
    return _curve(
        sampler, lower, upper, step, r_max, f_max,
        list(zip(curve.radii, curve.values, curve.asymptotics, curve.methods)) + ext,
        curve.failed_radii,
    )


@dataclass(frozen=True)
class CertifiedSolution:
    """Polished solution of the discrete equation with its certificate.

    Attributes
    ----------
    u : ndarray
        Sector cell values of the solution.
    grid : SectorGrid
        The grid ``u`` lives on.
    residual_norm : float
        Full-plane L2 norm of the strong-form residual
        (``grid.pde_residual``).
    min_value : float
        Minimum nodal value (positivity certificate).
    nonradiality : float
        (max - min) / max of u on the bump circle.
    k : int
    r_k : float
    steps : int
        Factorizations of the Jacobian made by the polish.
    energy : float
        Discrete energy I(u).
    multiplier : float
        The Lyapunov-Schmidt multiplier lambda at r_k, from the last
        constrained Newton solve (0 when no solve ran): the weak
        residual of u is lambda q_r up to a tenth of the tolerance, so
        |lambda| |q_r| is at most 1.1 times the certification tolerance.
    """

    u: np.ndarray
    grid: object
    residual_norm: float
    min_value: float
    nonradiality: float
    k: int
    r_k: float
    steps: int
    energy: float
    multiplier: float

    def to_json(self):
        return json.dumps(
            {
                "k": self.k,
                "r_k": self.r_k,
                "residual_norm": self.residual_norm,
                "min_value": self.min_value,
                "nonradiality": self.nonradiality,
                "steps": self.steps,
                "energy": self.energy,
                "multiplier": self.multiplier,
            },
            indent=2,
            sort_keys=True,
        )


def _secant_radius(tried, window):
    """Next radius of a secant on lambda(r) through the (r, lambda) pairs
    ``tried``, its step clamped to 0.5 and the radius to ``window``."""
    r, lam = tried[-1]
    step = 0.01  # the first step only probes the slope
    if len(tried) > 1:
        r_old, lam_old = tried[-2]
        step = -lam * (r - r_old) / (lam - lam_old) if lam != lam_old else 0.0
    r_new = min(max(r + min(max(step, -0.5), 0.5), window.lower), window.upper)
    if r_new == r:
        raise ConvergenceError("secant on the multiplier stalled at r=%.6f" % r)
    return r_new


def polish_and_certify(
    profile,
    potential,
    k,
    r_k,
    phi=None,
    tol=1e-6,
    h=0.1,
    max_steps=30,
    margin=15.0,
):
    """Newton-polish W + phi into a certified discrete solution.

    At a fixed radius r, Newton solves res(u) = lambda q_r with
    q_r . (u - W_r) = 0, where res(u) = G u - area |u|^(p-1) u and q_r
    is the correction's constraint density (``ReductionContext._q``).
    Each step eliminates the border by solves with a sparse LU of
    J = G - diag(area p |u|^(p-1)) (Keller 1977), kept while each step
    at least halves the residual (chord Newton; Kelley 2003): one solve
    for the residual per step, one for J^-1 q_r per factor and radius.
    The multiplier lambda(r) vanishes at a solution of the discrete
    equation, so for k >= 2 a secant on lambda moves r on the grid
    aligned at the stated r_k, carrying u - W_r, lambda and the LU from
    radius to radius; at k = 1 r stays fixed.  Once the full residual
    is at most ``tol``, positivity and nonradiality on the bump circle
    are certified.  The returned r_k is the radius the field sits at,
    and its multiplier the last lambda found there.

    Parameters
    ----------
    profile, potential, k, r_k
        Problem data; r_k is the start radius, normally the argmax of
        the reduced curve.
    phi : ndarray, optional
        Start u = W + phi, one value per sector cell of the aligned grid
        at r_k; zero when omitted.
    tol : float
        Residual certification tolerance.
    h, max_steps, margin
        Grid spacing, cap on the LU factorizations and on the radii
        tried, Dirichlet margin.

    Returns
    -------
    CertifiedSolution

    Raises
    ------
    ValidationError
        When ``phi`` does not hold one value per grid cell.
    ConvergenceError
        When Newton diverges, the secant stalls or a cap is hit.
    NumericalError
        When the converged field is not positive everywhere.

    Notes
    -----
    With a = 0 the continuum problem is translation invariant and the
    polar grid breaks that symmetry with a secular O(h^2) truncation
    force, so the discrete system has no solution near the ansatz and
    residuals below that floor are unreachable (measured at k = 1:
    about 1e-3 at h = 0.3, 4.5e-4 at h = 0.2, 2.6e-4 at h = 0.15).
    Pick tol at or above the floor for that degenerate case.
    """
    base = build_reduction_context(profile, potential, k, r_k, h=h, margin=margin)
    grid, gram, p = base.grid, base.gram, base.exponent
    v = np.zeros(grid.n_cells) if phi is None else np.asarray(phi, dtype=float).reshape(-1)
    if v.size != grid.n_cells:
        raise ValidationError(
            f"phi holds {v.size} values; the grid at r={r_k} has {grid.n_cells} cells"
        )
    lu, steps = None, 0

    def constrained_newton(ctx, v, lam):
        """(v, lambda) with res(W + v) = lambda q and q . v = 0 at ctx.r."""
        nonlocal lu, steps
        q = ctx._q
        y = None  # J^-1 q, fixed while the factor and the radius are
        g = pde_residual(grid, ctx.w_ansatz + v, gram, p)[0] - lam * q
        g_norm = weak_norm(grid, g)
        while True:
            if lu is None:
                if steps >= max_steps:
                    raise ConvergenceError("newton polish hit the factorization cap",
                                           iterations=steps, residual=g_norm)
                jac = gram - sp.diags(base.weights * p * np.abs(ctx.w_ansatz + v) ** (p - 1.0))
                lu = splu(jac.tocsc())
                steps += 1
                y = None
            x = -lu.solve(g)
            if y is None:
                y = lu.solve(q)
            dlam = -(q @ v + q @ x) / (q @ y)
            v = v + x + dlam * y
            lam += dlam
            g = pde_residual(grid, ctx.w_ansatz + v, gram, p)[0] - lam * q
            g_new = weak_norm(grid, g)
            if not g_new < math.inf:
                raise ConvergenceError("newton polish diverged at r=%.6f" % ctx.r)
            if g_new > 0.5 * g_norm:
                lu = None  # freed before the next splu: one factor alive at a time
            g_norm = g_new
            if g_norm <= 0.1 * tol:
                return v, lam

    ctx, lam, tried = base, 0.0, []
    _, rn = pde_residual(grid, ctx.w_ansatz + v, gram, p)
    while rn > tol:
        if tried:
            if k == 1 or len(tried) > max_steps:
                raise ConvergenceError(
                    "newton polish did not certify at r=%.6f" % ctx.r,
                    iterations=steps, residual=rn,
                )
            r_next = _secant_radius(tried, correction_window(k, potential.m))
            ctx = build_reduction_context(profile, potential, k, r_next, h=h, grid=grid,
                                          reuse=base)
        v, lam = constrained_newton(ctx, v, lam)
        tried.append((ctx.r, lam))
        _, rn = pde_residual(grid, ctx.w_ansatz + v, gram, p)

    u = ctx.w_ansatz + v
    u_min = float(u.min())
    if u_min <= 0.0:
        i, j = divmod(int(np.argmin(u)), grid.n_theta)
        raise NumericalError(
            "certified field is not positive: min %.3e at rho=%.3f theta=%.4f"
            % (u_min, grid.rho[i], grid.theta[j])
        )
    ring = u.reshape(grid.n_rho, grid.n_theta)[int(np.argmin(np.abs(grid.rho - ctx.r)))]
    return CertifiedSolution(
        u=u,
        grid=grid,
        residual_norm=rn,
        min_value=u_min,
        nonradiality=float((ring.max() - ring.min()) / ring.max()),
        k=k,
        r_k=ctx.r,
        steps=steps,
        energy=energy_functional(grid, u, gram, p),
        multiplier=float(lam),
    )


@dataclass(frozen=True)
class StudyRow:
    """One k of the scaling study."""

    k: int
    r_k: float
    normalized: float
    phi_norm: float
    l_norm: float
    rho_hat: float
    f_over_k: float
    interior: bool


@dataclass(frozen=True)
class StudyTable:
    """Scaling study across the k ladder.

    Rows carry the per-k measurements; trend columns (successive
    differences of the normalized radius and its gap to m/(2 pi)) are
    derived in ``to_csv`` and ``trends``.  A k = 1 row, when present,
    is excluded from the trends.
    """

    rows: tuple
    decay_power: float

    def trends(self):
        """(k, normalized_step, gap) triples for k >= 2 rows."""
        target = self.decay_power / (2.0 * math.pi)
        ladder = [row for row in self.rows if row.k >= 2]
        out = []
        prev = None
        for row in ladder:
            step = math.nan if prev is None else row.normalized - prev.normalized
            out.append((row.k, step, row.normalized - target))
            prev = row
        return out

    def to_csv(self, path):
        trend = {k: (s, g) for k, s, g in self.trends()}
        with open(path, "w") as fh:
            fh.write(
                "k,r_k,normalized,phi_norm,l_norm,rho_hat,f_over_k,"
                "interior,normalized_step,gap\n"
            )
            for row in self.rows:
                step, gap = trend.get(row.k, (math.nan, math.nan))
                fh.write(
                    "%d,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,%d,%.12e,%.12e\n"
                    % (
                        row.k,
                        row.r_k,
                        row.normalized,
                        row.phi_norm,
                        row.l_norm,
                        row.rho_hat,
                        row.f_over_k,
                        int(row.interior),
                        step,
                        gap,
                    )
                )


def _study_row(sampler, curve, beta, n_samples, seed, radius_k1):
    """The study row of ``sampler``'s k; ``curve`` is its in-window curve,
    or None to search one with ``beta`` and ``n_samples``.

    The k = 1 row sits at ``radius_k1``, and its F is the energy there.
    """
    s, k = sampler, sampler.k
    if k >= 2 and curve is None:
        curve = maximize_reduced_energy(
            s.profile, s.potential, k, n_samples=n_samples, constants=s.constants,
            law=s.law, beta=beta, h=s.h, tol=s.tol, margin=s.margin,
        )
    single = k == 1
    r = radius_k1 if single else curve.r_max
    ctx = build_reduction_context(s.profile, s.potential, k, r, h=s.h, margin=s.margin)
    corr, _ = _solve_with_rescue(ctx, tol=s.tol)
    return StudyRow(
        k=k,
        r_k=ctx.r,
        normalized=math.nan if single else curve.normalized,
        phi_norm=corr.norm,
        l_norm=riesz_lk(ctx).norm,
        rho_hat=coercivity_probe(ctx, seed=seed),
        f_over_k=(energy_functional(ctx.grid, ctx.w_ansatz + corr.phi, ctx.gram,
                                    ctx.exponent) if single else curve.f_max / k),
        interior=single or curve.interior,
    )


def _study_row_remote(args):
    return _study_row(*args)


def scaling_study(
    profile,
    potential,
    ks,
    constants=None,
    law=None,
    beta=0.1,
    h=0.1,
    n_samples=11,
    seed=0,
    tol=1e-8,
    jobs=1,
    margin=15.0,
    radius_k1=10.0,
    curves=None,
):
    """Run the k ladder and collect the scaling table.

    Parameters
    ----------
    profile, potential
        Ground state and potential.
    ks : iterable of int
        Increasing bump counts; a leading 1 is allowed and lands in a
        trend-excluded row.
    constants, law
        Expansion constants and interaction law; computed once here
        when omitted.
    beta, h, n_samples, seed, tol, margin
        Window, grid, scan, probe-seed, correction and Dirichlet-margin
        parameters.
    jobs : int
        Worker processes, at most one per row; a single row runs in
        this process.  Rows are computed independently and merged by
        k, so the output is identical for any job count.
    radius_k1 : float
        Ring radius of the k = 1 row.
    curves : mapping of int to ReducedEnergyCurve, optional
        In-window curves for some or all k; their search is skipped,
        the other k are searched here.

    Returns
    -------
    StudyTable

    Raises
    ------
    ValidationError
        When a supplied curve continues past its window, or was not
        searched with the study's own profile, potential, constants,
        law, h, tol, margin, window and scan size.
    """
    ks = [int(k) for k in ks]
    if ks != sorted(ks) or len(set(ks)) != len(ks):
        raise ValidationError(f"k ladder must be strictly increasing, got {ks}")
    curves = dict(curves or {})
    for k, curve in curves.items():
        if curve.k != k:
            raise ValidationError(f"curve for k={curve.k} supplied under k={k}")
        _require_in_window(curve)
    constants, law = _fill_defaults(profile, potential, constants, law,
                                    any(k >= 2 for k in ks))
    args = []
    for k in ks:
        sampler = _Sampler(profile, potential, k, constants, law, h, tol, margin)
        curve = curves.get(k)
        if curve is not None:
            window = admissible_radii(k, potential.m, beta=beta)
            differ = curve.sampler.differences(sampler)
            if (curve.lower, curve.upper) != (window.lower, window.upper):
                differ.append("window")
            if curve.radii.size + len(curve.failed_radii) != n_samples:
                differ.append("n_samples")
            if differ:
                raise ValidationError(f"the k={k} curve was searched with another "
                                      f"{', '.join(differ)} than the study's")
            sampler = curve.sampler  # equal; the row pickles one profile
        args.append((sampler, curve, beta, n_samples, seed, radius_k1))
    workers = min(jobs, len(args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_study_row_remote, args))
    else:
        rows = [_study_row(*a) for a in args]
    rows.sort(key=lambda row: row.k)
    return StudyTable(rows=tuple(rows), decay_power=potential.m)
