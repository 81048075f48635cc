"""Reduced energy curve, its maximization, and certified solutions.

The pipeline here sits on top of the reduction machinery: evaluate
F(r) = I(W_r + phi(r)) sample by sample, locate the maximizer over the
admissible window, polish the best ansatz into a genuine solution of
the discrete equation, and assemble the k ladder table.

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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ContractionError, ConvergenceError, NumericalError, ValidationError
from .geometry import admissible_radii
from .grid import energy_functional, pde_residual
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


def _fit_default_law(profile):
    ds = np.arange(8.0, 16.0 + 1e-9, 2.0)
    return fit_interaction_law([(d, interaction_integral(profile, d)) for d in ds])


# A correction is only meaningful while it stays perturbative; past this
# fraction of the ansatz norm the constrained critical point belongs to a
# different branch and its energy must not enter the reduced curve.
_PERTURBATIVE_FRACTION = 0.25


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
    cap = _PERTURBATIVE_FRACTION * ctx.norm(wb)

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


def _solve_with_rescue(ctx, tol=1e-8, rescue=True):
    """Correction by contraction, falling back to damped Newton.

    Returns (CorrectionResult, method) where method is "picard" or
    "newton".  Without rescue the contraction failure propagates.
    Either way the result must be perturbative: deep in the overlap
    region the damped Newton can converge to a critical point with
    phi comparable to W itself, and treating that as "the correction"
    would poison the reduced energy with another branch's value.
    """
    try:
        corr, method = solve_correction(ctx, tol=tol), "picard"
    except (ContractionError, ConvergenceError):
        if not rescue:
            raise
        corr, method = _newton_correction(ctx, tol=tol), "newton"
    cap = _PERTURBATIVE_FRACTION * ctx.norm(ctx.w_ansatz)
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
    rescue=True,
    margin=15.0,
):
    """Evaluate F(r) together with its asymptotic prediction.

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
    rescue : bool
        Allow the damped-Newton fallback when contraction fails; its
        steps are solved inexactly, to a forcing term that tightens as
        the projected gradient g shrinks, with one Gram solve per g,
        and a refusal (past the cap, or stagnant) is raised early.

    Returns
    -------
    ReducedEnergyResult
    """
    if constants is None:
        constants = expansion_constants(profile, potential)
    if law is None and k >= 2:
        law = _fit_default_law(profile)
    ctx = build_reduction_context(profile, potential, k, r, h=h, margin=margin)
    corr, method = _solve_with_rescue(ctx, tol=tol, rescue=rescue)
    return ReducedEnergyResult(
        value=energy_functional(ctx.grid, ctx.w_ansatz + corr.phi, ctx.gram,
                                ctx.exponent),
        asymptotic=asymptotic_energy(k, r, constants, law, potential.m),
        correction=corr,
        method=method,
    )


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
        Argmax after golden-section refinement and its value.
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


def _guarded_evaluator(profile, potential, k, constants, law, h, tol, margin,
                       evaluator, methods):
    """r -> F(r), with -inf where no correction could be computed.

    Without an ``evaluator`` each call is a full ``reduced_energy``
    solve, and the solver it used is appended to ``methods``.
    """
    if evaluator is None:

        def evaluator(r):
            res = reduced_energy(
                profile, potential, k, r, constants=constants, law=law, h=h,
                tol=tol, margin=margin,
            )
            methods.append(res.method)
            return res.value

    def guarded(r):
        try:
            return float(evaluator(r))
        except (ContractionError, ConvergenceError, NumericalError, ValidationError):
            return -math.inf

    return guarded


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
    extend_on_boundary=False,
    margin=15.0,
):
    """Locate the maximizer of F over the admissible window.

    Coarse scan with ``n_samples`` points, then golden-section
    refinement around the best sample to |delta r| <= refine_frac
    times the window length.  A boundary argmax is reported through
    the interiority flag rather than raised.

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
    extend_on_boundary : bool
        Continue the finished in-window curve with ``extend_past_edge``.
        Used by the certification stage, where the polish needs a start
        near a genuine critical point; at desk scale the turnover of F
        can sit past the nominal window.

    Returns
    -------
    ReducedEnergyCurve
    """
    if n_samples < 9:
        raise ValidationError(f"scan needs at least 9 samples, got {n_samples}")
    if k < 2:
        raise ValidationError("the admissible window degenerates at k = 1")
    window = admissible_radii(k, potential.m, beta=beta)
    formula_mode = evaluator is not None
    if not formula_mode:
        if constants is None:
            constants = expansion_constants(profile, potential)
        if law is None:
            law = _fit_default_law(profile)
    methods = []
    guarded = _guarded_evaluator(profile, potential, k, constants, law, h, tol,
                                 margin, evaluator, methods)

    rs = np.linspace(window.lower, window.upper, n_samples)
    vals = np.array([guarded(r) for r in rs])
    scan_methods = tuple(methods)
    ok = np.isfinite(vals)
    if not ok.any():
        raise ConvergenceError(
            f"no window sample admitted a correction for k={k}"
        )
    i_best = int(np.argmax(np.where(ok, vals, -math.inf)))
    lo = rs[max(i_best - 1, 0)]
    hi = rs[min(i_best + 1, n_samples - 1)]
    refine_tol = refine_frac * (window.upper - window.lower)
    r_ref, f_ref = _golden_max(guarded, lo, hi, refine_tol)
    if f_ref >= vals[i_best]:
        r_max, f_max = r_ref, f_ref
    else:
        r_max, f_max = float(rs[i_best]), float(vals[i_best])

    step = (window.upper - window.lower) / (n_samples - 1)
    interior = (
        r_max - window.lower >= step - 1e-12
        and window.upper - r_max >= step - 1e-12
    )
    curve = ReducedEnergyCurve(
        k=k,
        radii=rs[ok],
        values=vals[ok],
        asymptotics=_asymptotics(k, rs[ok], constants, law, potential.m, formula_mode),
        methods=("formula",) * int(ok.sum()) if formula_mode else scan_methods,
        failed_radii=tuple(float(r) for r in rs[~ok]),
        r_max=float(r_max),
        f_max=float(f_max),
        interior=bool(interior),
        normalized=float(r_max / (k * math.log(k))),
        lower=window.lower,
        upper=window.upper,
        extended=False,
    )
    if extend_on_boundary:
        curve = extend_past_edge(
            curve, profile, potential, constants=constants, law=law, h=h, tol=tol,
            refine_frac=refine_frac, evaluator=evaluator, margin=margin,
        )
    return curve


def _asymptotics(k, radii, constants, law, m, formula_mode):
    return np.array(
        [math.nan if formula_mode else asymptotic_energy(k, r, constants, law, m)
         for r in radii]
    )


def _require_in_window(curve):
    """Reject a curve that already holds samples past the upper edge."""
    if curve.radii.size and curve.radii[-1] > curve.upper:
        raise ValidationError(
            f"the k={curve.k} curve already continues past the window edge "
            f"r = {curve.upper:.4f}"
        )


def extend_past_edge(
    curve,
    profile,
    potential,
    constants=None,
    law=None,
    h=0.1,
    tol=1e-8,
    refine_frac=1e-3,
    evaluator=None,
    margin=15.0,
):
    """Continue an in-window curve past the upper edge to the turnover of F.

    When the argmax of ``curve`` lies within one coarse step of the
    upper window edge, keep stepping outward (inside the wider radius
    range the correction solver itself validates) until F turns over,
    then refine between the samples either side of the last rising
    one, [upper - step, upper + step] when F already falls on the
    first step out.  Otherwise, or when the upper-edge sample failed,
    no radius is evaluated and the result equals ``curve``.  The
    window samples and the evaluations behind ``curve`` are reused, so
    ``maximize_reduced_energy(..., extend_on_boundary=True)`` is the
    in-window search followed by this continuation.

    Parameters
    ----------
    curve : ReducedEnergyCurve
        In-window result of ``maximize_reduced_energy``.
    profile, potential, constants, law, h, tol, margin, evaluator
        As given to ``maximize_reduced_energy`` for ``curve``.
    refine_frac : float
        Refinement tolerance relative to the window length.

    Returns
    -------
    ReducedEnergyCurve
        ``extended`` is True when r_max lies past the upper edge.
    """
    _require_in_window(curve)
    k, lower, upper = curve.k, curve.lower, curve.upper
    step = (upper - lower) / (curve.radii.size + len(curve.failed_radii) - 1)
    if upper - curve.r_max >= step - 1e-12:
        return curve
    formula_mode = evaluator is not None
    if not formula_mode:
        if constants is None:
            constants = expansion_constants(profile, potential)
        if law is None:
            law = _fit_default_law(profile)
    methods = []
    guarded = _guarded_evaluator(profile, potential, k, constants, law, h, tol,
                                 margin, evaluator, methods)

    slack = admissible_radii(k, potential.m, beta=0.95 * potential.m / (2.0 * math.pi))
    edge_ok = curve.radii.size and curve.radii[-1] == upper
    r_prev = upper - step
    r_cur = upper
    f_cur = float(curve.values[-1]) if edge_ok else -math.inf
    ext_rs, ext_fs, ext_methods = [], [], []
    while math.isfinite(f_cur) and r_cur < slack.upper - 1e-9:
        r_next = min(r_cur + step, slack.upper)
        f_next = guarded(r_next)
        if math.isfinite(f_next):
            ext_rs.append(r_next)
            ext_fs.append(f_next)
            ext_methods.append("formula" if formula_mode else methods[-1])
        if not math.isfinite(f_next) or f_next <= f_cur:
            break
        r_prev, r_cur, f_cur = r_cur, r_next, f_next
    r_max, f_max = curve.r_max, curve.f_max
    if math.isfinite(f_cur):
        refine_tol = refine_frac * (upper - lower)
        r_ref, f_ref = _golden_max(guarded, r_prev, min(r_cur + step, slack.upper),
                                   refine_tol)
        if f_cur > f_max:
            r_max, f_max = r_cur, f_cur
        if f_ref >= f_max:
            r_max, f_max = r_ref, f_ref
    interior = r_max - lower >= step - 1e-12 and upper - r_max >= step - 1e-12
    return ReducedEnergyCurve(
        k=k,
        radii=np.concatenate([curve.radii, ext_rs]),
        values=np.concatenate([curve.values, ext_fs]),
        asymptotics=np.concatenate([
            curve.asymptotics,
            _asymptotics(k, ext_rs, constants, law, potential.m, formula_mode),
        ]),
        methods=curve.methods + tuple(ext_methods),
        failed_radii=curve.failed_radii,
        r_max=float(r_max),
        f_max=float(f_max),
        interior=bool(interior),
        normalized=float(r_max / (k * math.log(k))),
        lower=lower,
        upper=upper,
        extended=bool(r_max > upper + 1e-12),
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
        Newton steps taken.
    energy : float
        Discrete energy I(u).
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
            },
            indent=2,
            sort_keys=True,
        )


def _pin_critical_radius(base, r_k, tol):
    """Refine r_k on one fixed grid so the ansatz sits at the discrete
    critical radius.

    The reduced curve samples live on per-radius aligned grids, so its
    argmax is offset from the critical radius of any single mesh by a
    discretization amount; with a = 0 there is not even a continuum
    force and the grid anisotropy alone decides where the discrete
    equilibrium sits. Newton started off the equilibrium has to travel
    along the soft translation mode and crawls, so a short
    golden-section pass on the polish grid removes the offset for the
    cost of a few correction solves (cheap, the Gram solver is
    shared).
    """
    cache = {}

    def probe(r):
        if r not in cache:
            try:
                ctx = build_reduction_context(
                    base.profile, base.potential, base.k, r,
                    h=base.h, grid=base.grid, reuse=base,
                )
                corr = solve_correction(ctx, tol=tol, validate_window=False)
                val = energy_functional(ctx.grid, ctx.w_ansatz + corr.phi,
                                        ctx.gram, ctx.exponent)
                cache[r] = (val, ctx, corr)
            except (ContractionError, ConvergenceError, NumericalError,
                    ValidationError):
                cache[r] = (-math.inf, None, None)
        return cache[r][0]

    lo, hi = r_k - 0.2, r_k + 0.2
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = probe(x1), probe(x2)
    while hi - lo > 1e-3 and (math.isfinite(f1) or math.isfinite(f2)):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = probe(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = probe(x1)
    best = max(cache, key=lambda r: cache[r][0])
    if not math.isfinite(cache[best][0]):
        return None
    return best, cache[best][1], cache[best][2]


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
    pin_radius=True,
):
    """Newton-polish W + phi into a certified discrete solution.

    The constraint is dropped entirely: the iteration solves the full
    discrete system with an assembled Jacobian and a backtracking line
    search on the residual norm, then certifies residual, positivity,
    and nonradiality on the bump circle. The stated radius is first
    refined on the polish grid (see ``pin_radius``); the returned r_k
    is the refined value, the radius the certified field actually sits
    at.

    Parameters
    ----------
    profile, potential, k, r_k
        Problem data; r_k is the ring radius (normally the argmax of
        the reduced curve).
    phi : ndarray, optional
        Correction to start from, one value per sector cell of the
        aligned grid at r_k; solved on the spot when omitted.
        Passing one also skips the radius refinement, so the iteration
        runs at exactly the stated r_k on its aligned grid.
    tol : float
        Residual certification tolerance.
    h, max_steps, margin
        Grid spacing, Newton cap, Dirichlet margin.
    pin_radius : bool
        Refine r_k to the critical radius of the fixed polish grid
        before iterating. Without this the start point is offset along
        the near-null ring-translation mode and the line search decays
        into a crawl for larger k.

    Returns
    -------
    CertifiedSolution

    Raises
    ------
    ValidationError
        When ``phi`` does not hold one value per grid cell.
    ConvergenceError
        When step damping is exhausted or the cap is hit.
    NumericalError
        When the converged field is not positive everywhere.

    Notes
    -----
    With a = 0 the continuum problem is translation invariant and the
    polar grid breaks that symmetry with a secular O(h^2) truncation
    force, so the discrete system has no solution near the ansatz and
    residuals below that floor are unreachable (measured at k = 1:
    about 1e-3 at h = 0.3, 4.5e-4 at h = 0.2, 2.6e-4 at h = 0.15).
    Pick tol at or above the floor for that degenerate case; the
    iteration then certifies in one or two steps.
    """
    ctx = build_reduction_context(profile, potential, k, r_k, h=h, margin=margin)
    r_used = float(r_k)
    if phi is None:
        pinned = None
        if pin_radius:
            pinned = _pin_critical_radius(ctx, r_used, min(tol, 1e-8))
        if pinned is not None:
            r_used, ctx, corr = pinned
        else:
            corr, _ = _solve_with_rescue(ctx, tol=min(tol, 1e-8))
        phi = corr.phi
    else:
        phi = np.asarray(phi, dtype=float).reshape(-1)
        if phi.size != ctx.grid.n_cells:
            raise ValidationError(
                f"phi holds {phi.size} values; the grid at r={r_used} has "
                f"{ctx.grid.n_cells} cells"
            )

    w = ctx.weights
    p = ctx.exponent

    def residual(u):
        return pde_residual(ctx.grid, u, ctx.gram, p)

    def res_norm(u):
        return residual(u)[1]

    z_soft = ctx.constraint.z_direction

    def slide(u, rn):
        """Minimize the residual along the bump-translation direction.

        The assembled Jacobian is nearly singular along z = dW/dr (the
        soft ring mode; exactly singular up to grid pinning once a = 0),
        so this one scalar minimization does the work Newton cannot:
        it parks the iterate at the equilibrium of the soft mode.
        """
        lo, hi = -0.15, 0.15
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = res_norm(u + x1 * z_soft)
        f2 = res_norm(u + x2 * z_soft)
        for _ in range(24):
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = res_norm(u + x1 * z_soft)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = res_norm(u + x2 * z_soft)
        s, fs = (x1, f1) if f1 < f2 else (x2, f2)
        return u + s * z_soft if fs < rn else u

    u = ctx.w_ansatz + phi
    res, rn = residual(u)
    steps = 0
    inv_w = sp.diags(1.0 / w)
    mass = sp.diags(w)
    while rn > tol:
        if steps >= max_steps:
            raise ConvergenceError(
                "newton polish did not certify within the step cap",
                iterations=steps,
                residual=rn,
            )
        jac = (ctx.gram - sp.diags(w * p * np.abs(u) ** (p - 1.0))).tocsr()
        delta = splu(jac.tocsc()).solve(-res)
        alpha = 1.0
        accepted = False
        while alpha >= 0.25:
            trial = u + alpha * delta
            res_trial, rn_trial = residual(trial)
            if rn_trial < (1.0 - 1e-4 * alpha) * rn:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # Plain steps are being strangled, which happens when the
            # linearization has a near-null mode (ring translation, or
            # plain translation once a = 0 removes the potential).
            # Damp the system itself instead of the step; the squared
            # form keeps the shift away from the negative eigenvalue.
            normal = jac @ inv_w @ jac
            rhs = -(jac @ (res / w))
            mu = 1e-4
            while mu < 1e8:
                delta = splu((normal + mu * mass).tocsc()).solve(rhs)
                trial = u + delta
                res_trial, rn_trial = residual(trial)
                if rn_trial < rn:
                    accepted = True
                    break
                mu *= 4.0
        if not accepted:
            raise ConvergenceError(
                "newton step damping exhausted before certification",
                iterations=steps,
                residual=rn,
            )
        u, res, rn = trial, res_trial, rn_trial
        steps += 1
        if rn > tol:
            # A Newton step leaves mostly soft-mode residual behind;
            # the slide removes it without another factorization.
            u = slide(u, rn)
            res, rn = residual(u)

    u_min = float(u.min())
    if u_min <= 0.0:
        flat_index = int(np.argmin(u))
        i, j = divmod(flat_index, ctx.grid.n_theta)
        raise NumericalError(
            "certified field is not positive: min %.3e at rho=%.3f theta=%.4f"
            % (u_min, ctx.grid.rho[i], ctx.grid.theta[j])
        )
    ring_index = int(np.argmin(np.abs(ctx.grid.rho - r_used)))
    ring = u.reshape(ctx.grid.n_rho, ctx.grid.n_theta)[ring_index]
    nonradiality = float((ring.max() - ring.min()) / ring.max())
    return CertifiedSolution(
        u=u,
        grid=ctx.grid,
        residual_norm=rn,
        min_value=u_min,
        nonradiality=nonradiality,
        k=ctx.k,
        r_k=r_used,
        steps=steps,
        energy=energy_functional(ctx.grid, u, ctx.gram, ctx.exponent),
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


def _study_row(profile, potential, k, curve, beta, h, n_samples, seed, tol,
               constants, law, margin, radius_k1):
    """One study row; ``curve`` is the in-window curve of k, or None to search."""
    if k == 1:
        ctx = build_reduction_context(profile, potential, 1, radius_k1, h=h,
                                      margin=margin)
        corr, _ = _solve_with_rescue(ctx, tol=tol)
        rep = riesz_lk(ctx)
        rho = coercivity_probe(ctx, seed=seed)
        f_val = energy_functional(ctx.grid, ctx.w_ansatz + corr.phi, ctx.gram,
                                  ctx.exponent)
        return StudyRow(
            k=1,
            r_k=radius_k1,
            normalized=math.nan,
            phi_norm=corr.norm,
            l_norm=rep.norm,
            rho_hat=rho,
            f_over_k=f_val,
            interior=True,
        )
    if curve is None:
        curve = maximize_reduced_energy(
            profile,
            potential,
            k,
            n_samples=n_samples,
            constants=constants,
            law=law,
            beta=beta,
            h=h,
            tol=tol,
            margin=margin,
        )
    ctx = build_reduction_context(profile, potential, k, curve.r_max, h=h, margin=margin)
    corr, _ = _solve_with_rescue(ctx, tol=tol)
    rep = riesz_lk(ctx)
    rho = coercivity_probe(ctx, seed=seed)
    return StudyRow(
        k=k,
        r_k=curve.r_max,
        normalized=curve.normalized,
        phi_norm=corr.norm,
        l_norm=rep.norm,
        rho_hat=rho,
        f_over_k=curve.f_max / k,
        interior=curve.interior,
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
        Worker processes; rows are computed independently and merged
        by k, so the output is identical for any job count.
    radius_k1 : float
        Ring radius of the k = 1 row.
    curves : mapping of int to ReducedEnergyCurve, optional
        In-window curves (``maximize_reduced_energy`` with the same
        window, grid and scan settings) for some or all k; their
        search is skipped, the other k are searched here.

    Returns
    -------
    StudyTable
    """
    ks = [int(k) for k in ks]
    if ks != sorted(ks) or len(set(ks)) != len(ks):
        raise ValidationError(f"k ladder must be strictly increasing, got {ks}")
    curves = dict(curves or {})
    for k, curve in curves.items():
        if curve.k != k:
            raise ValidationError(f"curve for k={curve.k} supplied under k={k}")
        _require_in_window(curve)
    if constants is None:
        constants = expansion_constants(profile, potential)
    if law is None and any(k >= 2 for k in ks):
        law = _fit_default_law(profile)
    args = [
        (profile, potential, k, curves.get(k), beta, h, n_samples, seed, tol,
         constants, law, margin, radius_k1)
        for k in ks
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_study_row_remote, args))
    else:
        rows = [_study_row(*a) for a in args]
    rows.sort(key=lambda row: row.k)
    return StudyTable(rows=tuple(rows), decay_power=potential.m)
