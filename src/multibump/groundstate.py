"""Ground state of the limit problem and its radial integrals.

The limit equation is the radial ODE

    -U'' - ((N-1)/s) U' + U = U^p,   U'(0) = 0,  U(s) -> 0 as s -> inf,

whose positive decreasing solution U is the building block of every
multi-bump ansatz.  U decays like c s^{-(N-1)/2} e^{-s}; the stored
profile covers [0, S_max] on a uniform grid and carries the matched
far-field amplitude c so evaluation beyond S_max follows the decay law.

The solve takes three steps.  Collocation in w = log U, q = U'/U first
estimates U(0).  A shooting bisection on U(0) follows: an adaptive RK45
trajectory from the origin crosses zero when the initial height is too
large and turns upward while still positive when it is too small; only
the midpoints near the estimate are shot, the others take their class
from it.  Pure shooting cannot carry the decaying separatrix to s = 30
in double precision (departures grow like e^{+s}), so a collocation pass
then solves the two-point problem on [0, S_max] with the far-field Robin
condition U' + (1 + (N-1)/(2s)) U = 0 at the right end, using the
shooting trajectory as the initial guess.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import RK45, cumulative_trapezoid, quad, simpson, solve_bvp, solve_ivp
from scipy.optimize import brentq
from scipy.interpolate import CubicHermiteSpline

from .errors import BracketError, ConvergenceError, ValidationError

SPHERE_MEASURE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}

# 6th order central second-difference stencil, denominator 180 h^2.
_D2_STENCIL = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])

# Points per block of the profile's spline kernel.  A block's
# temporaries stay in cache; unblocked, the kernel loses to scipy's
# PPoly on the 1881 x 256 distance arrays of the interaction integrals.
_BLOCK = 16384

# Relative half-width of the bracket that shooting confirms around the U(0)
# estimate: 4 times the largest distance, 4.8e-11 relative, between the
# estimate and the bisected U(0) at N <= 3 and 1.5 <= p <= 5.
_ESTIMATE_SLACK = 2e-10


def _check_parameters(dimension: int, exponent: float) -> None:
    if dimension not in SPHERE_MEASURE:
        raise ValidationError(f"dimension must be 1, 2 or 3, got {dimension}")
    if exponent <= 1.0:
        raise ValidationError(f"exponent must exceed 1, got {exponent}")
    if dimension >= 3 and exponent >= (dimension + 2) / (dimension - 2):
        raise ValidationError(
            f"exponent {exponent} is Sobolev-supercritical for dimension {dimension} "
            f"(needs p < {(dimension + 2) / (dimension - 2)})"
        )


def _nonlinearity(u, exponent):
    """Sign-safe |u|^(p-1) u."""
    return np.sign(u) * np.abs(u) ** exponent


def _radial_rhs(dimension, exponent):
    """First-order form (U, U')' = rhs(s, (U, U')) of the radial ODE, in Python floats."""
    exponent = float(exponent)

    def rhs(s, y):
        u, du = y.tolist()
        friction = (dimension - 1) / float(s) * du if s > 0 else 0.0
        return [du, u - math.copysign(abs(u) ** exponent, u) - friction]

    return rhs


@dataclass(eq=False)
class RadialProfile:
    """Sampled radial ground state with far-field continuation.

    Attributes
    ----------
    dimension, exponent : problem parameters N and p.
    s : uniform nodes on [0, s_max], spacing h.
    values, derivatives : U and U' at the nodes.
    far_field_amplitude : c in U ~ c s^{-(N-1)/2} e^{-s}, matched at s_max.
    residual : solver-reported ODE residual (max collocation rms).
    """

    dimension: int
    exponent: float
    s: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    far_field_amplitude: float
    residual: float = 0.0

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def u0(self) -> float:
        return float(self.values[0])

    @cached_property
    def _intervals(self):
        """Interval tables of the C^1 cubic through (s, values, derivatives).

        ``CubicHermiteSpline`` builds the power-basis coefficients, in
        the local coordinate x = s - s_i, highest order first; the
        derivative's are scipy's factors 3, 2, 1 times the leading
        three.  The bounds carry -inf and +inf at the ends, so that a
        point below s[0] lands in the first interval and s_max in the
        last, as in scipy's ``PPoly``.
        """
        steps = np.diff(self.s)
        h = (self.s[-1] - self.s[0]) / steps.size
        if not np.all(np.abs(steps - h) <= 1e-6 * h):
            raise ValidationError("profile nodes must be uniformly spaced")
        c = CubicHermiteSpline(self.s, self.values, self.derivatives).c
        lower = self.s[:-1].copy()
        lower[0] = -np.inf
        upper = self.s[1:].copy()
        upper[-1] = np.inf
        slope = c[:3] * np.array([3.0, 2.0, 1.0])[:, None]
        return 1.0 / h, lower, upper, tuple(c), tuple(slope)

    def _spline_block(self, x, u, du):
        """Write the spline's U into u and U' into du (either may be None).

        One interval lookup serves both: floor((x - s_0)/h), corrected
        by one comparison each way to s_i <= x < s_{i+1} (the nodes are
        uniform, so the estimate is off by at most one).  The terms are
        summed in ``PPoly``'s order, c3 + c2 x + c1 (x x) + c0 ((x x) x),
        so the values are bit-identical to the spline's.
        """
        inv_h, lower, upper, (c0, c1, c2, c3), (d0, d1, d2) = self._intervals
        t = (x - self.s[0]) * inv_h
        np.fmin(t, lower.size - 1, out=t)  # maps nan as well
        np.fmax(t, 0.0, out=t)
        i = t.astype(np.intp)
        i -= x < lower.take(i)
        i += x >= upper.take(i)
        dx = x - self.s.take(i)
        dx2 = dx * dx
        if u is not None:
            u[:] = c3.take(i) + c2.take(i) * dx + c1.take(i) * dx2 + c0.take(i) * (dx2 * dx)
        if du is not None:
            du[:] = d2.take(i) + d1.take(i) * dx + d0.take(i) * dx2

    def _evaluate(self, s, value, slope):
        """(U, U') at s, each None unless requested; the law beyond s_max."""
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        u = np.empty(flat.size) if value else None
        du = np.empty(flat.size) if slope else None
        for lo in range(0, flat.size, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            self._spline_block(flat[blk], None if u is None else u[blk],
                               None if du is None else du[blk])
        outside = ~(flat <= self.s_max)
        if outside.any():
            tail = flat[outside]
            law = self._law(tail)
            if value:
                u[outside] = law
            if slope:
                du[outside] = -law * (1.0 + (self.dimension - 1) / (2.0 * tail))
        return tuple(
            None if out is None else (out.reshape(s.shape) if s.ndim else float(out[0]))
            for out in (u, du)
        )

    def _law(self, s):
        n = self.dimension
        return self.far_field_amplitude * s ** (-(n - 1) / 2.0) * np.exp(-s)

    def evaluate(self, s):
        """U and U' at s (scalar or array) from one interval lookup.

        Beyond s_max both follow the far-field law.
        """
        return self._evaluate(s, True, True)

    def __call__(self, s):
        """Evaluate U at s (scalar or array), far-field law beyond s_max."""
        return self._evaluate(s, True, False)[0]

    def deriv(self, s):
        """Evaluate U' at s, far-field law beyond s_max."""
        return self._evaluate(s, False, True)[1]

    def ode_residual_fd(self) -> float:
        """Max-norm ODE residual from a 6th order difference of the samples.

        An independent consistency check: U'' is rebuilt from the stored
        values (even extension across s = 0), U' is taken from the stored
        derivative samples.  Nodes within three steps of s_max are skipped.
        It is the only check of the profile that does not depend on the solver.
        """
        u = np.concatenate([self.values[3:0:-1], self.values])
        d2 = np.convolve(u, _D2_STENCIL[::-1], mode="valid") / (180.0 * self.h**2)
        core = slice(1, len(self.values) - 3)
        s, v, dv = self.s[core], self.values[core], self.derivatives[core]
        res = -d2[core] - (self.dimension - 1) / s * dv + v - v**self.exponent
        return float(np.max(np.abs(res)))

    def validate(self) -> None:
        if not np.all(self.values > 0.0):
            raise ValidationError("profile values must be strictly positive")
        if not np.all(np.diff(self.values) < 0.0):
            raise ValidationError("profile must be strictly decreasing")
        if not self.far_field_amplitude > 0.0:
            raise ValidationError("far-field amplitude must be positive")

    def to_csv(self, path) -> None:
        buf = io.StringIO()
        buf.write("# multibump radial profile\n")
        buf.write(
            f"# dimension={self.dimension} exponent={self.exponent!r} "
            f"far_field_amplitude={self.far_field_amplitude!r} residual={self.residual!r}\n"
        )
        buf.write("s,value,derivative\n")
        for s, v, d in zip(self.s, self.values, self.derivatives):
            buf.write(f"{s:.17e},{v:.17e},{d:.17e}\n")
        with open(path, "w") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def from_csv(cls, path) -> "RadialProfile":
        with open(path) as fh:
            lines = fh.read().splitlines()
        meta = {}
        body_start = 0
        for i, line in enumerate(lines):
            if line.startswith("#"):
                for chunk in line[1:].split():
                    if "=" in chunk:
                        key, val = chunk.split("=", 1)
                        meta[key] = val
            elif line.startswith("s,"):
                body_start = i + 1
                break
        data = np.loadtxt(lines[body_start:], delimiter=",")
        return cls(
            dimension=int(meta["dimension"]),
            exponent=float(meta["exponent"]),
            s=data[:, 0],
            values=data[:, 1],
            derivatives=data[:, 2],
            far_field_amplitude=float(meta["far_field_amplitude"]),
            residual=float(meta.get("residual", 0.0)),
        )


@dataclass(frozen=True)
class ExpansionConstants:
    """Leading constants of the reduced-energy expansion.

    A is the energy of one bump at infinity, (1/2 - 1/(p+1)) * int U^{p+1};
    B1 = (a/2) * int U^2 multiplies the r^{-m} potential term.
    """

    A: float
    B1: float


def _series_start(alpha: float, s0: float, dimension: int, exponent: float):
    """Series values (U, U') at small s0 from the regular expansion at 0."""
    f = alpha - alpha**exponent
    a2 = f / (2.0 * dimension)
    a4 = a2 * (1.0 - exponent * alpha ** (exponent - 1.0)) / (4.0 * (dimension + 2.0))
    u = alpha + a2 * s0**2 + a4 * s0**4
    du = 2.0 * a2 * s0 + 4.0 * a4 * s0**3
    return u, du


def classify_trajectory(alpha: float, dimension: int, exponent: float,
                        s_end: float = 45.0) -> str:
    """Classify the shooting trajectory started at U(0) = alpha > 1.

    Returns "crosses" when U reaches zero with negative slope (alpha too
    large) and "turns" when U' vanishes while U > 0 (alpha too small).
    RK45 is stepped with ``solve_ivp``'s terminal-event rule, so steps and
    class are those of ``solve_ivp(..., events=...)``: U_old >= 0 >= U
    crosses, U'_old <= 0 <= U' turns, and when both hold the earlier
    root on the step's dense output wins, a tie going to "crosses".
    """
    s0 = 1e-3
    solver = RK45(_radial_rhs(dimension, exponent), s0,
                  _series_start(alpha, s0, dimension, exponent), s_end,
                  rtol=1e-10, atol=1e-12)
    u_old, du_old = solver.y
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            break
        u, du = solver.y
        crosses, turns = u_old >= 0.0 >= u, du_old <= 0.0 <= du
        if crosses and turns:
            dense, eps = solver.dense_output(), 4.0 * np.finfo(float).eps
            cross_s, turn_s = (brentq(lambda s, k=k: dense(s)[k], solver.t_old, solver.t,
                                      xtol=eps, rtol=eps) for k in (0, 1))
            crosses = cross_s <= turn_s
        if crosses or turns:
            return "crosses" if crosses else "turns"
        u_old, du_old = u, du
    # Ran to s_end hugging the separatrix (or the step failed): the sign
    # of the growing mode U' + U (1 + (N-1)/(2s)) says which side we are on.
    u, du = solver.y
    grow = du + u * (1.0 + (dimension - 1) / (2.0 * s_end))
    return "turns" if grow > 0 else "crosses"


def _u0_estimate(dimension: int, exponent: float, s_max: float) -> float | None:
    """U(0) by collocation in w = log U and q = U'/U, or None on failure.

    The ODE reads w' = q, q' = -q^2 - (N-1) q/s + 1 - e^{(p-1) w}, with
    q(0) = 0, the decay law q(s_max) = -1 - (N-1)/(2 s_max) and (N-1) q/s
    as ``solve_bvp``'s singular term.  The guess is the 1-D closed form's
    height times roughly U(0)'s ratio to it at 1.5 <= p <= 4, with q
    bending from the core's slope -kappa s onto the decay law.
    """
    n, p = dimension, exponent
    alpha = (1.0, 1.55, 3.0)[n - 1] * ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
    kappa = (alpha ** (p - 1.0) - 1.0) / n
    s = np.linspace(0.0, s_max, 200)
    over_law = 2.0 * s / (2.0 * s + n - 1) if n > 1 else 1.0
    q = -kappa * s / np.sqrt(1.0 + (kappa * s * over_law) ** 2)
    guess = np.vstack([np.log(alpha) + cumulative_trapezoid(q, s, initial=0.0), q])

    def rhs(x, y):
        return np.vstack([y[1], 1.0 - y[1] ** 2 - np.exp((p - 1.0) * y[0])])

    def bc(ya, yb):
        return np.array([ya[1], yb[1] + 1.0 + (n - 1) / (2.0 * s_max)])

    with np.errstate(all="ignore"):
        sol = solve_bvp(rhs, bc, s, guess, S=np.diag([0.0, 1.0 - n]), tol=1e-9,
                        max_nodes=5000)
        u0 = np.exp(sol.y[0, 0])
    return float(u0) if sol.status == 0 and np.isfinite(u0) else None


def _bisect_alpha(dimension: int, exponent: float, tol: float,
                  s_max: float) -> tuple[float, float]:
    """Bracket of width tol around U(0), by bisection on the trajectory class.

    When shooting confirms "turns" just below the estimate of U(0) and
    "crosses" just above it, a height outside that bracket takes its
    class from the estimate and only the midpoints inside it are shot;
    otherwise every height is shot.  The midpoints are the same either way.
    """
    known = (-np.inf, np.inf)
    estimate = _u0_estimate(dimension, exponent, s_max)
    if estimate is not None:
        near = (estimate * (1.0 - _ESTIMATE_SLACK), estimate * (1.0 + _ESTIMATE_SLACK))
        if [classify_trajectory(a, dimension, exponent) for a in near] == ["turns", "crosses"]:
            known = near

    def classify(alpha):
        if known[0] < alpha < known[1]:
            return classify_trajectory(alpha, dimension, exponent)
        return "turns" if alpha <= known[0] else "crosses"

    lo = 1.0 + 1e-9
    if classify(lo) != "turns":
        raise BracketError("low shooting height fails to turn upward", lo=lo)
    hi = 4.0
    while classify(hi) != "crosses":
        hi *= 2.0
        if hi > 1024.0:
            raise BracketError("no crossing trajectory found", lo=lo, hi=hi)
    while hi - lo > max(tol, 1e-13 * hi):
        mid = 0.5 * (lo + hi)
        if classify(mid) == "crosses":
            hi = mid
        else:
            lo = mid
    return lo, hi


def solve_ground_state(dimension: int, exponent: float, tol: float = 1e-10,
                       s_max: float = 30.0, h: float = 0.01) -> RadialProfile:
    """Solve for the radial ground state to the requested tolerance.

    Parameters
    ----------
    dimension : N in {1, 2, 3}.
    exponent : p > 1, Sobolev-subcritical for N = 3.
    tol : bisection width on U(0) and collocation residual target.
    s_max : extent of the stored profile, in decay lengths.
    h : spacing of the output grid.

    Returns
    -------
    RadialProfile with positive strictly decreasing values, matched
    far-field amplitude, and solver residual at most tol.
    """
    _check_parameters(dimension, exponent)
    if s_max < 10.0:
        raise ValidationError("s_max below 10 decay lengths cannot anchor the tail")

    lo, hi = _bisect_alpha(dimension, exponent, max(tol, 1e-13), s_max)
    alpha = 0.5 * (lo + hi)

    # Trace the best trajectory out to where it still tracks the separatrix,
    # then extend the initial guess with the decay law.
    s0 = 1e-3
    trace = solve_ivp(_radial_rhs(dimension, exponent), (s0, s_max),
                      _series_start(alpha, s0, dimension, exponent),
                      method="RK45", rtol=1e-10, atol=1e-12, dense_output=True)
    s_track = s_max
    samples = trace.sol(np.linspace(s0, trace.t[-1], 2000))
    bad = np.where((samples[0] < 1e-9 * alpha) | (samples[0] < 0) | (samples[1] > 0))[0]
    if bad.size:
        s_track = s0 + (trace.t[-1] - s0) * bad[0] / 1999.0
    s_track = min(s_track, trace.t[-1])

    mesh_lo = np.linspace(s0, s_track, 240)
    guess_lo = trace.sol(mesh_lo)
    c_track = guess_lo[0, -1] * s_track ** ((dimension - 1) / 2.0) * np.exp(s_track)
    mesh = np.concatenate([[0.0], mesh_lo, np.linspace(s_track, s_max, 120)[1:]])
    tail = mesh[len(mesh_lo) + 1:]
    law = c_track * tail ** (-(dimension - 1) / 2.0) * np.exp(-tail)
    guess = np.empty((2, mesh.size))
    guess[0] = np.concatenate([[alpha], guess_lo[0], law])
    guess[1] = np.concatenate([[0.0], guess_lo[1],
                               -law * (1.0 + (dimension - 1) / (2.0 * tail))])

    def bvp_rhs(x, y):
        u, du = y
        f = u - _nonlinearity(u, exponent)
        out = np.empty_like(y)
        out[0] = du
        with np.errstate(divide="ignore", invalid="ignore"):
            friction = np.where(x > 0, (dimension - 1) * du / np.where(x > 0, x, 1.0), 0.0)
        out[1] = f - friction
        at0 = x == 0.0
        if np.any(at0):
            out[1, at0] = f[at0] / dimension
        return out

    def bc(ya, yb):
        robin = yb[1] + yb[0] * (1.0 + (dimension - 1) / (2.0 * s_max))
        return np.array([ya[1], robin])

    bvp_tol = min(tol, 1e-10)
    sol = solve_bvp(bvp_rhs, bc, mesh, guess, tol=bvp_tol, max_nodes=200000)
    if sol.status != 0:
        raise ConvergenceError(f"collocation pass failed: {sol.message}")

    n = int(round(s_max / h))
    grid = np.linspace(0.0, s_max, n + 1)
    vals = sol.sol(grid)
    amplitude = vals[0, -1] * s_max ** ((dimension - 1) / 2.0) * np.exp(s_max)
    profile = RadialProfile(
        dimension=dimension,
        exponent=float(exponent),
        s=grid,
        values=vals[0],
        derivatives=vals[1],
        far_field_amplitude=float(amplitude),
        residual=float(np.max(sol.rms_residuals)),
    )
    profile.validate()
    return profile


def radial_integral(profile: RadialProfile, q: float) -> float:
    """Integral of U^q over R^N, far-field tail included.

    Simpson quadrature on the stored grid plus the exact integral of the
    decay-law tail on [s_max, inf).
    """
    if q < 1.0:
        raise ValidationError(f"power q must be at least 1, got {q}")
    n = profile.dimension
    body = simpson(profile.values**q * profile.s ** (n - 1), x=profile.s)
    if profile.far_field_amplitude > 0.0:
        law = lambda s: profile._law(s) ** q * s ** (n - 1)
        tail, _ = quad(law, profile.s_max, np.inf)
    else:
        tail = 0.0
    return float(SPHERE_MEASURE[n] * (body + tail))


def expansion_constants(profile: RadialProfile, potential) -> ExpansionConstants:
    """Constants A and B1 of the energy expansion for a given potential.

    The potential only enters through its amplitude a: A depends on the
    profile alone, B1 = (a/2) int U^2.
    """
    p = profile.exponent
    a_const = (0.5 - 1.0 / (p + 1.0)) * radial_integral(profile, p + 1.0)
    b1 = 0.5 * potential.a * radial_integral(profile, 2.0)
    return ExpansionConstants(A=float(a_const), B1=float(b1))
