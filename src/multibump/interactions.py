"""Pairwise bump interactions and the asymptotic energy expansion.

The reduced energy of a k-bump ring splits into a single-bump part, a
potential correction B1/r^m, and a neighbor interaction governed by

    Psi(d) = integral of U^p(y) U(y - d e1) over the whole space,

which decays like d^{-(N-1)/2} e^{-d}.  This module evaluates Psi by
quadrature, fits the decay law, and compares the resulting closed-form
energy prediction against direct grid evaluations of the ansatz energy.

Quadrature is carried out in polar coordinates centered on one bump:
the integrand is then a smooth, exponentially localized function of the
radius, the angular integral is periodic (trapezoid sums converge
spectrally), and no large Cartesian box is needed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import simpson

from .errors import ValidationError
from .geometry import admissible_radii, eval_ansatz, place_bumps
from .grid import build_aligned_sector_grid, energy_functional, gram_matrix
from .groundstate import (
    SPHERE_MEASURE,
    ExpansionConstants,
    expansion_constants,
    radial_integral,
)

__all__ = [
    "InteractionLaw",
    "SingleBumpReport",
    "ExpansionRow",
    "ExpansionTable",
    "interaction_integral",
    "fit_interaction_law",
    "fit_separations",
    "single_bump_energy_report",
    "asymptotic_energy",
    "expansion_comparison",
    "free_energy_quadrature",
    "potential_moment",
]


@dataclass(frozen=True)
class InteractionLaw:
    """Fitted decay law Psi(d) = amplitude * d^(-nu) * exp(-lam * d).

    Attributes
    ----------
    amplitude : float
        Prefactor, positive.
    lam : float
        Exponential rate; the ground state decay gives 1.
    nu : float
        Power of the polynomial prefactor; (N-1)/2 for dimension N.
    d_min, d_max : float
        Fit range.
    residual : float
        Root-mean-square misfit of ln Psi over the samples.
    """

    amplitude: float
    lam: float
    nu: float
    d_min: float
    d_max: float
    residual: float

    def predict(self, d):
        d = np.asarray(d, dtype=float)
        return self.amplitude * d ** (-self.nu) * np.exp(-self.lam * d)


def _simpson_nodes(lo, hi, target_step):
    """Even number of Simpson intervals covering [lo, hi] near target_step."""
    n = int(np.ceil((hi - lo) / target_step))
    n += n % 2
    n = max(n, 4)
    return np.linspace(lo, hi, n + 1)


def interaction_integral(profile, d):
    """Interaction integral Psi(d) between two bumps at distance d.

    Parameters
    ----------
    profile : RadialProfile
        Ground state U.
    d : float
        Center distance, d >= 0.

    Returns
    -------
    float
    """
    if d < 0.0:
        raise ValidationError(f"center distance must be nonnegative, got {d}")
    p = profile.exponent
    if d == 0.0:
        return radial_integral(profile, p + 1.0)
    dim = profile.dimension
    s_hi = d + profile.s[-1] + 5.0
    if dim == 1:
        x = _simpson_nodes(-profile.s[-1] - 5.0, s_hi, 0.02)
        vals = profile(np.abs(x)) ** p * profile(np.abs(x - d))
        return float(simpson(vals, x=x))
    s = _simpson_nodes(0.0, s_hi, 0.025)
    us_p = profile(s) ** p
    if dim == 2:
        # The 256-angle trapezoid sum over [0, 2 pi), folded onto [0, pi]
        # by the evenness of the integrand in w: the ends count once.
        n_w = 256
        w = 2.0 * np.pi * np.arange(n_w // 2 + 1) / n_w
        dist = np.sqrt(
            s[:, None] ** 2 + d * d - 2.0 * d * s[:, None] * np.cos(w)[None, :]
        )
        u = profile(dist)
        ang = (2.0 * u.sum(axis=1) - u[:, 0] - u[:, -1]) * (2.0 * np.pi / n_w)
        return float(simpson(us_p * ang * s, x=s))
    if dim == 3:
        nodes, weights = leggauss(48)
        dist = np.sqrt(
            s[:, None] ** 2 + d * d - 2.0 * d * s[:, None] * nodes[None, :]
        )
        ang = profile(dist) @ weights
        return float(2.0 * np.pi * simpson(us_p * ang * s * s, x=s))
    raise ValidationError(f"unsupported dimension {dim}")


# (first, last, step) of the separations the pair law is fitted on: the
# run config's defaults and the fit made where a caller gives no law.
FIT_RANGE = (8.0, 16.0, 2.0)


def fit_separations(d_min, d_max, d_step):
    """The separations d_min, d_min + d_step, ... up to d_max."""
    return np.arange(d_min, d_max + 0.5 * d_step, d_step)


def fit_interaction_law(samples):
    """Least-squares fit of ln Psi = ln B - nu ln d - lam d.

    Parameters
    ----------
    samples : sequence of (d, psi) pairs
        At least 4 pairs with strictly increasing positive d and
        positive psi.

    Returns
    -------
    InteractionLaw
    """
    samples = [(float(d), float(v)) for d, v in samples]
    if len(samples) < 4:
        raise ValidationError(
            f"need at least 4 samples to fit a 3-parameter law, got {len(samples)}"
        )
    ds = np.array([s[0] for s in samples])
    vs = np.array([s[1] for s in samples])
    if np.any(ds <= 0.0) or np.any(np.diff(ds) <= 0.0):
        raise ValidationError("distances must be positive and strictly increasing")
    if np.any(vs <= 0.0):
        raise ValidationError("interaction values must be positive")
    design = np.column_stack([np.ones_like(ds), np.log(ds), ds])
    rhs = np.log(vs)
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 3:
        raise ValidationError("degenerate sample set: design matrix is rank-deficient")
    fit_resid = float(np.sqrt(np.mean((design @ coef - rhs) ** 2)))
    return InteractionLaw(
        amplitude=float(np.exp(coef[0])),
        nu=float(-coef[1]),
        lam=float(-coef[2]),
        d_min=float(ds[0]),
        d_max=float(ds[-1]),
        residual=fit_resid,
    )


def _angular_nodes(dim, n_w):
    """Quadrature nodes/weights for the angle between y and a fixed axis.

    Returns cosines and weights such that sum_i f(cos_i) w_i approximates
    the integral of f(cos angle) over the unit sphere direction measure,
    including the full sphere factor.
    """
    if dim == 1:
        return np.array([1.0, -1.0]), np.array([1.0, 1.0])
    if dim == 2:
        w = 2.0 * np.pi * np.arange(n_w) / n_w
        return np.cos(w), np.full(n_w, 2.0 * np.pi / n_w)
    if dim == 3:
        nodes, weights = leggauss(n_w)
        return nodes, 2.0 * np.pi * weights
    raise ValidationError(f"unsupported dimension {dim}")


def potential_moment(profile, potential, r):
    """Integral of (V(|y|) - 1) U(y - x1)^2 over the whole space, |x1| = r.

    Computed in bump-centered polar coordinates, so the exponential decay
    of U^2 controls the domain regardless of how slowly V - 1 decays.
    """
    if r < 0.0:
        raise ValidationError(f"ring radius must be nonnegative, got {r}")
    dim = profile.dimension
    s = _simpson_nodes(0.0, profile.s[-1] + 10.0, 0.02)
    u2 = profile(s) ** 2
    cosines, weights = _angular_nodes(dim, 128)
    rho2 = s[:, None] ** 2 + r * r + 2.0 * r * s[:, None] * cosines[None, :]
    rho = np.sqrt(np.maximum(rho2, 0.0))
    vm1 = potential(rho) - 1.0
    ang = vm1 @ weights
    return float(simpson(u2 * ang * s ** (dim - 1), x=s))


def free_energy_quadrature(profile):
    """Action of the bump in the flat potential V = 1, by radial quadrature.

    Evaluates 1/2 int (|DU|^2 + U^2) - 1/(p+1) int U^{p+1} directly from
    the profile and its derivative spline.  Agrees with the constant A up
    to solver accuracy.
    """
    dim = profile.dimension
    p = profile.exponent
    s = _simpson_nodes(0.0, profile.s[-1] + 20.0, 0.01)
    du = profile.deriv(s)
    u = profile(s)
    dens = 0.5 * (du * du + u * u) - np.abs(u) ** (p + 1.0) / (p + 1.0)
    return float(SPHERE_MEASURE[dim] * simpson(dens * s ** (dim - 1), x=s))


@dataclass(eq=False)
class SingleBumpReport:
    """Energy of one bump at radius r against the A + B1/r^m prediction."""

    radii: np.ndarray
    energies: np.ndarray
    deviations: np.ndarray
    scaled_residuals: np.ndarray
    constants: ExpansionConstants

    def to_csv(self):
        buf = io.StringIO()
        buf.write("r,I_numeric,I_minus_A_minus_B1_term,scaled_residual\n")
        for r, e, d, s in zip(
            self.radii, self.energies, self.deviations, self.scaled_residuals
        ):
            buf.write(f"{r:.15e},{e:.15e},{d:.15e},{s:.15e}\n")
        return buf.getvalue()


def single_bump_energy_report(profile, potential, radii):
    """Tabulate I(U_{x1}) for |x1| = r over a ladder of radii.

    The energy splits exactly as I(U_{x1}) = I_flat(U) + (a/2-like)
    correction; both pieces are evaluated by bump-centered quadrature,
    so the comparison against A + B1/r^m isolates the true next-order
    term rather than grid error.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size == 0:
        raise ValidationError("radius ladder is empty")
    if np.any(radii < 5.0):
        raise ValidationError("radii below 5 leave the bump overlapping the origin")
    base = free_energy_quadrature(profile)
    m = potential.m
    consts = expansion_constants(profile, potential)
    energies, deviations, scaled = [], [], []
    for r in radii:
        e = base + 0.5 * potential_moment(profile, potential, r)
        dev = e - consts.A - consts.B1 / r**m
        energies.append(e)
        deviations.append(dev)
        scaled.append(dev * r**m)
    return SingleBumpReport(
        radii=radii,
        energies=np.asarray(energies),
        deviations=np.asarray(deviations),
        scaled_residuals=np.asarray(scaled),
        constants=consts,
    )


def asymptotic_energy(k, r, constants, law, m):
    """k (A + B1/r^m - Psi(2 r sin(pi/k))) with the fitted law; A + B1/r^m at k = 1.

    ``law`` is an :class:`InteractionLaw` and may be None at k = 1.
    """
    tail = constants.A + constants.B1 / r**m
    if k == 1:
        return tail
    return k * (tail - float(law.predict(2.0 * r * math.sin(math.pi / k))))


@dataclass(frozen=True)
class ExpansionRow:
    k: int
    r: float
    i_numeric: float
    i_asymptotic: float
    mismatch: float


@dataclass
class ExpansionTable:
    rows: list
    law: InteractionLaw
    constants: ExpansionConstants

    def to_csv(self):
        buf = io.StringIO()
        buf.write("k,r,I_numeric,I_asymptotic,mismatch\n")
        for row in self.rows:
            buf.write(
                f"{row.k},{row.r:.15e},{row.i_numeric:.15e},"
                f"{row.i_asymptotic:.15e},{row.mismatch:.15e}\n"
            )
        return buf.getvalue()


def ring_energy_numeric(profile, potential, k, r, h=0.1, margin=15.0):
    """Grid energy of the k-bump ansatz at radius r, Richardson improved.

    Two sector grids with spacings h and h/3 are used, each with the
    Dirichlet wall ``margin`` beyond the ring; tripling the resolution
    keeps the ring radius on a cell center, so the leading O(h^2)
    quadrature errors cancel in the extrapolation (9 I_{h/3} - I_h) / 8.
    """
    config = place_bumps(k, r)
    vals = []
    for step in (h, h / 3.0):
        g = build_aligned_sector_grid(k, r, step, margin=margin)
        w = eval_ansatz(config, profile, g.mesh().reshape(-1, 2))
        vals.append(energy_functional(g, w, gram_matrix(g, potential),
                                      profile.exponent))
    return (9.0 * vals[1] - vals[0]) / 8.0


def expansion_comparison(
    profile,
    potential,
    ks,
    law,
    beta=0.1,
    h=0.1,
    margin=15.0,
):
    """Compare numeric ring energies against the asymptotic expansion.

    For each k and each sampled r in the admissible window, the numeric
    energy of the ansatz W_r is evaluated on sector grids and compared
    with k (A + B1/r^m - Psi_law(2 r sin(pi/k))), the expansion with the
    interaction constant evaluated at the true neighbor distance through
    the fitted law.  Each window is sampled at three radii, a quarter,
    half and three quarters of the way across; k = 1 rows sit at
    r = 10 and 20.

    Parameters
    ----------
    profile, potential
        Ground state and potential.
    ks : iterable of int
        Bump counts; k = 1 rows fall back to the single-bump report.
    law : InteractionLaw
        Fitted interaction law.
    beta : float
        Window half-width parameter.
    h : float
        Base grid spacing.
    margin : float
        Distance from the ring to the Dirichlet wall of the ring grids.

    Returns
    -------
    ExpansionTable
    """
    m = potential.m
    constants = expansion_constants(profile, potential)
    rows = []
    for k in ks:
        k = int(k)
        if k == 1:
            rep = single_bump_energy_report(profile, potential, (10.0, 20.0))
            for r, e in zip(rep.radii, rep.energies):
                asym = asymptotic_energy(1, r, constants, law, m)
                rows.append(
                    ExpansionRow(
                        k=1,
                        r=float(r),
                        i_numeric=float(e),
                        i_asymptotic=float(asym),
                        mismatch=abs(e - asym) / abs(e),
                    )
                )
            continue
        window = admissible_radii(k, m, beta)
        for frac in (0.25, 0.5, 0.75):
            r = window.lower + frac * (window.upper - window.lower)
            i_num = ring_energy_numeric(profile, potential, k, r, h=h, margin=margin)
            i_asym = asymptotic_energy(k, r, constants, law, m)
            rows.append(
                ExpansionRow(
                    k=k,
                    r=float(r),
                    i_numeric=float(i_num),
                    i_asymptotic=float(i_asym),
                    mismatch=abs(i_num - i_asym) / abs(i_num),
                )
            )
    return ExpansionTable(rows=rows, law=law, constants=constants)
