"""Ring geometry of the k-bump ansatz and the algebraic potential.

Bumps sit at the vertices of a regular k-gon of radius r in the plane,

    x_j = r (cos(2(j-1)pi/k), sin(2(j-1)pi/k)),  j = 1..k,

and the ansatz W_r is the sum of ground-state copies centered there.
The admissible radius window S_k = [(m/2pi - beta) k ln k,
(m/2pi + beta) k ln k] is where the potential pull and the neighbour
repulsion balance.  Z_1 is the derivative of the first bump with respect
to the ring radius, the direction the reduction constrains away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential V(rho) = 1 + a (1 + rho^2)^(-m/2).

    The far field is V = 1 + a rho^-m + O(rho^-(m+2)), the algebraic
    class the expansion needs, with V0 normalized to 1.
    """

    a: float = 1.0
    m: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.m)):
            raise ValidationError(
                f"potential parameters must be finite, got a={self.a}, m={self.m}"
            )
        if self.a < 0.0:
            raise ValidationError(f"potential amplitude a must be >= 0, got {self.a}")
        if self.m <= 1.0:
            raise ValidationError(f"potential decay m must exceed 1, got {self.m}")

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = 1.0 + self.a * (1.0 + rho**2) ** (-self.m / 2.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class AdmissibleInterval:
    """Radius window S_k for a given bump count."""

    k: int
    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


def admissible_radii(k: int, m: float, beta: float = 0.1) -> AdmissibleInterval:
    """Window [(m/2pi - beta) k ln k, (m/2pi + beta) k ln k].

    beta = 0 degenerates to the single point (m/2pi) k ln k; beta must
    stay below m/2pi so the window keeps positive radii.
    """
    if k < 2:
        raise ValidationError(f"need at least 2 bumps for a ring, got k={k}")
    if beta < 0.0 or beta >= m / (2.0 * np.pi):
        raise ValidationError(
            f"beta must lie in [0, m/2pi) = [0, {m / (2 * np.pi):.6f}), got {beta}"
        )
    scale = k * np.log(k)
    center = m / (2.0 * np.pi)
    return AdmissibleInterval(k=k, lower=(center - beta) * scale,
                              upper=(center + beta) * scale)


@dataclass(frozen=True, eq=False)
class BumpConfiguration:
    """k bump centers on the ring of radius r."""

    k: int
    r: float
    centers: np.ndarray


def place_bumps(k: int, r: float) -> BumpConfiguration:
    """Vertices of the regular k-gon of radius r, first on the positive axis."""
    if k < 1:
        raise ValidationError(f"bump count must be positive, got {k}")
    if r <= 0.0:
        raise ValidationError(f"ring radius must be positive, got {r}")
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = r * np.column_stack([np.cos(angles), np.sin(angles)])
    return BumpConfiguration(k=k, r=float(r), centers=centers)


def correction_window(k: int, m: float) -> AdmissibleInterval:
    """The widest window, beta = 0.95 m/2pi: the correction accepts radii
    in it, and the continuation past the edge and the polish stay in it."""
    return admissible_radii(k, m, beta=0.95 * m / (2.0 * np.pi))


def _offsets(config: BumpConfiguration, points):
    """Yield (x_j, y - x_j, |y - x_j|) at points (n, 2) for each bump j."""
    for c in config.centers:
        diff = points - c
        yield c, diff, np.hypot(diff[:, 0], diff[:, 1])


def bump_terms(config: BumpConfiguration, profile, points):
    """Yield (U_j, Z_j) at points (n, 2) for each bump j of the ring.

    U_j = U(|y - x_j|) and Z_j = dU_j/dr = -U'(|y - x_j|)
    <(y - x_j)/|y - x_j|, x_j/r>, both from one ``profile.evaluate``
    lookup; the removable 0/0 at a center evaluates to 0 since U'(0) = 0.
    W_r is the sum of the U_j and Z = dW_r/dr the sum of the Z_j.
    """
    for c, diff, dist in _offsets(config, points):
        u_j, du_j = profile.evaluate(dist)
        safe = np.where(dist > 1e-14, dist, 1.0)
        cosine = (diff @ (c / config.r)) / safe
        yield u_j, np.where(dist > 1e-14, -du_j * cosine, 0.0)


def eval_ansatz(config: BumpConfiguration, profile, points) -> np.ndarray:
    """W_r = sum of profile copies at the bump centers, at points (..., 2).

    The same U_j as ``bump_terms``, without the derivative lookup.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    total = sum(profile(dist) for _, _, dist in _offsets(config, pts))
    return total if np.asarray(points).ndim > 1 else float(total[0])


def eval_z1(config: BumpConfiguration, profile, points) -> np.ndarray:
    """Z_1, the derivative of the first bump with respect to the ring radius."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _, out = next(bump_terms(config, profile, pts))
    return out if np.asarray(points).ndim > 1 else float(out[0])
