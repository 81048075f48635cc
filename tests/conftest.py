"""Shared fixtures.

The ground-state solves and the scaling study are the expensive parts
of the suite, so they are session scoped and shared between the module
tests and the acceptance checks.
"""

import functools
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from multibump import (
    PotentialSpec,
    expansion_constants,
    extend_past_edge,
    fit_interaction_law,
    interaction_integral,
    maximize_reduced_energy,
    polish_and_certify,
    scaling_study,
    solve_ground_state,
)


@pytest.fixture(scope="session")
def profile1d():
    return solve_ground_state(1, 3.0)


@pytest.fixture(scope="session")
def profile2d():
    return solve_ground_state(2, 3.0)


@pytest.fixture(scope="session")
def profile3d():
    return solve_ground_state(3, 3.0)


@pytest.fixture(scope="session")
def potential():
    return PotentialSpec(a=1.0, m=2.0)


@pytest.fixture(scope="session")
def free_potential():
    return PotentialSpec(a=0.0, m=2.0)


@pytest.fixture(scope="session")
def constants2d(profile2d, potential):
    return expansion_constants(profile2d, potential)


@pytest.fixture(scope="session")
def law2d(profile2d):
    ds = [8.0, 10.0, 12.0, 14.0, 16.0]
    return fit_interaction_law(
        [(d, interaction_integral(profile2d, d)) for d in ds]
    )


LADDER = (6, 8, 10, 12)


def _pool_map(fn, items):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fn, items))


@pytest.fixture(scope="session")
def ladder_curves(profile2d, potential, constants2d, law2d):
    """In-window reduced-energy curves of the k ladder at h = 0.1.

    Searched once, on two worker processes; ``study_table`` and
    ``extended_curves`` both start from them, so every window is
    scanned once.  Returns ({k: ReducedEnergyCurve}, elapsed seconds).
    """
    search = functools.partial(
        maximize_reduced_energy,
        profile2d,
        potential,
        n_samples=11,
        constants=constants2d,
        law=law2d,
        h=0.1,
    )
    t0 = time.monotonic()
    curves = dict(zip(LADDER, _pool_map(search, LADDER)))
    return curves, time.monotonic() - t0


@pytest.fixture(scope="session")
def study_table(profile2d, potential, constants2d, law2d, ladder_curves):
    """Scaling study over the k ladder at production resolution.

    Shared by the driver tests and by acceptance criteria 5 to 7; the
    ladder solve dominates the suite runtime.  The elapsed time counts
    the curve search as well as the rows.
    """
    curves, search_s = ladder_curves
    t0 = time.monotonic()
    table = scaling_study(
        profile2d,
        potential,
        LADDER,
        constants=constants2d,
        law=law2d,
        h=0.1,
        n_samples=11,
        seed=0,
        jobs=2,
        curves=curves,
    )
    return table, search_s + time.monotonic() - t0


@pytest.fixture(scope="session")
def extended_curves(ladder_curves):
    """The ladder curves continued past the upper window edge.

    Each search goes on to the turnover of F.  Shared by acceptance
    check 7 and ``cert_k6``; returns ({k: ReducedEnergyCurve}, elapsed
    seconds), the elapsed time including the in-window search.
    """
    curves, search_s = ladder_curves
    t0 = time.monotonic()
    extended = dict(zip(LADDER, _pool_map(extend_past_edge, [curves[k] for k in LADDER])))
    return extended, search_s + time.monotonic() - t0


@pytest.fixture(scope="session")
def cert_k6(profile2d, potential, extended_curves):
    """Certified k = 6 solution started from the reduced argmax.

    The argmax search continues past the window edge to the turnover
    of F, which is where a genuine critical radius for the polish
    lives; the measured time covers the shared ladder search and its
    continuation (an upper bound on the k = 6 search alone) plus the
    polish.
    """
    curves, search_s = extended_curves
    t0 = time.monotonic()
    cert = polish_and_certify(
        profile2d, potential, 6, curves[6].r_max, tol=1e-6, h=0.1
    )
    elapsed = search_s + time.monotonic() - t0
    return cert, elapsed
