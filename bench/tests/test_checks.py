"""The checker passes the reference itself and counts perturbed outputs as failures."""

import copy
import json
from pathlib import Path

import pytest

import checks

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "reference.json").read_text())


def failed(ops):
    return [op for op, problems in ops if problems]


def big_cap(k, r):
    return 100.0


@pytest.fixture
def pipeline():
    return copy.deepcopy(REFERENCE["pipeline-light"])


@pytest.fixture
def fixed():
    return copy.deepcopy(REFERENCE["fixed-radii"])


def test_reference_passes_its_own_checks(pipeline, fixed):
    assert failed(checks.check_pipeline(pipeline, REFERENCE["pipeline-light"])) == []
    assert failed(checks.check_fixed(fixed, REFERENCE["fixed-radii"], big_cap)) == []


def test_r_max_off_by_twice_the_tolerance_fails(pipeline):
    (key, entry), = pipeline["reduce"].items()
    tol = checks.R_MAX_FRAC * checks.window_width(int(key))
    entry["r_max"] -= 2 * tol
    assert failed(checks.check_pipeline(pipeline, REFERENCE["pipeline-light"])) == ["reduce"]
    entry["r_max"] += 1.5 * tol
    assert failed(checks.check_pipeline(pipeline, REFERENCE["pipeline-light"])) == []


def test_an_extra_failed_radius_fails(pipeline):
    (entry,) = pipeline["reduce"].values()
    entry["failed_radii"].append(entry["window_upper"])
    assert failed(checks.check_pipeline(pipeline, REFERENCE["pipeline-light"])) == ["reduce"]


def test_certificate_and_stage_failures(pipeline):
    (cert,) = pipeline["certificates"].values()
    cert["residual_norm"] = 2e-6
    pipeline["stages"]["report"] = "error"
    assert failed(checks.check_pipeline(pipeline, REFERENCE["pipeline-light"])) == [
        "certify", "report"]


def test_energy_off_by_more_than_1e8_relative_fails(pipeline):
    (cert,) = pipeline["certificates"].values()
    cert["energy"] *= 1 + 3e-8
    assert failed(checks.check_pipeline(pipeline, REFERENCE["pipeline-light"])) == ["certify"]


def test_study_rho_off_by_twice_the_tolerance_fails(pipeline):
    pipeline["study"][0]["rho_hat"] *= 1 + 2 * checks.RHO_REL
    assert failed(checks.check_pipeline(pipeline, REFERENCE["pipeline-light"])) == ["study"]


def test_refusal_where_the_reference_accepts_fails(fixed):
    i = next(i for i, e in enumerate(fixed["evals"]) if "error" not in e)
    fixed["evals"][i] = {"k": fixed["evals"][i]["k"], "r": fixed["evals"][i]["r"],
                         "error": "ContractionError"}
    ops = checks.check_fixed(fixed, REFERENCE["fixed-radii"], big_cap)
    assert len(failed(ops)) == 1


def test_untyped_failure_and_oversized_correction_fail(fixed):
    i = next(i for i, e in enumerate(fixed["evals"]) if "error" in e)
    fixed["evals"][i]["error"] = "ValueError"
    j = next(j for j, e in enumerate(fixed["evals"]) if "error" not in e)
    fixed["evals"][j]["phi_norm"] = 30.0  # above 0.25 x 100
    ops = checks.check_fixed(fixed, REFERENCE["fixed-radii"], big_cap)
    assert len(failed(ops)) == 2


def test_refusal_above_an_accepted_radius_fails(fixed):
    last = max(i for i, e in enumerate(fixed["evals"]) if e["k"] == 12)
    fixed["evals"][last] = {"k": 12, "r": fixed["evals"][last]["r"], "error": "ConvergenceError"}
    ops = checks.check_fixed(fixed, REFERENCE["fixed-radii"], big_cap)
    assert failed(ops) == [ops[last][0]]
    assert len(ops[last][1]) == 2  # refused where accepted, and above accepted radii


def test_probe_off_by_twice_the_tolerance_fails(fixed):
    fixed["probes"][0]["rho"] *= 1 + 2 * checks.RHO_REL
    assert len(failed(checks.check_fixed(fixed, REFERENCE["fixed-radii"], big_cap))) == 1
