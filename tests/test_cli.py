"""End-to-end checks of the configuration-driven pipeline.

The pipeline runs twice into separate directories with the same light
configuration; every artifact must come out byte-identical, which is
the determinism contract the manifest advertises.
"""

import hashlib
import json
import shutil
import subprocess

import pytest

from multibump import ValidationError, cli, driver
from multibump.cli import RING_STAGES, STAGES, RunConfig, main, run_pipeline

LIGHT_CONFIG = {
    "dimension": 2,
    "exponent": 3.0,
    "k_values": [6, 8],
    "grid_step": 0.15,
    "curve_samples": 9,
}

# Certifies in seconds: one k on a coarse grid.
CHEAP_CONFIG = {"k_values": [6], "grid_step": 0.25, "curve_samples": 9}

EXPECTED_ARTIFACTS = [
    "ground_state.csv",
    "ground_state.json",
    "constants.json",
    "interaction.csv",
    "interaction.json",
    "expansion.csv",
    "f_curve_k6.csv",
    "f_curve_k8.csv",
    "reduce.json",
    "scaling.csv",
    "solution_k6.csv",
    "certificate_k6.json",
    "solution_k8.csv",
    "certificate_k8.json",
    "plot_f_curves.csv",
    "plot_trend.csv",
    "summary.md",
]


def write_config(tmp_path, mapping):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    return str(path)


def hash_tree(root):
    out = {}
    for path in sorted(root.iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_config_round_trip():
    cfg = RunConfig(k_values=(4, 7, 9), grid_step=0.2, probe_seed=3)
    assert RunConfig.from_mapping(cfg.to_mapping()) == cfg


def test_config_rejects_unknown_and_badly_typed_keys():
    with pytest.raises(ValidationError, match="unknown key"):
        RunConfig.from_mapping({"spacing": 0.1})
    with pytest.raises(ValidationError, match="cannot interpret"):
        RunConfig.from_mapping({"grid_step": "fine"})
    with pytest.raises(ValidationError, match="k_values"):
        RunConfig.from_mapping({"k_values": [6, 8.5]})


@pytest.mark.parametrize("key, raw", [
    ("amplitude", float("nan")),
    ("amplitude", float("inf")),
    ("amplitude", float("-inf")),
    ("wall_margin", float("nan")),
    ("wall_margin", float("inf")),
    ("wall_margin", float("-inf")),
    ("radius_k1", float("inf")),
    ("fit_d_max", float("inf")),
    ("decay_power", float("inf")),
    ("dimension", True),
    ("amplitude", True),
    ("k_values", [6, True]),
])
def test_config_rejects_non_finite_and_boolean_values(key, raw):
    with pytest.raises(ValidationError, match=f"{key}: cannot interpret"):
        RunConfig.from_mapping({key: raw})


@pytest.mark.parametrize("kwargs, match", [
    ({"amplitude": float("nan")}, "amplitude: cannot interpret"),
    ({"grid_step": -1.0}, r"grid_step: must lie in \(0, 0.5\]"),
])
def test_directly_built_config_is_checked(kwargs, match):
    """Building a RunConfig in code runs the checks from_mapping runs."""
    with pytest.raises(ValidationError, match=match):
        RunConfig(**kwargs)


def test_main_rejects_a_nan_amplitude(tmp_path, capsys):
    cfg = write_config(tmp_path, {"amplitude": float("nan")})
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: amplitude" in capsys.readouterr().err
    assert not (out / "constants.json").exists()


def test_config_precondition_messages():
    with pytest.raises(ValidationError, match="supercritical"):
        RunConfig.from_mapping({"dimension": 3, "exponent": 7.0})
    with pytest.raises(ValidationError, match="wall_margin"):
        RunConfig.from_mapping({"wall_margin": 10.0})
    with pytest.raises(ValidationError, match="curve_samples"):
        RunConfig.from_mapping({"curve_samples": 5})
    with pytest.raises(ValidationError, match="strictly increasing"):
        RunConfig.from_mapping({"k_values": [8, 6]})


def test_main_reports_config_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dimension": 3, "exponent": 7.0})
    assert main(["all", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "supercritical" in err


def test_main_rejects_jobs_zero(tmp_path, capsys):
    assert main(["all", "--jobs", "0", "--out", str(tmp_path)]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_main_rejects_both_stage_spellings(tmp_path, capsys):
    code = main(["--stage", "report", "report", "--out", str(tmp_path)])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_report_requires_upstream_artifacts(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "missing artifact: constants.json" in err
    # the failure is recorded in the manifest
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"]["report"]["status"] == "error"


def test_ground_state_stage_alone(tmp_path):
    out = tmp_path / "gs"
    assert main(["ground-state", "--out", str(out)]) == 0
    assert (out / "ground_state.csv").exists()
    meta = json.loads((out / "ground_state.json").read_text())
    assert meta["dimension"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"ground-state"}


def test_console_script_is_installed():
    exe = shutil.which("multibump")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(base, LIGHT_CONFIG)
    out1, out2 = base / "run1", base / "run2"
    code1 = main(["all", "--config", cfg, "--out", str(out1)])
    code2 = main(["all", "--config", cfg, "--out", str(out2)])
    return cfg, out1, out2, code1, code2


def test_pipeline_completes(pipeline_dirs):
    _, out1, _, code1, _ = pipeline_dirs
    assert code1 == 0
    for name in EXPECTED_ARTIFACTS:
        assert (out1 / name).exists(), name


def test_pipeline_manifest(pipeline_dirs):
    _, out1, _, _, _ = pipeline_dirs
    manifest = json.loads((out1 / "manifest.json").read_text())
    for name in EXPECTED_ARTIFACTS:
        assert name in manifest["hashes"], name
        digest = hashlib.sha256((out1 / name).read_bytes()).hexdigest()
        assert manifest["hashes"][name] == digest
    assert manifest["config"]["grid_step"] == 0.15
    for stage, entry in manifest["stages"].items():
        assert entry["status"] == "ok", stage


def test_pipeline_certificates(pipeline_dirs):
    _, out1, _, _, _ = pipeline_dirs
    for k in (6, 8):
        cert = json.loads((out1 / f"certificate_k{k}.json").read_text())
        assert cert["k"] == k
        assert cert["residual_norm"] <= 1e-6
        assert cert["min_value"] > 0.0
        assert cert["nonradiality"] >= 0.1


def test_pipeline_is_deterministic(pipeline_dirs):
    _, out1, out2, code1, code2 = pipeline_dirs
    assert code1 == 0 and code2 == 0
    assert hash_tree(out1) == hash_tree(out2)


def test_report_is_idempotent(pipeline_dirs, capsys):
    cfg, out1, _, _, _ = pipeline_dirs
    before = hash_tree(out1)
    assert main(["--stage", "report", "--config", cfg, "--out", str(out1)]) == 0
    capsys.readouterr()
    assert hash_tree(out1) == before


@pytest.mark.parametrize("stage", RING_STAGES)
@pytest.mark.parametrize("dimension", [1, 3])
def test_ring_stages_refuse_other_dimensions(tmp_path, capsys, stage, dimension):
    cfg = write_config(tmp_path, {"dimension": dimension})
    out = tmp_path / "out"
    assert main([stage, "--config", cfg, "--out", str(out)]) == 2
    assert f"dimension must be 2, got {dimension}" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"][stage]["status"] == "error"


@pytest.mark.parametrize("dimension", [1, 3])
def test_profile_stages_accept_other_dimensions(tmp_path, dimension):
    cfg = write_config(tmp_path, {"dimension": dimension})
    out = tmp_path / "out"
    for stage in ("ground-state", "constants"):
        assert main([stage, "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "ground_state.json").read_text())
    assert meta["dimension"] == dimension
    assert json.loads((out / "constants.json").read_text())["A"] > 0.0


def _counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


@pytest.fixture(scope="module")
def shared_runs(tmp_path_factory):
    """CHEAP_CONFIG through one `all` call, counting the work it does,
    and through one call per stage into a second directory."""
    base = tmp_path_factory.mktemp("shared")
    cfg = write_config(base, CHEAP_CONFIG)
    counts = {"ground_states": [], "fits": [], "f_evals": []}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "solve_ground_state",
                   _counting(counts["ground_states"], cli.solve_ground_state))
        mp.setattr(cli, "fit_interaction_law",
                   _counting(counts["fits"], cli.fit_interaction_law))
        mp.setattr(driver, "reduced_energy",
                   _counting(counts["f_evals"], driver.reduced_energy))
        code_all = main(["all", "--jobs", "1", "--config", cfg,
                         "--out", str(base / "all")])
    codes = [main([stage, "--config", cfg, "--out", str(base / "staged")])
             for stage in STAGES]
    return base, code_all, codes, counts


def test_stages_run_alone_match_one_pipeline_call(shared_runs):
    base, code_all, codes, _ = shared_runs
    assert code_all == 0 and codes == [0] * len(STAGES)
    assert hash_tree(base / "all") == hash_tree(base / "staged")


def test_pipeline_computes_each_input_once(shared_runs):
    _, _, _, counts = shared_runs
    assert len(counts["ground_states"]) == 1
    assert len(counts["fits"]) == 1
    radii = [(args[2], args[3]) for args in counts["f_evals"]]
    assert radii, "no reduced-energy evaluation recorded"
    assert len(set(radii)) == len(radii), "F evaluated twice at one (k, r)"


def _study_column(path, name):
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index(name)
    return [row.split(",")[col] for row in rows]


def test_wall_margin_reaches_expansion_reduce_and_study(shared_runs, tmp_path):
    base = shared_runs[0]
    cfg = RunConfig.from_mapping(dict(CHEAP_CONFIG, wall_margin=20.0))
    assert run_pipeline(cfg, str(tmp_path), ["expansion", "reduce", "study"]) == 0
    default = base / "staged"
    for name in ("expansion.csv", "f_curve_k6.csv"):
        assert (tmp_path / name).read_bytes() != (default / name).read_bytes(), name
    # phi_norm comes from the study's own context at r_k, not from the curve
    assert (_study_column(tmp_path / "scaling.csv", "phi_norm")
            != _study_column(default / "scaling.csv", "phi_norm"))


def test_radius_k1_reaches_the_single_bump_row(tmp_path):
    radii = {}
    for radius in (10.0, 12.0):
        cfg = RunConfig.from_mapping(
            {"k_values": [1], "grid_step": 0.25, "radius_k1": radius}
        )
        out = tmp_path / str(radius)
        assert run_pipeline(cfg, str(out), ["study"]) == 0
        radii[radius] = float(_study_column(out / "scaling.csv", "r_k")[0])
    assert radii == {10.0: 10.0, 12.0: 12.0}


def test_a_single_bump_in_the_ladder_is_studied_but_not_certified(tmp_path):
    """k = 1 adds a study control row; reduce and certify skip it, since a
    bump off the origin is no solution at any fixed radius."""
    cfg = RunConfig.from_mapping({"k_values": [1, 6], "grid_step": 0.25,
                                  "curve_samples": 9})
    assert run_pipeline(cfg, str(tmp_path), list(STAGES)) == 0
    assert not (tmp_path / "certificate_k1.json").exists()
    assert _study_column(tmp_path / "scaling.csv", "k") == ["1", "6"]
    summary = (tmp_path / "summary.md").read_text()
    rows = summary.split("## Certificates")[1].strip().splitlines()[2:]
    assert [row.split("|")[1].strip() for row in rows] == ["6"]
