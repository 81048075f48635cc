"""Configuration-driven pipeline runner.

Subcommands mirror the stages: ground-state, constants, interaction,
expansion, reduce, study, certify, report, plus all. Every stage can be
run on its own against the same output directory; the manifest is
updated incrementally and records a content hash for each artifact.

Determinism contract: no wall-clock anywhere, the eigenvalue probe seed
comes from the config and is recorded in the manifest, and repeated
runs with an identical config produce bit-identical outputs.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .driver import (
    extend_past_edge,
    maximize_reduced_energy,
    polish_and_certify,
    scaling_study,
)
from .errors import (
    BracketError,
    ContractionError,
    ConvergenceError,
    NumericalError,
    ValidationError,
)
from .geometry import PotentialSpec, admissible_radii
from .groundstate import expansion_constants, radial_integral, solve_ground_state
from .interactions import (
    FIT_RANGE,
    expansion_comparison,
    fit_interaction_law,
    fit_separations,
    interaction_integral,
)

STAGES = (
    "ground-state",
    "constants",
    "interaction",
    "expansion",
    "reduce",
    "study",
    "certify",
    "report",
)


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; every field has a desk-scale default.

    Key names carry their units: tolerances suffixed _h1v are absolute
    H^1_V norms, _residual is the weighted L2 residual of the assembled
    equation, lengths are in the units of the rescaled equation.
    """

    dimension: int = 2
    exponent: float = 3.0
    amplitude: float = 1.0
    decay_power: float = 2.0
    window_beta: float = 0.1
    k_values: tuple = (6, 8)
    grid_step: float = 0.1
    wall_margin: float = 15.0
    correction_tol_h1v: float = 1e-8
    certify_tol_residual: float = 1e-6
    curve_samples: int = 11
    fit_d_min: float = FIT_RANGE[0]
    fit_d_max: float = FIT_RANGE[1]
    fit_d_step: float = FIT_RANGE[2]
    radius_k1: float = 10.0
    probe_seed: int = 0
    output_dir: str = "multibump_out"

    def __post_init__(self):
        """Check every field, however the config was built.

        ``from_mapping`` and direct construction share this one check.
        Numbers must be finite, integers integral, and a bool is never
        read as a number; the values are then normalized (ints, floats,
        ``k_values`` as a tuple) and held to ``problems()``.

        Raises
        ------
        ValidationError
            With every problem listed, one per line.
        """
        errors = []
        for f in fields(self):
            raw = getattr(self, f.name)
            try:
                if f.name == "k_values":
                    value = tuple(_finite_number(v, integral=True) for v in raw)
                elif f.name == "output_dir":
                    value = str(raw)
                elif f.name in ("dimension", "curve_samples", "probe_seed"):
                    value = _finite_number(raw, integral=True)
                else:
                    value = _finite_number(raw, integral=False)
            except (TypeError, ValueError):
                errors.append(f"{f.name}: cannot interpret {raw!r}")
                continue
            object.__setattr__(self, f.name, value)
        if errors:
            raise ValidationError("; ".join(errors))
        problems = self.problems()
        if problems:
            raise ValidationError("; ".join(problems))

    @classmethod
    def from_mapping(cls, data):
        """Build a config from a parsed JSON object.

        Raises
        ------
        ValidationError
            With every problem listed, one per line, when any key is
            unknown or its value fails the checks of ``__post_init__``.
        """
        known = {f.name for f in fields(cls)}
        errors = [f"{key}: unknown key" for key in data if key not in known]
        try:
            cfg = cls(**{key: raw for key, raw in data.items() if key in known})
        except ValidationError as exc:
            errors.append(str(exc))
        if errors:
            raise ValidationError("; ".join(errors))
        return cfg

    def problems(self):
        """All precondition violations, as printable strings."""
        out = []
        n, p = self.dimension, self.exponent
        if n < 1:
            out.append(f"dimension: must be >= 1, got {n}")
        if not p > 1.0:
            out.append(f"exponent: must be > 1, got {p}")
        if n >= 3 and p >= (n + 2.0) / (n - 2.0):
            out.append(
                f"exponent: p = {p:g} is supercritical for dimension {n}, "
                f"the subcritical rule p < (N+2)/(N-2) = {(n + 2.0) / (n - 2.0):g} "
                "is required for a decaying ground state"
            )
        if self.amplitude < 0.0:
            out.append(f"amplitude: must be >= 0, got {self.amplitude}")
        if not self.decay_power > 1.0:
            out.append(f"decay_power: must be > 1, got {self.decay_power}")
        if not 0.0 < self.window_beta < self.decay_power / (2.0 * math.pi):
            out.append(
                f"window_beta: must lie in (0, m/(2 pi)) = "
                f"(0, {self.decay_power / (2.0 * math.pi):.6f}), got {self.window_beta}"
            )
        if not self.k_values:
            out.append("k_values: must be nonempty")
        elif any(k < 1 for k in self.k_values):
            out.append(f"k_values: bump counts must be >= 1, got {list(self.k_values)}")
        elif list(self.k_values) != sorted(set(self.k_values)):
            out.append(
                f"k_values: must be strictly increasing, got {list(self.k_values)}"
            )
        if not 0.0 < self.grid_step <= 0.5:
            out.append(f"grid_step: must lie in (0, 0.5], got {self.grid_step}")
        if self.wall_margin < 15.0:
            out.append(
                f"wall_margin: must be >= 15 so the Dirichlet wall sits in the "
                f"tail, got {self.wall_margin}"
            )
        if not self.correction_tol_h1v > 0.0:
            out.append("correction_tol_h1v: must be positive")
        if not self.certify_tol_residual > 0.0:
            out.append("certify_tol_residual: must be positive")
        if self.curve_samples < 9:
            out.append(
                f"curve_samples: need >= 9 to resolve the window, got "
                f"{self.curve_samples}"
            )
        if not 0.0 < self.fit_d_min < self.fit_d_max:
            out.append("fit range: need 0 < fit_d_min < fit_d_max")
        if not self.fit_d_step > 0.0:
            out.append("fit_d_step: must be positive")
        elif (self.fit_d_max - self.fit_d_min) / self.fit_d_step < 3.0:
            out.append("fit range: need at least 4 separation samples for the fit")
        if not self.radius_k1 > 0.0:
            out.append(f"radius_k1: must be positive, got {self.radius_k1}")
        if self.probe_seed < 0:
            out.append(f"probe_seed: must be >= 0, got {self.probe_seed}")
        return out

    def to_mapping(self):
        """Plain dict that feeds back through from_mapping unchanged."""
        return dict(asdict(self), k_values=list(self.k_values))

    def potential(self):
        return PotentialSpec(a=self.amplitude, m=self.decay_power)


def _finite_number(raw, integral):
    """raw as a finite float, or as an int when ``integral``; ValueError otherwise."""
    if isinstance(raw, bool):
        raise ValueError(raw)
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    if integral:
        if int(value) != raw:
            raise ValueError(raw)
        return int(value)
    return value


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    return RunConfig.from_mapping(data)


# -- manifest ---------------------------------------------------------------


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_manifest(out_dir):
    path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {"stages": {}, "hashes": {}}


def _save_manifest(out_dir, cfg, manifest):
    manifest["package_version"] = __version__
    manifest["config"] = cfg.to_mapping()
    manifest["seeds"] = {"probe_seed": cfg.probe_seed}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record(manifest, out_dir, stage, artifacts):
    for name in artifacts:
        manifest["hashes"][name] = _sha256(os.path.join(out_dir, name))
    manifest["stages"][stage] = {"status": "ok", "artifacts": sorted(artifacts)}


def _write_json(out_dir, name, payload):
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- stage implementations ----------------------------------------------------

# Stages that place bumps on a ring in the plane; the profile and the
# constants stages work in any dimension.
RING_STAGES = ("expansion", "reduce", "study", "certify")


class RunInputs:
    """Inputs the stages of one invocation share, each computed on first use.

    Holds the ground state, the expansion constants, the fitted pair
    law with its samples and the in-window reduced-energy curve of each
    k, so a pipeline run computes each of them once and a single stage
    does exactly the work it needs.  Grid contexts and their Gram
    solvers are not kept: no two stages use the same one.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.potential = cfg.potential()
        self.curves = {}

    @functools.cached_property
    def profile(self):
        return solve_ground_state(self.cfg.dimension, self.cfg.exponent)

    @functools.cached_property
    def constants(self):
        return expansion_constants(self.profile, self.potential)

    @functools.cached_property
    def fit(self):
        """(law, samples): the fitted pair law and its (d, Psi(d)) samples."""
        cfg = self.cfg
        seps = fit_separations(cfg.fit_d_min, cfg.fit_d_max, cfg.fit_d_step)
        samples = [(float(d), interaction_integral(self.profile, float(d)))
                   for d in seps]
        return fit_interaction_law(samples), samples

    @property
    def law(self):
        return self.fit[0]

    def curve(self, k):
        """In-window reduced-energy curve of k >= 2."""
        if k not in self.curves:
            cfg = self.cfg
            self.curves[k] = maximize_reduced_energy(
                self.profile,
                self.potential,
                k,
                n_samples=cfg.curve_samples,
                constants=self.constants,
                law=self.law,
                beta=cfg.window_beta,
                h=cfg.grid_step,
                tol=cfg.correction_tol_h1v,
                margin=cfg.wall_margin,
            )
        return self.curves[k]


def _stage_ground_state(inputs, out_dir):
    profile = inputs.profile
    profile.to_csv(os.path.join(out_dir, "ground_state.csv"))
    _write_json(out_dir, "ground_state.json", {
        "dimension": profile.dimension,
        "exponent": profile.exponent,
        "u0": profile.u0,
        "far_field_amplitude": profile.far_field_amplitude,
        "residual": profile.residual,
    })
    return ["ground_state.csv", "ground_state.json"]


def _stage_constants(inputs, out_dir):
    profile, consts = inputs.profile, inputs.constants
    _write_json(out_dir, "constants.json", {
        "A": consts.A,
        "B1": consts.B1,
        "u0": profile.u0,
        "int_U_sq": radial_integral(profile, 2.0),
        "int_U_p1": radial_integral(profile, profile.exponent + 1.0),
    })
    return ["constants.json"]


def _stage_interaction(inputs, out_dir):
    law, samples = inputs.fit
    with open(os.path.join(out_dir, "interaction.csv"), "w") as fh:
        fh.write("d,psi\n")
        for d, psi in samples:
            fh.write("%.12e,%.12e\n" % (d, psi))
    _write_json(out_dir, "interaction.json", {
        "amplitude": law.amplitude,
        "lam": law.lam,
        "nu": law.nu,
        "d_min": law.d_min,
        "d_max": law.d_max,
        "fit_residual": law.residual,
    })
    return ["interaction.csv", "interaction.json"]


def _stage_expansion(inputs, out_dir):
    cfg = inputs.cfg
    table = expansion_comparison(
        inputs.profile,
        inputs.potential,
        cfg.k_values,
        law=inputs.law,
        beta=cfg.window_beta,
        h=cfg.grid_step,
        margin=cfg.wall_margin,
    )
    with open(os.path.join(out_dir, "expansion.csv"), "w") as fh:
        fh.write(table.to_csv())
    return ["expansion.csv"]


def _stage_reduce(inputs, out_dir):
    artifacts = []
    summary = {}
    for k in inputs.cfg.k_values:
        if k < 2:
            summary[str(k)] = {
                "note": "no admissible window for a single bump; "
                "the reduced energy is radius independent"
            }
            continue
        curve = inputs.curve(k)
        name = f"f_curve_k{k}.csv"
        curve.to_csv(os.path.join(out_dir, name))
        artifacts.append(name)
        summary[str(k)] = {
            "r_max": curve.r_max,
            "f_max": curve.f_max,
            "interior": curve.interior,
            "normalized": curve.normalized,
            "window_lower": curve.lower,
            "window_upper": curve.upper,
            "failed_radii": list(curve.failed_radii),
        }
    _write_json(out_dir, "reduce.json", summary)
    artifacts.append("reduce.json")
    return artifacts


def _stage_study(inputs, out_dir, jobs=1):
    cfg = inputs.cfg
    # Curves an earlier stage of this run found are reused; the study
    # searches the others itself, in its worker pool.
    table = scaling_study(
        inputs.profile,
        inputs.potential,
        cfg.k_values,
        constants=inputs.constants,
        law=inputs.law,
        beta=cfg.window_beta,
        h=cfg.grid_step,
        n_samples=cfg.curve_samples,
        seed=cfg.probe_seed,
        tol=cfg.correction_tol_h1v,
        jobs=jobs,
        margin=cfg.wall_margin,
        radius_k1=cfg.radius_k1,
        curves=inputs.curves,
    )
    table.to_csv(os.path.join(out_dir, "scaling.csv"))
    return ["scaling.csv"]


def _stage_certify(inputs, out_dir):
    cfg = inputs.cfg
    artifacts = []
    for k in cfg.k_values:
        if k < 2:
            # One bump off the origin is no solution: A + B1/r^m falls with r.
            continue
        r_start = extend_past_edge(inputs.curve(k)).r_max
        cert = polish_and_certify(
            inputs.profile,
            inputs.potential,
            k,
            r_start,
            tol=cfg.certify_tol_residual,
            h=cfg.grid_step,
            margin=cfg.wall_margin,
        )
        sol_name = f"solution_k{k}.csv"
        with open(os.path.join(out_dir, sol_name), "w") as fh:
            fh.write(cert.grid.to_csv(cert.u))
        cert_name = f"certificate_k{k}.json"
        payload = json.loads(cert.to_json())
        payload["r_start"] = r_start
        _write_json(out_dir, cert_name, payload)
        artifacts.extend([sol_name, cert_name])
    return artifacts


def _read_csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _stage_report(cfg, out_dir):
    """Assemble the one-page summary and plot-ready CSVs.

    Reads only artifacts from earlier stages, so it is idempotent and
    can be rerun on a finished directory.
    """
    needed = ["constants.json", "interaction.json", "expansion.csv", "scaling.csv"]
    ks = [k for k in cfg.k_values if k >= 2]
    needed += [f"f_curve_k{k}.csv" for k in ks]
    needed += [f"certificate_k{k}.json" for k in ks]
    for name in needed:
        if not os.path.exists(os.path.join(out_dir, name)):
            raise ValidationError(
                f"missing artifact: {name}; run the stage that produces it first"
            )

    with open(os.path.join(out_dir, "constants.json")) as fh:
        consts = json.load(fh)
    with open(os.path.join(out_dir, "interaction.json")) as fh:
        law = json.load(fh)
    certs = {}
    for k in ks:
        with open(os.path.join(out_dir, f"certificate_k{k}.json")) as fh:
            certs[k] = json.load(fh)

    header, rows = _read_csv_rows(os.path.join(out_dir, "scaling.csv"))
    col = {name: i for i, name in enumerate(header)}

    with open(os.path.join(out_dir, "plot_f_curves.csv"), "w") as fh:
        fh.write("k,r,f_reduced,f_asymptotic\n")
        for k in ks:
            _, crows = _read_csv_rows(os.path.join(out_dir, f"f_curve_k{k}.csv"))
            for r, f, fa in crows:
                fh.write(f"{k},{r},{f},{fa}\n")

    with open(os.path.join(out_dir, "plot_trend.csv"), "w") as fh:
        fh.write("k,r_k,normalized,gap\n")
        for row in rows:
            if int(row[col["k"]]) < 2:
                continue
            fh.write(
                f"{row[col['k']]},{row[col['r_k']]},{row[col['normalized']]},"
                f"{row[col['gap']]}\n"
            )

    rho_vals = [float(row[col["rho_hat"]]) for row in rows if int(row[col["k"]]) >= 2]
    target = cfg.decay_power / (2.0 * math.pi)
    lines = []
    lines.append("# Ring solution study\n")
    lines.append(
        f"Problem: N={cfg.dimension}, p={cfg.exponent:g}, "
        f"V = 1 + {cfg.amplitude:g}/|y|^{cfg.decay_power:g}, "
        f"k in {list(cfg.k_values)}\n"
    )
    lines.append("## Constants\n")
    lines.append(f"- single bump energy A = {consts['A']:.9f}")
    lines.append(f"- potential coefficient B1 = {consts['B1']:.9f}\n")
    lines.append("## Fitted interaction law\n")
    lines.append(
        f"- Psi(d) = {law['amplitude']:.4f} * d^(-{law['nu']:.4f}) "
        f"* exp(-{law['lam']:.6f} d), fit on d in "
        f"[{law['d_min']:g}, {law['d_max']:g}], residual {law['fit_residual']:.2e}\n"
    )
    if rho_vals:
        lines.append("## Coercivity\n")
        lines.append(
            f"- rho_hat across the ladder: min {min(rho_vals):.4f}, "
            f"max {max(rho_vals):.4f}\n"
        )
    lines.append("## Ring radii\n")
    lines.append("| k | r_k | r_k/(k ln k) | F(r_k)/k | interior |")
    lines.append("|---|-----|--------------|----------|----------|")
    for row in rows:
        kk = int(row[col["k"]])
        if kk < 2:
            continue
        lines.append(
            f"| {kk} | {float(row[col['r_k']]):.4f} "
            f"| {float(row[col['normalized']]):.4f} "
            f"| {float(row[col['f_over_k']]):.6f} "
            f"| {bool(int(row[col['interior']]))} |"
        )
    lines.append(
        f"\nTarget slope m/(2 pi) = {target:.4f}. At these k the measured "
        "reduced energy still increases at the upper window edge, so the "
        "argmax clamps there (interior False) and the normalized radius "
        "reports the edge value target + window_beta; the drift toward the "
        "target emerges only at far larger k.\n"
    )
    lines.append("## Certificates\n")
    lines.append("| k | radius | residual | steps | min u | nonradiality |")
    lines.append("|---|--------|----------|-------|-------|--------------|")
    for k in ks:
        c = certs[k]
        lines.append(
            f"| {k} | {c['r_k']:.4f} | {c['residual_norm']:.2e} | {c['steps']} "
            f"| {c['min_value']:.2e} | {c['nonradiality']:.3f} |"
        )
    lines.append("")
    with open(os.path.join(out_dir, "summary.md"), "w") as fh:
        fh.write("\n".join(lines))
    return ["plot_f_curves.csv", "plot_trend.csv", "summary.md"]


def run_stage(name, cfg, out_dir, jobs=1, inputs=None):
    """Run one stage into out_dir and return its artifact names.

    ``inputs`` is the RunInputs shared by the stages of one invocation;
    a fresh one is made when omitted.
    """
    if name in RING_STAGES and cfg.dimension != 2:
        raise ValidationError(
            f"the ring stages {list(RING_STAGES)} work in the plane only; "
            f"dimension must be 2, got {cfg.dimension}"
        )
    if inputs is None:
        inputs = RunInputs(cfg)
    if name == "ground-state":
        return _stage_ground_state(inputs, out_dir)
    if name == "constants":
        return _stage_constants(inputs, out_dir)
    if name == "interaction":
        return _stage_interaction(inputs, out_dir)
    if name == "expansion":
        return _stage_expansion(inputs, out_dir)
    if name == "reduce":
        return _stage_reduce(inputs, out_dir)
    if name == "study":
        return _stage_study(inputs, out_dir, jobs=jobs)
    if name == "certify":
        return _stage_certify(inputs, out_dir)
    if name == "report":
        return _stage_report(cfg, out_dir)
    raise ValidationError(f"unknown stage {name!r}; expected one of {list(STAGES)}")


def run_pipeline(cfg, out_dir, stages, jobs=1):
    """Run the requested stages in order, maintaining the manifest.

    The stages share one RunInputs, so the ground state, the pair law
    and each in-window curve are computed once per call.  Returns the
    process exit code; stage failures are recorded in the manifest
    under the stage name before the code is returned.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = _load_manifest(out_dir)
    inputs = RunInputs(cfg)
    for name in stages:
        try:
            artifacts = run_stage(name, cfg, out_dir, jobs=jobs, inputs=inputs)
        except ValidationError as exc:
            manifest["stages"][name] = {"status": "error", "error": str(exc)}
            _save_manifest(out_dir, cfg, manifest)
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        except (NumericalError, ConvergenceError, ContractionError,
                BracketError) as exc:
            manifest["stages"][name] = {"status": "error", "error": str(exc)}
            _save_manifest(out_dir, cfg, manifest)
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        _record(manifest, out_dir, name, artifacts)
        _save_manifest(out_dir, cfg, manifest)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="multibump",
        description="Construct and certify k-bump ring solutions of "
        "-Lap u + V u = u^p.",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the study stage")
    parser.add_argument("--stage", choices=STAGES,
                        help="run a single stage (alternative to the subcommand)")
    sub = parser.add_subparsers(dest="command")
    for name in STAGES + ("all",):
        sp = sub.add_parser(name, help=f"run the {name} stage"
                            if name != "all" else "run every stage in order")
        # SUPPRESS keeps values given before the subcommand visible.
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a JSON run configuration")
        sp.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (overrides the config)")
        sp.add_argument("--jobs", type=int, default=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    command = args.command
    if command is None:
        command = args.stage if args.stage else "all"
    elif args.stage:
        print("give either a subcommand or --stage, not both", file=sys.stderr)
        return 2
    jobs = args.jobs

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if jobs < 1:
            raise ValidationError(f"--jobs must be >= 1, got {jobs}")
    except ValidationError as exc:
        for problem in str(exc).split("; "):
            print(f"config error: {problem}", file=sys.stderr)
        return 2

    out_dir = args.out if args.out else cfg.output_dir
    stages = list(STAGES) if command == "all" else [command]
    return run_pipeline(cfg, out_dir, stages, jobs=jobs)


if __name__ == "__main__":
    sys.exit(main())
