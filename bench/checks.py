"""Correctness of one pass: seed-0 reference values plus invariants.

Tolerances are the ones the tests and ROADMAP already state: r_max
within 1e-3 of the window width, F and certified energies within 1e-8
relative, rho within 1e-4 relative, failed-radius sets and interior
flags identical, certificates with residual <= 1e-6, min u > 0 and
nonradiality >= 0.1.

Only the coercivity probe reads the seed, and its value does not
depend on the start vector (measured spread below 1e-11), so every
output is compared with the reference at any seed.  Fixed-radius
evaluations are also checked by invariants: an accepted correction has
residual <= tol, c(phi) ~ 0 and norm below the perturbative cap; a
refusal is a typed error; refused radii lie below accepted ones.

Each check function returns ``[(operation, [problem, ...]), ...]``; an
operation with any problem counts as failed.
"""

import math

from layers import STAGES

R_MAX_FRAC = 1e-3
F_REL = 1e-8
RHO_REL = 1e-4
CERT_RESIDUAL = 1e-6
NONRADIALITY = 0.1
CORRECTION_TOL = 1e-8
CONSTRAINT_ABS = 1e-8
PERTURBATIVE_FRACTION = 0.25
RADIUS_ABS = 1e-9
REFUSALS = ("ContractionError", "ConvergenceError")


def window_width(k, beta=0.1):
    return 2.0 * beta * k * math.log(k)


def _rel(problems, label, got, want, rel):
    if got is None or not abs(got - want) <= rel * abs(want):
        problems.append(f"{label} {got!r} vs reference {want!r} (rel {rel:g})")


def _radius(problems, label, got, want, k):
    tol = R_MAX_FRAC * window_width(k)
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{label} {got!r} vs reference {want!r} (abs {tol:.3g})")


def _same(problems, label, got, want):
    if got != want:
        problems.append(f"{label} {got!r} vs reference {want!r}")


def _same_radii(problems, label, got, want):
    if len(got) != len(want) or any(abs(a - b) > RADIUS_ABS for a, b in zip(got, want)):
        problems.append(f"{label} {got!r} vs reference {want!r}")


def _certificate(problems, cert, ref, k):
    _radius(problems, f"k={k} certified radius", cert["r_k"], ref["r_k"], k)
    _rel(problems, f"k={k} certified energy", cert["energy"], ref["energy"], F_REL)
    if not cert["residual_norm"] <= CERT_RESIDUAL:
        problems.append(f"k={k} certificate residual {cert['residual_norm']:.3e} > {CERT_RESIDUAL}")
    if not cert["min_value"] > 0.0:
        problems.append(f"k={k} certified field not positive: min {cert['min_value']!r}")
    if not cert["nonradiality"] >= NONRADIALITY:
        problems.append(f"k={k} nonradiality {cert['nonradiality']!r} < {NONRADIALITY}")


def _study_row(problems, row, ref):
    k = int(ref["k"])
    _radius(problems, f"k={k} r_k", row["r_k"], ref["r_k"], k)
    _rel(problems, f"k={k} F/k", row["f_over_k"], ref["f_over_k"], F_REL)
    _same(problems, f"k={k} interior", bool(row["interior"]), bool(ref["interior"]))
    _rel(problems, f"k={k} rho", row["rho_hat"], ref["rho_hat"], RHO_REL)


def _rows_by_k(rows):
    return {int(row["k"]): row for row in rows}


def check_pipeline(out, ref):
    ops = {stage: [] for stage in STAGES}
    for stage in STAGES:
        status = out["stages"].get(stage)
        if status != "ok":
            ops[stage].append(f"stage status {status!r} (exit code {out['rc']})")

    def present(stage, key):
        if out.get(key) is None:
            ops[stage].append(f"{key} artifact missing")
            return False
        return True

    if present("ground-state", "ground_state"):
        _rel(ops["ground-state"], "u0", out["ground_state"]["u0"],
             ref["ground_state"]["u0"], F_REL)
    if present("constants", "constants"):
        for key in ("A", "B1"):
            _rel(ops["constants"], key, out["constants"][key], ref["constants"][key], F_REL)
    if present("interaction", "interaction"):
        for key in ("amplitude", "lam", "nu"):
            _rel(ops["interaction"], key, out["interaction"][key],
                 ref["interaction"][key], F_REL)
    if present("expansion", "expansion"):
        if len(out["expansion"]) != len(ref["expansion"]):
            ops["expansion"].append("expansion row count differs")
        for i, (got, want) in enumerate(zip(out["expansion"], ref["expansion"])):
            _rel(ops["expansion"], f"ring energy row {i}", got, want, F_REL)
    if present("reduce", "reduce"):
        for key, want in ref["reduce"].items():
            got = out["reduce"].get(key)
            if got is None:
                ops["reduce"].append(f"k={key} missing")
                continue
            k = int(key)
            _radius(ops["reduce"], f"k={k} r_max", got["r_max"], want["r_max"], k)
            _rel(ops["reduce"], f"k={k} F max", got["f_max"], want["f_max"], F_REL)
            _same(ops["reduce"], f"k={k} interior", got["interior"], want["interior"])
            _same_radii(ops["reduce"], f"k={k} failed radii", got["failed_radii"],
                        want["failed_radii"])
    rows, ref_rows = _rows_by_k(out["study"]), _rows_by_k(ref["study"])
    _same(ops["study"], "study ks", sorted(rows), sorted(ref_rows))
    for k, want in ref_rows.items():
        if k in rows:
            _study_row(ops["study"], rows[k], want)
    for key, want in ref["certificates"].items():
        cert = out["certificates"].get(key)
        if cert is None:
            ops["certify"].append(f"certificate k={key} missing")
        else:
            _certificate(ops["certify"], cert, want, int(key))
    if not out["summary"]:
        ops["report"].append("summary.md missing")
    return list(ops.items())


def check_fixed(out, ref, ansatz_norm):
    """``ansatz_norm(k, r)`` gives the H1_V norm of W_r for the cap check."""
    ops = []
    by_k = {}
    ref_evals = {(e["k"], round(e["r"], 9)): e for e in ref["evals"]}
    for ev in out["evals"]:
        k, r = ev["k"], ev["r"]
        problems = []
        if "error" in ev:
            if ev["error"] not in REFUSALS:
                problems.append(f"untyped failure {ev['error']}")
        else:
            if not ev["residual"] <= CORRECTION_TOL:
                problems.append(f"correction residual {ev['residual']:.3e} > {CORRECTION_TOL}")
            if not abs(ev["constraint"]) <= CONSTRAINT_ABS:
                problems.append(f"constraint value {ev['constraint']:.3e}")
            cap = PERTURBATIVE_FRACTION * ansatz_norm(k, r)
            if not ev["phi_norm"] <= cap:
                problems.append(f"correction norm {ev['phi_norm']:.4f} above the cap {cap:.4f}")
        want = ref_evals.get((k, round(r, 9)))
        if want is None:
            problems.append("radius not in the reference")
        elif ("error" in want) != ("error" in ev):
            problems.append(
                "accepted where the reference refuses" if "error" in want
                else "refused where the reference accepts"
            )
        elif "error" not in want:
            _rel(problems, "F", ev["value"], want["value"], F_REL)
        by_k.setdefault(k, []).append((r, "error" in ev))
        ops.append((f"F k={k} r={r:.4f}", problems))
    # Refused radii must all lie below the accepted ones.
    lowest_accepted = {
        k: min((r for r, refused in items if not refused), default=math.inf)
        for k, items in by_k.items()
    }
    for i, ev in enumerate(out["evals"]):
        if "error" in ev and ev["r"] > lowest_accepted[ev["k"]]:
            ops[i][1].append("refused above an accepted radius")
    for probe, want in zip(out["probes"], ref["probes"]):
        problems = []
        if "error" in probe:
            problems.append(f"probe failed with {probe['error']}")
        else:
            _rel(problems, "rho", probe["rho"], want["rho"], RHO_REL)
            if not probe["rho"] > 0.0:
                problems.append(f"rho {probe['rho']!r} not positive")
        ops.append((f"probe k={probe['k']} r={probe['r']:.4f}", problems))
    if len(out["probes"]) != len(ref["probes"]):
        ops.append(("probes", ["probe count differs from the reference"]))
    return ops
