"""Output checks for every experiment of a workload, run after the clock stops.

Each ``check_*`` function takes (experiment, its output directory, the
partner's output directory or None, the reference tables) and returns a
list of error strings; an empty list means the outputs are correct.

Oracles first: the product basis against the Dicke basis, the unitary
limit of the master equation, the closed-form collapse-revival law and the
closed-form escape kinematics.  Outputs without an oracle are compared with
``references.json``, recorded at the parent commit by record_references.py.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import JC_PROBE_PULSE_US, dc_key, oc_key

# Tolerances.  REF_ATOL admits a propagator change that keeps the physics:
# DOP853 against an exact exponential agreed to <= 1.4e-7 on these points.
PROB_SLACK = 1e-9      # round-off allowed outside [0, 1] for probabilities
ORACLE_ATOL = 1e-8     # full vs Dicke model, closed-form collapse-revival
UNITARY_ATOL = 1e-6    # master equation at gamma = 0 vs pure Dicke propagation
TRACE_ATOL = 1e-7      # the master-equation solver's own trace tolerance
REF_ATOL = 1e-6        # probabilities and infidelities vs references.json
ION_ORACLE_RTOL = 0.01     # mean escape time vs closed-form ballistic time
ION_ENERGY_MAX = 1e-3      # worst relative |KE - work| at exit
ION_TIME_RTOL = 1e-4       # escape time vs reference: a few trajectories one step late
ION_FRACTION_ATOL = 1e-4   # fraction_significant vs reference (2 of 19,800 atoms)

TWO_PI = 2.0 * math.pi
E_CHARGE = 1.602176634e-19  # C
AMU = 1.66053906892e-27  # kg


def read_csv(path: Path) -> tuple[list[str], list[list]]:
    """Header and rows; numbers as float, empty cells as None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) if v else None for v in row] for row in reader]
    return header, rows


def read_summary(out: Path) -> dict:
    with open(out / "summary.json") as fh:
        return json.load(fh)


def count_units(exp, out: Path) -> int:
    """The experiment's contribution to the workload's work count."""
    if exp.units == "scan_rows":
        return len(read_csv(out / "scan.csv")[1])
    if exp.units == "trajectory_rows":
        return len(read_csv(out / "trajectory.csv")[1])
    if exp.units == "run":
        return 1
    if exp.units == "n_trajectories":
        return int(exp.value("n_trajectories"))
    return 0


def _probabilities(label: str, values) -> list[str]:
    bad = [v for v in values if v is not None and not -PROB_SLACK <= v <= 1 + PROB_SLACK]
    return [f"{label}: {len(bad)} values outside [0, 1], e.g. {bad[0]}"] if bad else []


def _close(label: str, got, want, atol: float) -> list[str]:
    if got is None or want is None:
        return [] if got is None and want is None else [f"{label}: {got} vs {want}"]
    return [] if abs(got - want) <= atol else [f"{label}: {got} vs {want} (atol {atol})"]


def _columns(path: Path, skip=("time_us", "infidelity")) -> dict[str, list]:
    header, rows = read_csv(path)
    return {h: [r[i] for r in rows] for i, h in enumerate(header) if h not in skip}


def check_trajectory_range(exp, out, partner, refs) -> list[str]:
    errors = []
    for name, col in _columns(out / "trajectory.csv", skip=("time_us",)).items():
        errors += _probabilities(f"{exp.label} {name}", col)
    res = read_summary(out)["results"]
    errors += _probabilities(f"{exp.label} summary",
                             [res["success_probability"], res["infidelity"]])
    return errors


def _scan_rows(exp, out, refs_by_key, key_of) -> list[str]:
    _, rows = read_csv(out / "scan.csv")
    errors = _probabilities(f"{exp.label} success/infidelity",
                            [v for r in rows for v in r[1:3]])
    for x, success, infid, *_ in rows:
        key = key_of(x)
        ref = refs_by_key.get(key)
        if ref is None:
            errors.append(f"{exp.label}: no reference for grid point {x}")
            continue
        errors += _close(f"{exp.label} success at {x}", success, ref[0], REF_ATOL)
        errors += _close(f"{exp.label} infidelity at {x}", infid, ref[1], REF_ATOL)
    return errors


def check_scan_dc(exp, out, partner, refs) -> list[str]:
    errors = _scan_rows(exp, out, refs["scan_dc_n3"], dc_key)
    minimum = read_summary(out)["results"]["minimum"]
    return errors + _probabilities(f"{exp.label} minimum", [minimum["infidelity"]])


def check_scan_oc(exp, out, partner, refs) -> list[str]:
    return _scan_rows(exp, out, refs["scan_oc"][exp.value("n_atoms")], oc_key)


def check_scan_n(exp, out, partner, refs) -> list[str]:
    _, rows = read_csv(out / "scan.csv")
    errors = _probabilities(f"{exp.label} weight/success/infidelity",
                            [v for r in rows for v in r[1:4]])
    res = read_summary(out)["results"]
    errors += _probabilities(f"{exp.label} summary", res.values())
    ref = refs["scan_n"].get(exp.value("poisson_mean"))
    if ref is None:
        return errors + [f"{exp.label}: no reference for mean {exp.value('poisson_mean')}"]
    for name, want in ref.items():
        errors += _close(f"{exp.label} {name}", res[name], want, REF_ATOL)
    return errors


def check_full_vs_dicke(exp, out, partner, refs) -> list[str]:
    """Criterion-8 oracle: the product-space run equals the Dicke-model run."""
    errors = check_trajectory_range(exp, out, partner, refs)
    full = _columns(out / "trajectory.csv", skip=("infidelity",))
    dicke = _columns(partner / "trajectory.csv", skip=("infidelity",))
    if full.keys() != dicke.keys() or len(full["time_us"]) != len(dicke["time_us"]):
        return errors + [f"{exp.label}: trajectory layout differs from the Dicke run"]
    for name in full:
        dev = max(abs(a - b) for a, b in zip(full[name], dicke[name]))
        if dev > ORACLE_ATOL:
            errors.append(f"{exp.label} {name}: full vs Dicke deviation {dev:.3g}")
    res, ref = read_summary(out)["results"], read_summary(partner)["results"]
    for name in ("success_probability", "infidelity"):
        errors += _close(f"{exp.label} {name} vs Dicke", res[name], ref[name], ORACLE_ATOL)
    return errors


def check_jc_demo(exp, out, partner, refs) -> list[str]:
    """Closed form: the probe pulse leaves each atom in e with probability
    sin^2(omega_p t_1 / 2); block |E^j> then Rabi-flops at sqrt(j) omega_c."""
    n = int(exp.value("n_atoms"))
    omega_c = TWO_PI * float(exp.value("omega_c_mhz"))
    p_e = math.sin(TWO_PI * float(exp.value("omega_p_mhz")) * JC_PROBE_PULSE_US / 2) ** 2
    j = np.arange(n + 1)
    weights = np.array([math.comb(n, k) * p_e**k * (1 - p_e) ** (n - k) for k in j])
    cols = _columns(out / "trajectory.csv", skip=())
    errors = _probabilities(f"{exp.label} p_ryd", cols["p_ryd"])
    t = np.array(cols["time_us"])[:, None]
    want = (weights * np.sin(np.sqrt(j) * omega_c * t / 2) ** 2).sum(axis=1)
    dev = float(np.max(np.abs(np.array(cols["p_ryd"]) - want)))
    if dev > ORACLE_ATOL:
        errors.append(f"{exp.label}: p_ryd deviates {dev:.3g} from the closed form")
    return errors


def check_lindblad_scan(exp, out, partner, refs) -> list[str]:
    _, rows = read_csv(out / "scan.csv")
    errors = _probabilities(f"{exp.label} success/infidelity",
                            [v for r in rows for v in r[1:3]])
    gammas = [r[0] for r in rows]
    infid = [r[2] for r in rows]
    if gammas != sorted(gammas) or gammas[0] != 0.0:
        return errors + [f"{exp.label}: unexpected rate grid {gammas}"]
    if any(b < a for a, b in zip(infid, infid[1:])):
        errors.append(f"{exp.label}: infidelity decreases as the rate grows: {infid}")
    unitary = read_summary(partner)["results"]["infidelity"]
    errors += _close(f"{exp.label} gamma=0 vs pure Dicke", infid[0], unitary, UNITARY_ATOL)
    ref = refs["lindblad_scan_n3"].get(exp.value("gamma_max_mhz"))
    if ref is None or len(ref) != len(rows):
        return errors + [f"{exp.label}: no reference for this rate grid"]
    for (g, success, inf), (want_s, want_i) in zip(rows, ref):
        errors += _close(f"{exp.label} success at {g}", success, want_s, REF_ATOL)
        errors += _close(f"{exp.label} infidelity at {g}", inf, want_i, REF_ATOL)
    return errors


def check_rabi_lindblad(exp, out, partner, refs) -> list[str]:
    errors = check_trajectory_range(exp, out, partner, refs)
    cols = _columns(out / "trajectory.csv")
    # |G>, |E^2> and the Rydberg sector are orthogonal: their sum bounds the trace
    worst = max(g + e2 + r for g, e2, r in zip(cols["p_G"], cols["p_E2"], cols["p_ryd"]))
    if worst > 1 + TRACE_ATOL:
        errors.append(f"{exp.label}: populations sum to {worst} > trace 1")
    res = read_summary(out)["results"]
    ref = refs["rabi_lindblad_n4"].get(exp.value("gamma_e_mhz"))
    if ref is None:
        return errors + [f"{exp.label}: no reference for this rate"]
    for name, want in ref.items():
        errors += _close(f"{exp.label} {name}", res[name], want, REF_ATOL)
    return errors


def ballistic_escape_ns(ramp_field: float, ramp_ns: float, mass_amu: float,
                        distance_um: float) -> float:
    """Time to cross ``distance_um`` under a linear ramp, x = qE t^3 / (6 m tau)."""
    t = (6.0 * mass_amu * AMU * ramp_ns * 1e-9 * distance_um * 1e-6
         / (E_CHARGE * ramp_field)) ** (1.0 / 3.0)
    return t * 1e9


def check_ion_mc(exp, out, partner, refs) -> list[str]:
    res = read_summary(out)["results"]
    # IonEscapeConfig defaults for the keys the workload does not set
    oracle = ballistic_escape_ns(float(exp.value("ramp_field_max_v_per_m")),
                                 float(exp.value("ramp_time_ns")), 88.0, 1.0)
    errors = []
    if oracle > float(exp.value("ramp_time_ns")):
        errors.append(f"{exp.label}: escape after the ramp, outside the oracle")
    if abs(res["escape_time_ns"] - oracle) > ION_ORACLE_RTOL * oracle:
        errors.append(f"{exp.label}: escape {res['escape_time_ns']} ns vs oracle {oracle:.4g}")
    if not 0 <= res["energy_balance_error"] <= ION_ENERGY_MAX:
        errors.append(f"{exp.label}: energy balance error {res['energy_balance_error']}")
    errors += _probabilities(f"{exp.label} fraction", [res["fraction_significant"]])
    _, rows = read_csv(out / "scan.csv")
    curve = [r[1] for r in rows]
    errors += _probabilities(f"{exp.label} threshold curve", curve)
    if any(b > a for a, b in zip(curve, curve[1:])):
        errors.append(f"{exp.label}: threshold curve rises with the threshold")
    ref = refs["ion_mc"].get(exp.value("seed"))
    if ref is None:
        return errors + [f"{exp.label}: no reference for seed {exp.value('seed')}"]
    errors += _close(f"{exp.label} escape_time_ns", res["escape_time_ns"],
                     ref["escape_time_ns"], ION_TIME_RTOL * ref["escape_time_ns"])
    errors += _close(f"{exp.label} fraction_significant", res["fraction_significant"],
                     ref["fraction_significant"], ION_FRACTION_ATOL)
    return errors
