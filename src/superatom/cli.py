"""Command-line entry point: run one experiment, emit CSV/JSON artifacts.

Usage: superatom-sim <experiment> --config FILE --out DIR

Every experiment runs in the calling process and returns its table and
summary; only then is DIR created and both files written, each first under
a temporary name, so a run that exits non-zero writes nothing.  This module
resolves nothing: a run or scan returns the resolution that summary.json
records, and a scan also returns the results it writes there.  --workers
is accepted only as 1, for compatibility with older command lines.

Exit codes: 0 success, 2 configuration error (refused while parsing, a
BasisError refusal such as a probe too weak for a finite pi-pulse, or a
--config that cannot be read or an --out that cannot be written),
3 capacity exceeded (a documented limit, or an array that cannot be
allocated), 4 numerical failure.  Every CSV cell is written with 12
significant digits, and an undefined one (None or NaN) is left empty.
Outputs are deterministic for identical inputs apart from the timestamp
field in summary.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisError, CapacityError, EnsembleSpec
from .config import EXPERIMENTS, ConfigError, ion_config, parse_config, protocol_config
from .dynamics import NumericalFailure, Trajectory
from .hamiltonians import TWO_PI, LaserParams
from .ion_escape import simulate_escape
from .protocol import (
    PoissonEnsemble,
    collapse_revival_demo,
    poisson_average,
    run_protocol,
    scan_decoherence,
    scan_delta_c,
    scan_omega_c,
)

TRAJECTORY_COLUMNS = ("p_G", "p_E", "p_R", "p_E2", "p_ER", "p_ryd", "infidelity")


def _round12(obj):
    """Recursively clamp floats to 12 significant digits for JSON output;
    a non-finite float (an undefined value) becomes None, written as null."""
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return float(f"{v:.12g}") if np.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def write_csv(path: Path, header: list[str], table) -> None:
    """The header line, then each row with every cell as %.12g; an undefined
    cell (None or NaN) is written empty.  The whole table is formatted by
    one % over its cells in row order."""
    table = np.asarray(table, dtype=float)
    rows = (",".join(["%.12g"] * len(header)) + "\n") * len(table)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((rows % tuple(table.ravel().tolist())).replace("nan", ""))


def _trajectory_table(traj: Trajectory):
    """trajectory.csv's header and columns; absent observables skipped."""
    cols = [c for c in TRAJECTORY_COLUMNS if c in traj.populations]
    return ["time_us", *cols], np.column_stack(
        [traj.times, *(traj.populations[c] for c in cols)]
    )


def write_summary(path: Path, rc, resolved: dict, results: dict) -> None:
    payload = {
        "experiment": rc.experiment,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": dict(rc.provided),
        "resolved": resolved,
        "results": results,
    }
    with open(path, "w") as fh:
        json.dump(_round12(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _resolved_dict(res) -> dict:
    """Both conventions for every resolved laser parameter."""
    p = res.params
    return {
        "n_atoms": res.spec.n_atoms,
        "omega_p_mhz": p.omega_p / TWO_PI,
        "omega_c_mhz": p.omega_c / TWO_PI,
        "delta_p_mhz": p.delta_p / TWO_PI,
        "delta_c_mhz": p.delta_c / TWO_PI,
        "omega_eff_mhz": res.omega_eff / TWO_PI,
        "delta_eff_mhz": res.delta_eff / TWO_PI,
        "delta_p_resonance_mhz": res.delta_p_resonance / TWO_PI,
        "omega_p_rad_per_us": p.omega_p,
        "omega_c_rad_per_us": p.omega_c,
        "delta_p_rad_per_us": p.delta_p,
        "delta_c_rad_per_us": p.delta_c,
        "omega_eff_rad_per_us": res.omega_eff,
        "delta_eff_rad_per_us": res.delta_eff,
        "pulse_time_us": res.pulse_time,
    }


def _run_rabi(rc):
    cfg, model = protocol_config(rc)
    result = run_protocol(cfg, model=model, n_times=rc.values["n_times"])
    return (
        "trajectory.csv",
        *_trajectory_table(result.trajectory),
        {**_resolved_dict(result.resolved), "model": model},
        {
            "success_probability": result.success_probability,
            "infidelity": result.infidelity,
        },
    )


def _run_scan(rc):
    """scan-dc, scan-oc, scan-n and lindblad-scan: one scan.csv row per
    point, and the resolution the scan made of its unscanned config."""
    cfg, model = protocol_config(rc)
    v = rc.values
    label = {"model": model}
    if rc.experiment == "scan-dc":
        ratios = np.linspace(v["ratio_min"], v["ratio_max"], v["n_points"])
        scan = scan_delta_c(cfg, ratios, model=model)
        header = ["delta_c_over_omega_c", "success", "infidelity"]
        table = [(r.x, r.success, r.infidelity) for r in scan.rows]
    elif rc.experiment == "scan-oc":
        grid = TWO_PI * np.geomspace(
            v["omega_c_min_mhz"], v["omega_c_max_mhz"], v["n_points"]
        )
        scan = scan_omega_c(cfg, grid, model=model)
        header = ["omega_c_mhz", "success", "infidelity", "bound"]
        table = [(r.x / TWO_PI, r.success, r.infidelity, r.extra["bound"])
                 for r in scan.rows]
    elif rc.experiment == "scan-n":
        ensemble = PoissonEnsemble.from_mean(
            v["poisson_mean"], half_width_sigmas=v["half_width_sigmas"]
        )
        scan = poisson_average(cfg, ensemble, model=model)
        header = ["n_atoms", "weight", "success", "infidelity"]
        table = [(r.x, r.extra["weight"], r.success, r.infidelity)
                 for r in scan.rows]
    else:
        grid = TWO_PI * np.linspace(
            v["gamma_min_mhz"], v["gamma_max_mhz"], v["n_points"]
        )
        scan = scan_decoherence(cfg, v["channel"], grid)
        header = ["gamma_mhz", "success", "infidelity"]
        table = [(r.x / TWO_PI, r.success, r.infidelity) for r in scan.rows]
        label = {"channel": v["channel"]}
    return ("scan.csv", header, table,
            {**_resolved_dict(scan.resolved), **label}, scan.summary)


def _run_ion_mc(rc):
    cfg = ion_config(rc)
    result = simulate_escape(cfg)
    thresholds = np.geomspace(1e-4, 10.0, 26)
    return (
        "scan.csv",
        ["phase_threshold_rad", "fraction_significant"],
        np.column_stack([thresholds, result.threshold_curve(thresholds)]),
        {
            "rng_seed": cfg.rng_seed,
            "n_trajectories": cfg.n_trajectories,
            "time_step_ns": cfg.time_step,
            "differential_polarizability_si": cfg.differential_polarizability,
        },
        {
            "escape_time_ns": result.escape_time,
            "escape_time_std_ns": result.escape_time_std,
            "fraction_significant": result.fraction_significant,
            "phase_threshold_rad": cfg.phase_threshold,
            "external_field_phase_rad": result.external_field_phase,
            "n_close_collisions": result.n_close_collisions,
            "energy_balance_error": result.energy_balance_error,
        },
    )


def _run_jc_demo(rc):
    v = rc.values
    spec = EnsembleSpec(v["n_atoms"])
    params = LaserParams(
        omega_p=TWO_PI * v["omega_p_mhz"],
        omega_c=TWO_PI * v["omega_c_mhz"],
        delta_p=0.0,
        delta_c=0.0,
    )
    times = np.linspace(0.0, v["total_time_us"], v["n_times"])[1:]
    traj = collapse_revival_demo(spec, params, v["probe_pulse_time_us"], times)
    return (
        "trajectory.csv",
        *_trajectory_table(traj),
        {
            "n_atoms": v["n_atoms"],
            "omega_p_mhz": v["omega_p_mhz"],
            "omega_c_mhz": v["omega_c_mhz"],
            "probe_pulse_time_us": v["probe_pulse_time_us"],
        },
        {"max_p_rydberg": float(np.max(traj.populations["p_ryd"]))},
    )


# Each runner returns (CSV name, header, table, resolved dict, results dict)
# and writes nothing; main writes both files once the run has succeeded.
_RUNNERS = {
    "rabi": _run_rabi,
    "scan-dc": _run_scan,
    "scan-oc": _run_scan,
    "scan-n": _run_scan,
    "lindblad-scan": _run_scan,
    "ion-mc": _run_ion_mc,
    "jc-demo": _run_jc_demo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superatom-sim",
        description="Heralded W-state protocol simulations",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workers", help="accepted only as 1, for compatibility")
    args = parser.parse_args(argv)

    try:
        if args.workers not in (None, "1"):
            raise ConfigError(f"--workers must be 1, got {args.workers!r}")
        try:
            text = args.config.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        rc = parse_config(text, args.experiment)
        name, header, table, resolved, results = _RUNNERS[args.experiment](rc)
        try:  # both files are written under temporary names, then renamed
            args.out.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(prefix=".partial-", dir=args.out) as tmp:
                csv, summary = Path(tmp, name), Path(tmp, "summary.json")
                write_csv(csv, header, table)
                write_summary(summary, rc, resolved, results)
                csv = csv.replace(args.out / name)
                try:
                    summary.replace(args.out / "summary.json")
                except OSError:
                    csv.unlink()  # both files or neither
                    raise
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from exc
    except (ConfigError, BasisError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
