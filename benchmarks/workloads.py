"""Workload definitions: the superatom-sim configs each workload runs, made from a seed.

The seed moves grid endpoints, the Poisson mean and the ion Monte Carlo
seed.  Every seeded choice is drawn from a small lattice, so that every
output without an analytic oracle has a reference value recorded in
``references.json`` (see ``record_references.py``), and so that the work
done per run is nearly the same for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

WORKLOADS = ("sweep", "trajectory", "lindblad", "ion_mc")

# Seeded lattices.  Each reference table in references.json covers one.
DC_STEP = 0.05            # scan-dc grid spacing and shift unit
DC_SHIFTS = 10            # ratio window shifted left by 0..9 steps
OC_PER_DECADE = 24        # scan-oc window shifted by 10**(m/24) ...
OC_SHIFTS = 8             # ... for m in 0..7
OC_POINTS = 7             # 7 points over one decade: spacing 4 lattice steps
POISSON_MEANS = (98, 99, 100, 101, 102)
GAMMA_MAX_MHZ = ("0.0008", "0.00085", "0.0009", "0.00095",
                 "0.001", "0.00105", "0.0011", "0.00115")
ION_SEEDS = 16

JC_PROBE_PULSE_US = 1.0 / 6.0  # probe pi/3 rotation: binomial p = 1/4


@dataclass(frozen=True)
class Experiment:
    """One superatom-sim invocation and how its outputs are checked.

    ``check`` names a function in checks.py; ``partner`` is the label of
    another experiment in the same workload whose outputs serve as oracle.
    ``units`` says what the experiment adds to the workload's work count:
    "scan_rows", "trajectory_rows", "run" (one), "n_trajectories" or ""
    (nothing).
    """

    label: str
    experiment: str
    config: tuple  # ((key, value-string), ...) in file order
    check: str
    units: str
    partner: str | None = None

    def config_text(self) -> str:
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{k} = {v}" for k, v in self.config]
        return "\n".join(lines) + "\n"

    def value(self, key: str) -> str:
        return dict(self.config)[key]

    def with_values(self, **values: str) -> "Experiment":
        return replace(self, config=tuple((k, values.get(k, v)) for k, v in self.config))


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512: stable across Python versions
    return random.Random(f"{workload}/{seed}")


def dc_ratio(k: int) -> float:
    """Lattice point k (k <= 0) of the scan-dc ratio axis."""
    return round(-0.3 + DC_STEP * k, 10)


def oc_omega_c(m: int) -> float:
    """Lattice point m of the scan-oc coupling axis, MHz."""
    return 20.0 * 10.0 ** (m / OC_PER_DECADE)


def dc_key(ratio: float) -> str | None:
    """Reference-table key of a scan-dc grid point; None off the lattice."""
    k = round((ratio - dc_ratio(0)) / DC_STEP)
    return str(k) if abs(ratio - dc_ratio(k)) < 1e-9 else None


def oc_key(omega_c_mhz: float) -> str | None:
    """Reference-table key of a scan-oc grid point; None off the lattice."""
    m = round(OC_PER_DECADE * math.log10(omega_c_mhz / oc_omega_c(0)))
    return str(m) if abs(omega_c_mhz / oc_omega_c(m) - 1.0) < 1e-9 else None


def _sweep(rng: random.Random) -> list[Experiment]:
    k = rng.randrange(DC_SHIFTS)
    m3 = rng.randrange(OC_SHIFTS)
    m50 = rng.randrange(OC_SHIFTS)
    lam = rng.choice(POISSON_MEANS)

    def scan_oc(label, n, m):
        return Experiment(label, "scan-oc", (
            ("n_atoms", str(n)),
            ("omega_eff_target_mhz", "0.1"),
            ("omega_c_min_mhz", repr(oc_omega_c(m))),
            ("omega_c_max_mhz", repr(oc_omega_c(m + OC_PER_DECADE))),
            ("n_points", str(OC_POINTS)),
        ), "check_scan_oc", "scan_rows")

    return [
        Experiment("scan_dc_n3", "scan-dc", (
            ("n_atoms", "3"),
            ("omega_c_mhz", "20"),
            ("omega_eff_target_mhz", "0.1"),
            ("ratio_min", f"{dc_ratio(-38 - k):.2f}"),
            ("ratio_max", f"{dc_ratio(-k):.2f}"),
            ("n_points", "39"),
        ), "check_scan_dc", "scan_rows"),
        scan_oc("scan_oc_n3", 3, m3),
        scan_oc("scan_oc_n50", 50, m50),
        Experiment("scan_n_poisson", "scan-n", (
            ("poisson_mean", str(lam)),
            ("omega_c_mhz", "100"),
            ("omega_eff_target_mhz", "0.1"),
        ), "check_scan_n", "scan_rows"),
    ]


def _rabi(n: int, model: str, omega_p: str, n_times: int) -> tuple:
    return (
        ("n_atoms", str(n)),
        ("omega_c_mhz", "10"),
        ("omega_p_mhz", omega_p),
        ("delta_c_over_omega_c", "-0.5"),
        ("model", model),
        ("n_times", str(n_times)),
    )


def _trajectory(rng: random.Random) -> list[Experiment]:
    omega_p = f"{rng.uniform(0.6, 0.8):.6f}"
    total_time = f"{rng.uniform(1.1, 1.3):.6f}"
    return [
        Experiment("rabi_full_n8", "rabi", _rabi(8, "full", omega_p, 4001),
                   "check_full_vs_dicke", "trajectory_rows", "rabi_dicke_n8"),
        Experiment("rabi_dicke_n8", "rabi", _rabi(8, "dicke", omega_p, 4001),
                   "check_trajectory_range", "trajectory_rows"),
        # configs/rabi_n4.cfg, with its implicit model spelled out
        Experiment("rabi_full_n4", "rabi", _rabi(4, "full", "0.7", 401),
                   "check_full_vs_dicke", "trajectory_rows", "rabi_dicke_n4"),
        Experiment("rabi_dicke_n4", "rabi", _rabi(4, "dicke", "0.7", 401),
                   "check_trajectory_range", "trajectory_rows"),
        Experiment("jc_demo_n100", "jc-demo", (
            ("n_atoms", "100"),
            ("omega_p_mhz", "1"),
            ("omega_c_mhz", "10"),
            ("probe_pulse_time_us", repr(JC_PROBE_PULSE_US)),
            ("total_time_us", total_time),
            ("n_times", "10001"),
        ), "check_jc_demo", "trajectory_rows"),
    ]


def _criterion6(n: int, omega_c: str) -> tuple:
    return (
        ("n_atoms", str(n)),
        ("omega_c_mhz", omega_c),
        ("omega_eff_target_mhz", "0.1"),
        ("delta_c_over_omega_c", "-0.5"),
    )


def lindblad_experiments(gamma_max: str) -> list[Experiment]:
    """The lindblad workload at one decay-rate grid end, Gamma/2pi in MHz."""
    return [
        Experiment("lindblad_scan_n3", "lindblad-scan", _criterion6(3, "100") + (
            ("channel", "gamma_e"),
            ("gamma_max_mhz", gamma_max),
            ("n_points", "3"),
        ), "check_lindblad_scan", "scan_rows", "rabi_dicke_n3"),
        # the unitary limit of the scan's gamma = 0 point
        Experiment("rabi_dicke_n3", "rabi", _criterion6(3, "100") + (
            ("model", "dicke"),
            ("n_times", "3"),
        ), "check_trajectory_range", ""),
        Experiment("rabi_lindblad_n4", "rabi", _criterion6(4, "20") + (
            ("gamma_e_mhz", gamma_max),
        ), "check_rabi_lindblad", "run"),
    ]


def ion_mc_experiments(ion_seed: int) -> list[Experiment]:
    """The ion_mc workload: Sr+ defaults, as configs/ion_escape_default.cfg."""
    return [
        Experiment("ion_mc", "ion-mc", (
            ("n_atoms", "100"),
            ("n_trajectories", "200"),
            ("trap_volume_um3", "1"),
            ("ramp_field_max_v_per_m", "1e5"),
            ("ramp_time_ns", "300"),
            ("phase_threshold_rad", "0.01"),
            ("ion_start", "uniform"),
            ("seed", str(ion_seed)),
        ), "check_ion_mc", "n_trajectories"),
    ]


_BUILDERS = {
    "sweep": _sweep,
    "trajectory": _trajectory,
    "lindblad": lambda rng: lindblad_experiments(rng.choice(GAMMA_MAX_MHZ)),
    "ion_mc": lambda rng: ion_mc_experiments(rng.randrange(ION_SEEDS)),
}


def make_workload(name: str, seed: int) -> list[Experiment]:
    """The experiments one run of workload ``name`` executes, in order."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return _BUILDERS[name](_rng(name, seed))
