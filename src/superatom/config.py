"""Flat key=value run configuration: parsing, validation, unit conversion.

User-facing frequencies are nu = Omega/2pi in MHz (decay rates likewise
Gamma/2pi); times are us, except ion-mc where they are ns.  Internal
values are angular (rad/us).  Each experiment's schema holds only the keys
its run reads; any other key is rejected with its line number.  The
parser checks only the input: types, bounds, conflicts, distinct output
times, the atom-number caps, the Poisson window and the ion step cap.  It
resolves no protocol and builds no Hamiltonian; protocol resolves each run
(its Omega_p, delta_p and pulse time) and refuses what it cannot run, such
as a master equation beyond its work cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    N_MAX_DICKE,
    N_MAX_PRODUCT_VECTOR,
    CapacityError,
    EnsembleSpec,
)
from .dynamics import DecoherenceRates
from .hamiltonians import TWO_PI, LaserParams
from .ion_escape import ION_MAX_STEPS, MAX_TIME_STEP_NS, IonEscapeConfig
from .protocol import (
    AUTO_DELTA_P,
    MODELS,
    POISSON_N_FLOOR,
    PoissonEnsemble,
    ProtocolConfig,
)

EXPERIMENTS = (
    "rabi", "scan-dc", "scan-oc", "scan-n", "lindblad-scan", "ion-mc", "jc-demo",
)


class ConfigError(ValueError):
    """Invalid, missing, unknown or conflicting configuration input."""


# Finite upper bounds, far above any physical value, that keep the squares
# and products of the inputs finite in double precision.
MAX_FREQUENCY_MHZ = 1e9  # every *_mhz key: 1 PHz, above optical frequencies
MAX_FIELD_V_PER_M = 1e12  # above the atomic unit of field, 5.1e11 V/m
MAX_RAMP_TIME_NS = 1e9  # 1 s
MAX_SOFTENING_RADIUS_UM = 1e6  # 1 m
MAX_TRAP_DIAMETER_UM = 1e6  # 1 m
# Nine decades above Sr's 4.1e-39; at 1e300 every spectator phase overflows.
MAX_POLARIZABILITY_SI = 1e-30  # C m^2 / V
# A 1 mm cube; at 1e60 (positions near 1e14 m) the ion's step rounds away.
MAX_TRAP_VOLUME_UM3 = 1e9
# Positive lower bounds where a smaller value underflows.  lindblad-scan fits
# a line to its rate grid with np.polyfit, which scales each column by its
# 2-norm: below a largest rate of about 1e-162 MHz every square underflows,
# the norm is 0 and the fit fails.  The floor sits far below any rate that
# acts within a pulse.  An ion mass below about 1e-300 amu is 0 kg; the
# lightest ion, the proton, is 1.007 amu.
MIN_GAMMA_MAX_MHZ = 1e-12
MIN_ION_MASS_AMU = 1.0


@dataclass(frozen=True)
class Key:
    """One schema entry: how to parse a value and whether it must appear."""

    parse: object  # str -> typed value, raises ValueError
    required: bool = False
    default: object = None


def _float(lo=None, hi=None, lo_open=False):
    def conv(s):
        v = float(s)
        if not np.isfinite(v):
            raise ValueError("must be finite")
        if lo is not None and (v < lo or (lo_open and v == lo)):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo:g}")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi:g}")
        return v

    return conv


def _mhz(lo=-MAX_FREQUENCY_MHZ, lo_open=False):
    return _float(lo, MAX_FREQUENCY_MHZ, lo_open)


def _int(lo=None):
    def conv(s):
        v = int(s)
        if lo is not None and v < lo:
            raise ValueError(f"must be >= {lo}")
        return v

    return conv


def _choice(*opts):
    def conv(s):
        if s not in opts:
            raise ValueError(f"must be one of {opts}")
        return s

    return conv


_N_ATOMS = Key(_int(2), required=True)  # |2+> holds two excitations
_OMEGA_C = Key(_mhz(0, lo_open=True), required=True)
_TARGET = Key(_mhz(0, lo_open=True), required=True)
_DELTA_P = {"delta_p_mhz": Key(_mhz())}  # absent -> resonance + compensation
_PULSE = {"pulse_time_us": Key(_float(0, lo_open=True))}  # absent -> pi-pulse
_RATE_KEYS = ("gamma_e_mhz", "gamma_r_mhz", "gamma_d_mhz", "gamma_coll_mhz")
# model absent -> protocol_config's default rule
_DECAY = {
    "model": Key(_choice(*MODELS)),
    **{k: Key(_mhz(0), default=0.0) for k in _RATE_KEYS},
}
# scan-n's window reaches N of about 17 or more, beyond the master equation
# (N <= 4) and the product basis (N <= 8)
SCAN_N_MODELS = ("dicke", "restricted6", "effective2")

# Each schema holds exactly the keys its runner reads.
# (key_a, key_b, "exactly-one" | "at-most-one") enforced after parsing
SCHEMAS: dict[str, tuple[dict, list]] = {
    "rabi": (
        {
            "n_atoms": _N_ATOMS,
            **_DELTA_P,
            **_PULSE,
            "n_times": Key(_int(2), default=201),
            **_DECAY,
            "omega_c_mhz": _OMEGA_C,
            "omega_p_mhz": Key(_mhz(0, lo_open=True)),
            "omega_eff_target_mhz": Key(_mhz(0, lo_open=True)),
            "delta_c_mhz": Key(_mhz()),
            "delta_c_over_omega_c": Key(_float(-3.0, 1.0)),
        },
        [
            ("omega_p_mhz", "omega_eff_target_mhz", "exactly-one"),
            ("delta_c_mhz", "delta_c_over_omega_c", "exactly-one"),
        ],
    ),
    "scan-dc": (
        {
            "n_atoms": _N_ATOMS,
            **_PULSE,
            **_DECAY,
            "omega_c_mhz": _OMEGA_C,
            "omega_eff_target_mhz": _TARGET,
            "ratio_min": Key(_float(-3.0, 1.0), default=-3.0),
            "ratio_max": Key(_float(-3.0, 1.0), default=0.5),
            "n_points": Key(_int(2), default=36),
        },
        [],
    ),
    "scan-oc": (
        {
            "n_atoms": _N_ATOMS,
            **_PULSE,
            **_DECAY,
            "omega_eff_target_mhz": _TARGET,
            "omega_c_min_mhz": Key(_mhz(0, lo_open=True), default=20.0),
            "omega_c_max_mhz": Key(_mhz(0, lo_open=True), default=200.0),
            "n_points": Key(_int(2), default=7),
        },
        [],
    ),
    "scan-n": (
        {
            **_DELTA_P,
            **_PULSE,
            "model": Key(_choice(*SCAN_N_MODELS)),
            "poisson_mean": Key(_float(1.0), required=True),
            "omega_c_mhz": _OMEGA_C,
            "omega_eff_target_mhz": _TARGET,
            "delta_c_over_omega_c": Key(_float(-3.0, 1.0), default=-0.5),
            "half_width_sigmas": Key(_float(1.0), default=6.0),
        },
        [],
    ),
    "lindblad-scan": (
        {
            "n_atoms": _N_ATOMS,
            **_DELTA_P,
            **_PULSE,
            "omega_c_mhz": _OMEGA_C,
            "omega_eff_target_mhz": _TARGET,
            "delta_c_over_omega_c": Key(_float(-3.0, 1.0), default=-0.5),
            "channel": Key(_choice("gamma_e", "gamma_r", "gamma_d"), required=True),
            "gamma_min_mhz": Key(_mhz(0), default=0.0),
            "gamma_max_mhz": Key(_mhz(MIN_GAMMA_MAX_MHZ), required=True),
            "n_points": Key(_int(2), default=6),
        },
        [],
    ),
    "jc-demo": (
        {
            "n_atoms": Key(_int(1), required=True),
            "omega_p_mhz": Key(_mhz(0, lo_open=True), required=True),
            "omega_c_mhz": Key(_mhz(0, lo_open=True), required=True),
            "probe_pulse_time_us": Key(_float(0, lo_open=True), required=True),
            "total_time_us": Key(_float(0, lo_open=True), required=True),
            "n_times": Key(_int(2), default=801),
        },
        [],
    ),
    "ion-mc": (
        {
            "ramp_field_max_v_per_m": Key(_float(0, MAX_FIELD_V_PER_M), default=1e5),
            "ramp_time_ns": Key(
                _float(0, MAX_RAMP_TIME_NS, lo_open=True), default=300.0
            ),
            "trap_diameter_um": Key(
                _float(0, MAX_TRAP_DIAMETER_UM, lo_open=True), default=1.0
            ),
            "trap_volume_um3": Key(
                _float(0, MAX_TRAP_VOLUME_UM3, lo_open=True), default=1.0
            ),
            "n_atoms": Key(_int(2), default=100),
            "ion_mass_amu": Key(_float(MIN_ION_MASS_AMU), default=88.0),
            "differential_polarizability_si": Key(
                _float(0, MAX_POLARIZABILITY_SI),
                default=IonEscapeConfig.differential_polarizability,
            ),
            "phase_threshold_rad": Key(_float(0, lo_open=True), default=0.01),
            "softening_radius_um": Key(
                _float(0, MAX_SOFTENING_RADIUS_UM, lo_open=True), default=5e-3
            ),
            "n_trajectories": Key(_int(1), default=100),
            "seed": Key(_int(0), default=0),
            "ion_start": Key(_choice("uniform", "center"), default="uniform"),
            "time_step_ns": Key(_float(0, MAX_TIME_STEP_NS, lo_open=True),
                                default=MAX_TIME_STEP_NS),
            "max_time_ns": Key(_float(0, lo_open=True)),
        },
        [],
    ),
}


# Scans that fit a line to their grid need two distinct endpoints.
_FITTED_RANGES = {
    "scan-oc": ("omega_c_min_mhz", "omega_c_max_mhz"),
    "lindblad-scan": ("gamma_min_mhz", "gamma_max_mhz"),
}


# Duration key T of the runs that write states at linspace(0, T, n_times)[1:],
# which a subnormal T rounds together; a scan point has only its pulse end.
_TIME_GRIDS = {"rabi": "pulse_time_us", "jc-demo": "total_time_us"}


@dataclass
class RunConfig:
    """A fully validated experiment configuration."""

    experiment: str
    values: dict  # typed values with defaults applied
    provided: dict = field(default_factory=dict)  # raw strings, as given


def parse_config(text: str, experiment: str) -> RunConfig:
    """Parse flat key=value text against the experiment's schema."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}"
        )
    schema, conflicts = SCHEMAS[experiment]
    provided: dict[str, str] = {}
    lines: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "experiment":
            if val != experiment:
                raise ConfigError(
                    f"line {ln}: config is for experiment {val!r}, "
                    f"but {experiment!r} was requested"
                )
            continue
        if key not in schema:
            raise ConfigError(f"line {ln}: unknown key {key!r} for {experiment}")
        if key in provided:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        provided[key] = val
        lines[key] = ln

    missing = [k for k, spec in schema.items() if spec.required and k not in provided]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")
    for a, b, rule in conflicts:
        have = (a in provided) + (b in provided)
        if have == 2:
            raise ConfigError(
                f"line {lines[b]}: {a!r} and {b!r} conflict; give only one"
            )
        if have == 0 and rule == "exactly-one":
            raise ConfigError(f"exactly one of {a!r}, {b!r} is required")

    values: dict = {}
    for key, spec in schema.items():
        if key in provided:
            try:
                values[key] = spec.parse(provided[key])
            except ValueError as exc:
                raise ConfigError(
                    f"line {lines[key]}: invalid value for {key!r}: {exc}"
                ) from exc
        elif spec.default is not None:
            values[key] = spec.default
    if experiment in _FITTED_RANGES:
        lo, hi = _FITTED_RANGES[experiment]
        if values[lo] == values[hi]:
            raise ConfigError(
                f"{lo!r} equals {hi!r}; the scan's line fit needs distinct grid values"
            )
    key = _TIME_GRIDS.get(experiment)
    if key in values:
        n = values["n_times"]
        if not np.all(np.diff(np.linspace(0.0, values[key], n)[1:]) > 0):
            raise ConfigError(
                f"line {lines[key]}: invalid value for {key!r}: "
                f"too short for {n - 1} distinct output times"
            )
    if experiment not in ("scan-n", "ion-mc") and values["n_atoms"] > N_MAX_DICKE:
        raise CapacityError(
            f"line {lines['n_atoms']}: 'n_atoms' = {values['n_atoms']} exceeds "
            f"the Dicke-basis limit {N_MAX_DICKE}"
        )
    if experiment == "scan-n":
        where = f"line {lines['poisson_mean']}"
        try:
            PoissonEnsemble.from_mean(
                values["poisson_mean"], values["half_width_sigmas"]
            ).weights()
        except CapacityError as exc:
            raise CapacityError(f"{where}: 'poisson_mean': {exc}") from exc
        except ValueError as exc:
            raise ConfigError(
                f"{where}: invalid value for 'poisson_mean': "
                f"{exc} (atom numbers N >= {POISSON_N_FLOOR} within "
                f"{values['half_width_sigmas']:g} sigmas)"
            ) from exc
    rates = [k for k in _RATE_KEYS if values.get(k, 0.0) > 0]
    if rates and values.get("model", "lindblad") != "lindblad":
        raise ConfigError(
            f"line {lines['model']}: invalid value for 'model': "
            f"{values['model']!r} ignores the decay rate {rates[0]!r}; "
            "only 'lindblad' models decay"
        )
    if experiment == "ion-mc":
        ion = ion_config(RunConfig(experiment, values))
        steps = ion.horizon / ion.time_step
        if steps > ION_MAX_STEPS:
            where = f"line {lines['time_step_ns']}: " if "time_step_ns" in lines else ""
            raise ConfigError(
                f"{where}invalid value for 'time_step_ns': {steps:.3g} steps over "
                f"the {ion.horizon:g} ns horizon exceed the cap {ION_MAX_STEPS}"
            )
    return RunConfig(experiment=experiment, values=values, provided=provided)


def _resolve_delta_c(values: dict, omega_c: float) -> float:
    if "delta_c_mhz" in values:
        return TWO_PI * values["delta_c_mhz"]
    return values["delta_c_over_omega_c"] * omega_c


def protocol_config(rc: RunConfig) -> tuple[ProtocolConfig, str]:
    """(ProtocolConfig, model) for the protocol-type experiments.

    For scans the returned config is the sweep baseline; the grid axis is
    substituted per point by the scan routine.  The model is the configured
    one; else lindblad for a lindblad-scan or when a decay rate is > 0;
    else full for a rabi run that the product basis holds; else dicke.
    """
    v = rc.values
    if rc.experiment == "scan-oc":
        omega_c = TWO_PI * v["omega_c_min_mhz"]
        delta_c = -omega_c / 2.0
        n_atoms = v["n_atoms"]
    elif rc.experiment == "scan-n":
        omega_c = TWO_PI * v["omega_c_mhz"]
        delta_c = _resolve_delta_c(v, omega_c)
        n_atoms = int(round(v["poisson_mean"]))
    else:
        omega_c = TWO_PI * v["omega_c_mhz"]
        delta_c = _resolve_delta_c(v, omega_c) if rc.experiment != "scan-dc" \
            else -omega_c / 2.0
        n_atoms = v["n_atoms"]

    omega_p = TWO_PI * v["omega_p_mhz"] if "omega_p_mhz" in v else 0.0
    target = (
        TWO_PI * v["omega_eff_target_mhz"]
        if "omega_eff_target_mhz" in v
        else None
    )
    delta_p = TWO_PI * v["delta_p_mhz"] if "delta_p_mhz" in v else AUTO_DELTA_P
    params = LaserParams(
        omega_p=omega_p, omega_c=omega_c, delta_p=delta_p, delta_c=delta_c
    )
    rates = DecoherenceRates(
        gamma_e=TWO_PI * v.get("gamma_e_mhz", 0.0),
        gamma_r=TWO_PI * v.get("gamma_r_mhz", 0.0),
        gamma_d=TWO_PI * v.get("gamma_d_mhz", 0.0),
        gamma_coll=TWO_PI * v.get("gamma_coll_mhz", 0.0),
    )
    cfg = ProtocolConfig(
        spec=EnsembleSpec(n_atoms),
        params=params,
        rates=rates,
        pulse_time=v.get("pulse_time_us"),
        effective_rabi_target=target,
    )
    if "model" in v:
        model = v["model"]
    elif rc.experiment == "lindblad-scan" or not rates.all_zero:
        model = "lindblad"
    elif rc.experiment == "rabi" and n_atoms <= N_MAX_PRODUCT_VECTOR:
        model = "full"
    else:
        model = "dicke"
    return cfg, model


def ion_config(rc: RunConfig) -> IonEscapeConfig:
    v = rc.values
    return IonEscapeConfig(
        ramp_field_max=v["ramp_field_max_v_per_m"],
        ramp_time=v["ramp_time_ns"],
        trap_diameter=v["trap_diameter_um"],
        trap_volume=v["trap_volume_um3"],
        n_atoms=v["n_atoms"],
        ion_mass=v["ion_mass_amu"],
        differential_polarizability=v["differential_polarizability_si"],
        phase_threshold=v["phase_threshold_rad"],
        softening_radius=v["softening_radius_um"],
        n_trajectories=v["n_trajectories"],
        rng_seed=v["seed"],
        ion_start=v["ion_start"],
        time_step=v["time_step_ns"],
        max_time=v.get("max_time_ns"),
    )
