"""The exit-code contract at every documented bound of a config key.

Each numeric key is tried, on its own, at its documented bounds and the
next value beyond each, at 0, +-the smallest normal, +-a subnormal,
+-1e300, nan and +-inf.  Every run must end in exit 0, 2, 3 or 4 with no
Python warning; a non-zero exit prints exactly one stderr line and leaves
no file under --out; a value beyond a bound, or any other refusal while
parsing, names its key.  The step-count cap is the one refusal that names
another key: a horizon with too many steps names time_step_ns.
"""

import warnings

import numpy as np
import pytest

from superatom.cli import main
from superatom.config import (
    MAX_FIELD_V_PER_M,
    MAX_POLARIZABILITY_SI,
    MAX_RAMP_TIME_NS,
    MAX_SOFTENING_RADIUS_UM,
    MAX_TRAP_DIAMETER_UM,
    MAX_TRAP_VOLUME_UM3,
    MIN_ION_MASS_AMU,
    SCHEMAS,
)
from superatom.ion_escape import MAX_TIME_STEP_NS

TINY = np.finfo(float).tiny
SUBNORMAL = TINY / 2**10
EXTREMES = (0.0, TINY, -TINY, SUBNORMAL, -SUBNORMAL, 1e300, -1e300,
            np.nan, np.inf, -np.inf)

# (lower, upper) bound of each numeric ion-mc key as the README documents
# it, None where there is none; ints are integer keys.
ION_MC_BOUNDS = {
    "ramp_field_max_v_per_m": (0.0, MAX_FIELD_V_PER_M),
    "ramp_time_ns": (0.0, MAX_RAMP_TIME_NS),
    "trap_diameter_um": (0.0, MAX_TRAP_DIAMETER_UM),
    "trap_volume_um3": (0.0, MAX_TRAP_VOLUME_UM3),
    "n_atoms": (2, None),
    "ion_mass_amu": (MIN_ION_MASS_AMU, None),
    "differential_polarizability_si": (0.0, MAX_POLARIZABILITY_SI),
    "phase_threshold_rad": (0.0, None),
    "softening_radius_um": (0.0, MAX_SOFTENING_RADIUS_UM),
    "n_trajectories": (1, None),
    "seed": (0, None),
    "time_step_ns": (0.0, MAX_TIME_STEP_NS),
    "max_time_ns": (0.0, None),
}
# About 1,000 steps of one trajectory with two spectators: each run takes
# 10-20 ms, and the whole table about 3 s.
ION_MC_BASE = {"n_trajectories": "1", "n_atoms": "3", "max_time_ns": "100"}


def _beyond(bound, outward):
    """The next value past a bound, away from the admitted range."""
    if isinstance(bound, int):
        return bound + outward
    return float(np.nextafter(bound, outward * np.inf))


def _cases(bounds):
    """(key, value text, beyond a bound) for every key and trial value."""
    for key, (lo, hi) in bounds.items():
        trials = {repr(float(v)): False for v in EXTREMES}
        for bound, outward in ((lo, -1), (hi, 1)):
            if bound is not None:
                trials.setdefault(repr(bound), False)
                trials[repr(_beyond(bound, outward))] = True
        for text, beyond in trials.items():
            yield pytest.param(key, text, beyond, id=f"{key}={text}")


def test_every_numeric_key_is_tried():
    schema, _ = SCHEMAS["ion-mc"]
    assert set(ION_MC_BOUNDS) == set(schema) - {"ion_start"}


@pytest.mark.parametrize("key,text,beyond", _cases(ION_MC_BOUNDS))
def test_ion_mc_exit_contract(tmp_path, capsys, key, text, beyond):
    config = {**ION_MC_BASE, key: text}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ion-mc", "--config", str(cfg), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4)
    if beyond:
        assert code == 2
    if code:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))
    if code == 2:
        assert f"invalid value for '{key}'" in err[0] or (
            "invalid value for 'time_step_ns'" in err[0] and "steps" in err[0])
