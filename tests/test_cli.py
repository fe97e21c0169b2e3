import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superatom
from oracles import csv_line
from superatom.basis import N_MAX_DICKE
from superatom.cli import _round12, main, write_csv
from superatom.config import (
    EXPERIMENTS,
    SCAN_N_MODELS,
    SCHEMAS,
    ConfigError,
    ion_config,
    parse_config,
    protocol_config,
)
from superatom.dynamics import DecoherenceRates
from superatom.hamiltonians import TWO_PI
from superatom.protocol import MODELS, NO_HERALD_EPS, PoissonEnsemble, run_protocol

RABI_CFG = """\
# minimal four-atom run
experiment = rabi
n_atoms = 4
omega_c_mhz = 10
omega_p_mhz = 0.7
delta_c_over_omega_c = -0.5
"""

LINDBLAD_CFG = (Path(__file__).parents[1] / "configs"
                / "lindblad_gamma_e_n3.cfg").read_text()

SCAN_DC_CFG = (
    "n_atoms = 3\nomega_c_mhz = 20\nomega_eff_target_mhz = 0.1\n"
    "ratio_min = -1.0\nratio_max = -0.4\nn_points = 4\n"
)


class TestParsing:
    def test_minimal_rabi(self):
        rc = parse_config(RABI_CFG, "rabi")
        assert rc.values["n_atoms"] == 4
        assert rc.values["omega_p_mhz"] == 0.7
        assert rc.values["n_times"] == 201  # default applied

    def test_empty_file_lists_required_keys(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            parse_config("", "scan-dc")

    def test_unknown_key_with_line_number(self):
        text = RABI_CFG + "bogus_key = 1\n"
        with pytest.raises(ConfigError, match=r"line 7: unknown key 'bogus_key'"):
            parse_config(text, "rabi")

    def test_delta_c_conflict(self):
        text = RABI_CFG + "delta_c_mhz = -5\n"
        with pytest.raises(ConfigError, match="conflict"):
            parse_config(text, "rabi")

    def test_omega_p_target_conflict(self):
        text = RABI_CFG + "omega_eff_target_mhz = 0.1\n"
        with pytest.raises(ConfigError, match="conflict"):
            parse_config(text, "rabi")

    def test_duplicate_key(self):
        text = RABI_CFG + "n_atoms = 5\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text, "rabi")

    def test_value_range_violation(self):
        text = RABI_CFG.replace("n_atoms = 4", "n_atoms = 0")
        with pytest.raises(ConfigError, match=r"line 3: invalid value for 'n_atoms'"):
            parse_config(text, "rabi")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("just words\n", "rabi")

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigError, match="requested"):
            parse_config(RABI_CFG, "scan-dc")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            parse_config(RABI_CFG, "tomography")

    def test_comments_and_blanks_ignored(self):
        rc = parse_config("\n# note\n" + RABI_CFG + "\n\n", "rabi")
        assert rc.values["omega_c_mhz"] == 10.0


class TestConfigBuilders:
    def test_units_converted_to_angular(self):
        rc = parse_config(RABI_CFG, "rabi")
        cfg, model = protocol_config(rc)
        assert cfg.params.omega_c == pytest.approx(TWO_PI * 10.0)
        assert cfg.params.omega_p == pytest.approx(TWO_PI * 0.7)
        assert cfg.params.delta_c == pytest.approx(-TWO_PI * 5.0)
        assert np.isnan(cfg.params.delta_p)  # auto-resolved later
        assert model == "full" and rc.values["n_times"] == 201

    def test_round_trip_exact(self):
        """parse(emit(config echo)) reproduces the RunConfig exactly."""
        rc = parse_config(RABI_CFG, "rabi")
        echoed = "".join(f"{k} = {v}\n" for k, v in rc.provided.items())
        rc2 = parse_config(echoed, "rabi")
        assert rc2.values == rc.values
        assert rc2.provided == rc.provided

    def test_ion_defaults(self):
        rc = parse_config("", "ion-mc")
        cfg = ion_config(rc)
        assert cfg.ramp_field_max == 1e5
        assert cfg.ramp_time == 300.0
        assert cfg.n_atoms == 100

    @pytest.mark.parametrize(
        "experiment,text",
        [
            (
                "lindblad-scan",
                "n_atoms = 3\nomega_c_mhz = 100\nomega_eff_target_mhz = 0.1\n"
                "channel = gamma_e\ngamma_min_mhz = 0.001\ngamma_max_mhz = 0.001\n",
            ),
            (
                "scan-oc",
                "n_atoms = 3\nomega_eff_target_mhz = 0.1\n"
                "omega_c_min_mhz = 50\nomega_c_max_mhz = 50\n",
            ),
        ],
    )
    def test_degenerate_fit_grid_rejected(self, experiment, text):
        with pytest.raises(ConfigError, match="distinct grid values"):
            parse_config(text, experiment)

    def test_lindblad_rates_converted(self):
        text = RABI_CFG + "gamma_e_mhz = 0.001\nmodel = lindblad\n"
        rc = parse_config(text, "rabi")
        cfg, model = protocol_config(rc)
        assert cfg.rates.gamma_e == pytest.approx(TWO_PI * 1e-3)
        assert model == "lindblad"

    @pytest.mark.parametrize("experiment,text,want", [
        ("rabi", RABI_CFG, "full"),
        ("rabi", RABI_CFG.replace("n_atoms = 4", "n_atoms = 9"), "dicke"),
        ("rabi", RABI_CFG + "gamma_r_mhz = 0.001\n", "lindblad"),
        ("rabi", RABI_CFG + "model = dicke\ngamma_e_mhz = 0\n", "dicke"),
        ("scan-dc", SCAN_DC_CFG, "dicke"),
        ("scan-dc", SCAN_DC_CFG + "gamma_coll_mhz = 0.001\n", "lindblad"),
        ("scan-oc", "n_atoms = 3\nomega_eff_target_mhz = 0.1\n"
         "gamma_d_mhz = 0.001\n", "lindblad"),
        ("scan-n", "poisson_mean = 20\nomega_c_mhz = 20\n"
         "omega_eff_target_mhz = 0.1\n", "dicke"),
        ("lindblad-scan", LINDBLAD_CFG, "lindblad"),
    ], ids=["rabi-n4", "rabi-n9", "rabi-rate", "rabi-model-zero-rate", "scan-dc",
            "scan-dc-rate", "scan-oc-rate", "scan-n", "lindblad-scan"])
    def test_default_model_rule(self, experiment, text, want):
        """The configured model; else lindblad for a lindblad-scan or a
        decay rate > 0; else full for rabi at N <= 8; else dicke."""
        assert protocol_config(parse_config(text, experiment))[1] == want

    @pytest.mark.parametrize("experiment,text", [
        ("rabi", RABI_CFG + "model = full\ngamma_e_mhz = 0.001\n"),
        ("scan-dc", SCAN_DC_CFG + "gamma_d_mhz = 0.001\nmodel = effective2\n"),
        ("scan-oc", "n_atoms = 3\nomega_eff_target_mhz = 0.1\nmodel = dicke\n"
         "gamma_r_mhz = 0.001\n"),
    ], ids=["rabi", "scan-dc", "scan-oc"])
    def test_pure_model_with_decay_rate_refused(self, experiment, text):
        """Only the lindblad model reads the decay rates."""
        with pytest.raises(ConfigError, match=r"invalid value for 'model'.*decay"):
            parse_config(text, experiment)

    @pytest.mark.parametrize("experiment,key", [
        *((e, "n_times") for e in ("scan-dc", "scan-oc", "scan-n", "lindblad-scan")),
        ("scan-dc", "delta_p_mhz"), ("scan-oc", "delta_p_mhz"),
        ("lindblad-scan", "model"),
        *((e, f"gamma_{c}_mhz") for e in ("scan-n", "lindblad-scan")
          for c in ("e", "r", "d", "coll")),
    ])
    def test_key_no_run_reads_is_unknown(self, experiment, key):
        """scan-dc and scan-oc solve delta_p per point, every scan runs a
        fixed time grid, scan-n runs no master equation, and lindblad-scan
        takes its model and its one rate from channel and the grid."""
        schema, _ = SCHEMAS[experiment]
        text = "".join(f"{k} = 1\n" for k, spec in schema.items() if spec.required)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(text + f"{key} = 1\n", experiment)


def run_cli(tmp_path, experiment, text, extra=()):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / f"out-{experiment}"
    code = main([experiment, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


class TestFormatting:
    """write_csv formats whole rows at once; the oracle csv_line formats
    cell by cell, as the CLI once did."""

    @staticmethod
    def written(tmp_path, header, table) -> str:
        path = tmp_path / "table.csv"
        write_csv(path, header, table)
        return path.read_text()

    def test_twelve_significant_digits(self, tmp_path):
        text = self.written(tmp_path, ["a", "b", "c", "d", "e"],
                            [(np.pi, 1.0, None, 3, 2.0 / 3.0)])
        header, row = text.splitlines()
        assert header == "a,b,c,d,e"
        assert row.split(",")[:4] == ["3.14159265359", "1", "", "3"]
        assert len(row.split(",")[4].replace("0.", "")) == 12

    def test_matches_cell_by_cell_reference(self, tmp_path):
        header = ["n", "x", "y", "z"]
        table = [
            (3, np.pi, None, 2.0 / 3.0),
            (2000, -0.0, float("nan"), 5e-324),
            (0, 1e300, -1e300, np.inf),
            (-7, -np.inf, 1.0, NO_HERALD_EPS),
            (999999999999, None, None, None),
        ]
        want = "n,x,y,z\n" + "".join(csv_line(row) for row in table)
        assert self.written(tmp_path, header, table) == want

    @pytest.mark.parametrize("table", [
        [],
        np.empty((0, 3)),
        [(1.5, float("nan"), None)],
        np.array([[np.nan, np.nan, np.nan], [0.1, np.nan, -2.0]]),
    ], ids=["no-rows", "empty-array", "one-row", "nan-cells"])
    def test_edge_tables_match_reference(self, tmp_path, table):
        """The whole table is formatted in one go: a table with no rows
        writes the header alone, and NaN cells are empty in every row."""
        want = "a,b,c\n" + "".join(csv_line(row) for row in table)
        assert self.written(tmp_path, ["a", "b", "c"], table) == want

    def test_trajectory_with_undefined_first_rows(self, tmp_path):
        """A probe so weak that p_ryd <= NO_HERALD_EPS over the first rows:
        their infidelity cells are empty, as the per-row herald formula and
        the cell-by-cell writer gave them."""
        text = RABI_CFG + "pulse_time_us = 4e-4\nn_times = 11\n"
        code, out = run_cli(tmp_path, "rabi", text)
        assert code == 0
        cfg, model = protocol_config(parse_config(text, "rabi"))
        traj = run_protocol(cfg, model, 11).trajectory
        cols = ("p_G", "p_E", "p_R", "p_E2", "p_ER", "p_ryd")
        rows = []
        for k, t in enumerate(traj.times.tolist()):
            p_ryd, p_er = traj.populations["p_ryd"][k], traj.populations["p_ER"][k]
            infid = None if p_ryd <= NO_HERALD_EPS else (p_ryd - p_er) / p_ryd
            rows.append([t, *(traj.populations[c][k] for c in cols), infid])
        assert rows[0][-1] is None and rows[-1][-1] is not None
        want = ("time_us," + ",".join(cols) + ",infidelity\n"
                + "".join(csv_line(row) for row in rows))
        assert (out / "trajectory.csv").read_text() == want


class TestMainEntry:
    def test_rabi_run(self, tmp_path):
        code, out = run_cli(tmp_path, "rabi", RABI_CFG)
        assert code == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "time_us,p_G,p_E,p_R,p_E2,p_ER,p_ryd,infidelity"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "rabi"
        for key in (
            "omega_p_mhz", "delta_p_mhz", "omega_eff_mhz", "pulse_time_us",
            "omega_eff_rad_per_us",
        ):
            assert key in summary["resolved"]

    def test_rabi_er_peaks_near_pi_pulse(self, tmp_path):
        code, out = run_cli(tmp_path, "rabi", RABI_CFG)
        assert code == 0
        rows = np.genfromtxt(
            out / "trajectory.csv", delimiter=",", names=True
        )
        summary = json.loads((out / "summary.json").read_text())
        t_pi = np.pi / (TWO_PI * summary["resolved"]["omega_eff_mhz"])
        t_peak = rows["time_us"][np.argmax(rows["p_ER"])]
        assert t_peak == pytest.approx(t_pi, rel=0.15)

    def test_deterministic_outputs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, out1 = run_cli(tmp_path / "a", "rabi", RABI_CFG)
        _, out2 = run_cli(tmp_path / "b", "rabi", RABI_CFG)
        assert (out1 / "trajectory.csv").read_bytes() == (
            out2 / "trajectory.csv"
        ).read_bytes()
        strip = lambda p: re.sub(
            r'"timestamp": "[^"]*"', "", (p / "summary.json").read_text()
        )
        assert strip(out1) == strip(out2)

    def test_scan_dc_outputs(self, tmp_path):
        text = (
            "n_atoms = 3\nomega_c_mhz = 20\nomega_eff_target_mhz = 0.1\n"
            "ratio_min = -1.0\nratio_max = -0.4\nn_points = 4\n"
        )
        code, out = run_cli(tmp_path, "scan-dc", text)
        assert code == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "delta_c_over_omega_c,success,infidelity"
        assert len(lines) == 5
        summary = json.loads((out / "summary.json").read_text())
        assert "minimum" in summary["results"]

    def test_ion_mc_with_seed_key(self, tmp_path):
        text = "n_trajectories = 4\nn_atoms = 10\nseed = 7\n"
        code, out = run_cli(tmp_path, "ion-mc", text)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["resolved"]["rng_seed"] == 7
        assert summary["results"]["escape_time_ns"] == pytest.approx(25.4, rel=0.3)
        curve = (out / "scan.csv").read_text().splitlines()
        assert curve[0] == "phase_threshold_rad,fraction_significant"

    def test_ion_mc_no_escape_within_horizon(self, tmp_path):
        """The ion escapes at about 25 ns; a 5 ns horizon ends before that, so
        the escape time and the ramp-field phase at escape are both undefined,
        not the phase at the ballistic escape time past the horizon."""
        text = "n_trajectories = 2\nn_atoms = 3\nmax_time_ns = 5\n"
        code, out = run_cli(tmp_path, "ion-mc", text)
        assert code == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["escape_time_ns"] is None
        assert results["external_field_phase_rad"] is None

    def test_seed_flag_refused(self, tmp_path, capsys):
        """The seed is set only by the config's seed key, which is checked."""
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "ion-mc", "n_trajectories = 2\nn_atoms = 3\n",
                    extra=["--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out-ion-mc").exists()

    @pytest.mark.parametrize("field", ["5e-324", "1e-310"])
    def test_ion_mc_subnormal_ramp_field(self, tmp_path, field):
        """A field so weak that q*E underflows to 0 exerts no force: no escape."""
        text = (
            f"n_trajectories = 1\nramp_field_max_v_per_m = {field}\n"
            "max_time_ns = 1.0\n"
        )
        code, out = run_cli(tmp_path, "ion-mc", text)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["escape_time_ns"] is None

    def test_config_error_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, "rabi", "nonsense = 1\n")
        assert code == 2

    def test_missing_file_exit_code(self, tmp_path):
        code = main(
            ["rabi", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_capacity_exit_code(self, tmp_path):
        text = RABI_CFG.replace("n_atoms = 4", "n_atoms = 10") + "model = full\n"
        code, _ = run_cli(tmp_path, "rabi", text)
        assert code == 3

    def test_density_matrix_capacity_exit_code(self, tmp_path):
        """N=5 exceeds the product-space density-matrix limit (N <= 4)."""
        text = RABI_CFG.replace("n_atoms = 4", "n_atoms = 5")
        text += "gamma_e_mhz = 0.001\n"
        start = time.perf_counter()
        code, out = run_cli(tmp_path, "rabi", text)
        assert code == 3
        assert time.perf_counter() - start < 10.0  # refused before integrating
        assert not out.exists()

    def test_scan_dc_all_points_undefined_exit_code(self, tmp_path):
        text = (
            "n_atoms = 3\nomega_c_mhz = 20\nomega_eff_target_mhz = 0.1\n"
            "ratio_min = -1.0\nratio_max = -0.4\nn_points = 4\n"
            "pulse_time_us = 1e-9\n"
        )
        code, out = run_cli(tmp_path, "scan-dc", text)
        assert code == 4
        assert not out.exists()

    def test_underflowing_probe_exit_code(self, tmp_path, capsys):
        """omega_p^2 underflows to 0, so there is no pi-pulse time."""
        text = RABI_CFG.replace("omega_p_mhz = 0.7", "omega_p_mhz = 1e-200")
        code, out = run_cli(tmp_path, "rabi", text)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "effective coupling" in err[0]
        assert not out.exists()

    def test_eigensolver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        """The propagator's eigh fails; the reduction's batched 2x2 eigh
        (a 3-D stack) still runs."""
        real = np.linalg.eigh

        def fail(a, *args, **kwargs):
            if np.ndim(a) == 2:
                raise np.linalg.LinAlgError("did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr("superatom.dynamics.np.linalg.eigh", fail)
        code, out = run_cli(tmp_path, "rabi", RABI_CFG + "model = dicke\n")
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "did not converge" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("experiment,text", [
        ("rabi", RABI_CFG + f"n_times = {10**15}\n"),
        ("scan-dc", SCAN_DC_CFG.replace("n_points = 4", f"n_points = {10**15}")),
        ("ion-mc", f"n_trajectories = {10**15}\n"),
    ], ids=["rabi-n-times", "scan-dc-n-points", "ion-mc-n-trajectories"])
    def test_unallocatable_count_exit_code(self, tmp_path, capsys, experiment,
                                           text):
        """A count whose first array needs more than the 128 TiB user address
        space cannot be mapped at all: a capacity error, with no output."""
        code, out = run_cli(tmp_path, experiment, text)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("capacity error: ")
        assert not out.exists()

    def test_non_hermitian_hamiltonian_exit_code(self, tmp_path, capsys,
                                                 monkeypatch):
        """A non-Hermitian H from a patched build_dicke_hamiltonian is an
        internal failure (exit 4), not a configuration error."""
        from superatom import protocol

        real = protocol.build_dicke_hamiltonian

        def skewed(params, spec):
            h = real(params, spec)
            h[0, 1] += 1.0
            return h

        monkeypatch.setattr(protocol, "build_dicke_hamiltonian", skewed)
        code, _ = run_cli(tmp_path, "rabi", RABI_CFG + "model = dicke\n")
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: Hamiltonian is not Hermitian"]

    @pytest.mark.parametrize("workers", ["0", "-2", "two", "2"])
    def test_bad_workers_flag_exit_code(self, tmp_path, capsys, workers):
        """--workers survives only as 1, for compatibility; scans run in
        the calling process."""
        code, out = run_cli(
            tmp_path, "scan-dc", SCAN_DC_CFG, extra=["--workers", workers]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: --workers must be 1, got '{workers}'"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,text,message",
        [
            pytest.param(
                "scan-oc",
                "n_atoms = 3\nomega_eff_target_mhz = 0.1\nn_points = 3\n"
                "pulse_time_us = 1e-9\n",
                "infidelity undefined at omega_c = 20 MHz",
                id="scan-oc",
            ),
            pytest.param(
                "scan-oc",
                "n_atoms = 3\nomega_eff_target_mhz = 0.1\nn_points = 3\n"
                "model = effective2\n",
                "infidelity 0 at omega_c = 20 MHz",
                id="scan-oc-zero",
            ),
            pytest.param(
                "lindblad-scan",
                "n_atoms = 2\nomega_c_mhz = 20\nomega_eff_target_mhz = 0.1\n"
                "channel = gamma_e\ngamma_max_mhz = 0.01\nn_points = 2\n"
                "pulse_time_us = 1e-9\n",
                "infidelity undefined at gamma_e = 0 rad/us",
                id="lindblad-scan",
            ),
            pytest.param(
                "scan-n",
                "poisson_mean = 30\nomega_c_mhz = 20\nomega_eff_target_mhz = 0.1\n"
                "pulse_time_us = 1e-9\n",
                "infidelity undefined at every atom number",
                id="scan-n",
            ),
            pytest.param(
                "scan-dc",
                SCAN_DC_CFG + "pulse_time_us = 5e-324\n",
                "infidelity undefined at every scan point",
                id="scan-dc-pulse",
            ),
        ],
    )
    def test_undefined_infidelity_exit_code(self, tmp_path, capsys, experiment,
                                            text, message):
        """A fit, minimum or average over points without a defined infidelity
        exits 4.  A scan point's only output time is its pulse end, so even
        a subnormal pulse_time_us parses and runs: no ion is heralded."""
        code, _ = run_cli(tmp_path, experiment, text, extra=["--workers", "1"])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]

    def test_summary_is_strict_json(self, tmp_path):
        """Without a ramp field the ion never escapes: the escape time is
        undefined and written as null, not as the non-JSON Infinity."""
        text = ("n_trajectories = 2\nn_atoms = 3\nramp_field_max_v_per_m = 0\n"
                "max_time_ns = 20\n")
        code, out = run_cli(tmp_path, "ion-mc", text)
        assert code == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["results"]["escape_time_ns"] is None

    def test_round12_maps_non_finite_to_none(self):
        got = _round12({"a": [np.inf, -np.inf], "b": np.float64("nan"),
                        "c": 1 / 3})
        assert got == {"a": [None, None], "b": None, "c": 0.333333333333}

    @pytest.mark.parametrize("experiment,text", [
        ("rabi", RABI_CFG.replace("n_atoms = 4", "n_atoms = 1")),
        ("scan-dc", SCAN_DC_CFG.replace("n_atoms = 3", "n_atoms = 1")),
        ("scan-oc", "n_atoms = 1\nomega_eff_target_mhz = 0.1\n"),
        ("lindblad-scan", "n_atoms = 1\nomega_c_mhz = 20\n"
         "omega_eff_target_mhz = 0.1\nchannel = gamma_e\ngamma_max_mhz = 0.01\n"),
    ])
    def test_single_atom_protocol_rejected(self, tmp_path, capsys, experiment,
                                           text):
        """The protocol targets |2+>, two excitations: N = 1 is refused
        while parsing, before any output is written."""
        code, out = run_cli(tmp_path, experiment, text)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid value for 'n_atoms'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("mean,half_width", [("15", "6"), ("30", "3")])
    def test_thin_poisson_window_rejected(self, tmp_path, capsys, mean,
                                          half_width):
        """A Poisson mean whose window (N >= 2, half_width_sigmas) misses
        more than 1e-6 of the mass is refused while parsing."""
        text = (f"poisson_mean = {mean}\nomega_c_mhz = 20\n"
                f"omega_eff_target_mhz = 0.1\nhalf_width_sigmas = {half_width}\n")
        code, out = run_cli(tmp_path, "scan-n", text)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid value for 'poisson_mean'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("model", ["lindblad", "full"])
    def test_scan_n_model_that_cannot_finish_refused(self, tmp_path, capsys,
                                                     monkeypatch, model):
        """Covering 1 - 1e-6 of the Poisson mass with N >= 2 takes a mean of
        about 17, whose window reaches past the master equation's N <= 4 and
        the product basis's N <= 8.  Both models are refused while parsing."""
        def refuse(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr("superatom.protocol.run_protocol", refuse)
        text = ("poisson_mean = 17\nomega_c_mhz = 20\n"
                f"omega_eff_target_mhz = 0.1\nmodel = {model}\n")
        code, out = run_cli(tmp_path, "scan-n", text)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid value for 'model'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("experiment,text,key", [
        ("ion-mc", "n_trajectories = 1\ntime_step_ns = 0.11\n", "time_step_ns"),
        ("rabi", RABI_CFG + "pulse_time_us = 5e-324\n", "pulse_time_us"),
        ("jc-demo", "n_atoms = 3\nomega_p_mhz = 1\nomega_c_mhz = 10\n"
         "probe_pulse_time_us = 0.2\ntotal_time_us = 5e-324\n", "total_time_us"),
        ("rabi", RABI_CFG.replace("omega_c_mhz = 10", "omega_c_mhz = 1e300"),
         "omega_c_mhz"),
        ("rabi", RABI_CFG.replace("delta_c_over_omega_c = -0.5",
                                  "delta_c_mhz = 1e300"), "delta_c_mhz"),
        ("scan-dc", SCAN_DC_CFG.replace("omega_c_mhz = 20", "omega_c_mhz = 1e300"),
         "omega_c_mhz"),
        ("ion-mc", "n_trajectories = 1\nsoftening_radius_um = 1e300\n",
         "softening_radius_um"),
        ("ion-mc", "n_trajectories = 1\nramp_field_max_v_per_m = 1e300\n",
         "ramp_field_max_v_per_m"),
        ("ion-mc", "n_trajectories = 1\nramp_time_ns = 1e300\nmax_time_ns = 50\n",
         "ramp_time_ns"),
        ("ion-mc", "n_trajectories = 1\nramp_field_max_v_per_m = 0\n"
         "time_step_ns = 1e-300\nmax_time_ns = 1e300\n", "time_step_ns"),
        ("ion-mc", "n_trajectories = 1\nramp_time_ns = 1e5\n", "time_step_ns"),
        ("ion-mc", "n_trajectories = 1\nion_mass_amu = 1e-300\n", "ion_mass_amu"),
        ("ion-mc", "n_trajectories = 1\nion_mass_amu = 0.5\n", "ion_mass_amu"),
        ("lindblad-scan", LINDBLAD_CFG.replace("gamma_max_mhz = 0.001",
                                               "gamma_max_mhz = 1e-300"),
         "gamma_max_mhz"),
        ("ion-mc", "n_trajectories = 1\ndifferential_polarizability_si = 1e300\n",
         "differential_polarizability_si"),
        ("ion-mc", "n_trajectories = 1\ntrap_volume_um3 = 1e60\n", "trap_volume_um3"),
        ("ion-mc", "n_trajectories = 1\ntrap_diameter_um = 1e12\n", "trap_diameter_um"),
    ], ids=["ion-step", "rabi-pulse", "jc-total-time",
            "rabi-omega-c", "rabi-delta-c", "scan-dc-omega-c", "ion-softening",
            "ion-field", "ion-ramp-time", "ion-step-count", "ion-default-horizon",
            "ion-mass-underflow", "ion-mass-below-proton", "lindblad-gamma-subnormal",
            "ion-polarizability", "ion-trap-volume", "ion-trap-diameter"])
    def test_unrunnable_value_rejected_while_parsing(self, tmp_path, capsys,
                                                      monkeypatch, experiment,
                                                      text, key):
        """An ion step above 0.1 ns or beyond ION_MAX_STEPS over the horizon,
        a duration too short for distinct output times, or a value beyond
        its schema bounds (which would overflow or underflow) is a
        configuration error that names its key.  No ion trajectory is
        stepped and no master equation integrated."""
        def refuse(*args, **kwargs):
            raise AssertionError("a run was started")

        monkeypatch.setattr("superatom.cli.simulate_escape", refuse)
        monkeypatch.setattr("superatom.cli.scan_decoherence", refuse)
        code, out = run_cli(tmp_path, experiment, text)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"invalid value for '{key}'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("experiment,text", [
        ("lindblad-scan", LINDBLAD_CFG + "pulse_time_us = 1e9\n"),
        ("lindblad-scan", LINDBLAD_CFG.replace("omega_c_mhz = 100",
                                               "omega_c_mhz = 1e9")),
        ("lindblad-scan", LINDBLAD_CFG.replace("gamma_max_mhz = 0.001",
                                               "gamma_max_mhz = 1e9")),
        ("lindblad-scan", LINDBLAD_CFG + "delta_p_mhz = -1e9\n"),
        ("lindblad-scan", LINDBLAD_CFG.replace("omega_eff_target_mhz = 0.1",
                                               "omega_eff_target_mhz = 1e-300")),
        ("rabi", RABI_CFG + "gamma_e_mhz = 0.01\npulse_time_us = 1e9\n"),
        ("rabi", RABI_CFG + "model = lindblad\npulse_time_us = 1e4\n"),
    ], ids=["scan-pulse", "scan-omega-c", "scan-gamma", "scan-delta-p",
            "scan-target", "rabi-decay-pulse", "rabi-lindblad-pulse"])
    def test_master_equation_work_refused_while_parsing(self, tmp_path, capsys,
                                                        monkeypatch, experiment,
                                                        text):
        """A master-equation run whose T * (||H|| + ||K||) exceeds
        LINDBLAD_MAX_WORK exits 3 before any output is written; DOP853 is
        never started.  The parser no longer checks the work: a rabi run is
        checked as its master equation starts, and a lindblad-scan at its
        largest rate before its first point runs (the scan-gamma case would
        otherwise start DOP853 at its first rate, 0)."""
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("DOP853 was started")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
        code, out = run_cli(tmp_path, experiment, text)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("capacity error: master-equation work")
        assert not out.exists()

    def test_master_equation_work_refused_per_scan_point(self, tmp_path, capsys,
                                                          monkeypatch):
        """A scan under model = lindblad solves its probe per point, so each
        point is checked as its master equation starts (exit 3)."""
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("DOP853 was started")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
        code, _ = run_cli(tmp_path, "scan-dc",
                          SCAN_DC_CFG + "model = lindblad\npulse_time_us = 1e9\n")
        assert code == 3
        assert "master-equation work" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,text", [
        ("lindblad-scan", LINDBLAD_CFG),
        ("lindblad-scan", LINDBLAD_CFG.replace("n_atoms = 3", "n_atoms = 4")),
        ("rabi", RABI_CFG.replace("omega_c_mhz = 10", "omega_c_mhz = 20")
         .replace("omega_p_mhz = 0.7", "omega_eff_target_mhz = 0.1")
         + "gamma_e_mhz = 0.00115\n"),
    ], ids=["example-config", "n4", "benchmark-rabi-n4"])
    def test_master_equation_configs_well_inside_the_work_cap(
            self, tmp_path, monkeypatch, experiment, text):
        """configs/lindblad_gamma_e_n3.cfg (the criterion-6 point), its N = 4
        twin and the benchmark's N = 4 decay run pass the run's own work
        checks with a cap five times lower: each run reaches DOP853, where
        the test stops it.  A lindblad-scan has checked its largest rate,
        and its first rate, by then."""
        import scipy.integrate

        from superatom import dynamics

        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr(scipy.integrate, "solve_ivp", started)
        monkeypatch.setattr(dynamics, "LINDBLAD_MAX_WORK",
                            dynamics.LINDBLAD_MAX_WORK / 5)
        with pytest.raises(Started):
            run_cli(tmp_path, experiment, text)

    @pytest.mark.parametrize("experiment,text,key", [
        ("rabi", RABI_CFG.replace("n_atoms = 4", "n_atoms = 10000000"), "n_atoms"),
        ("scan-n", "poisson_mean = 1e300\nomega_c_mhz = 20\n"
         "omega_eff_target_mhz = 0.1\n", "poisson_mean"),
        ("scan-n", "poisson_mean = 1e20\nomega_c_mhz = 20\n"
         "omega_eff_target_mhz = 0.1\n", "poisson_mean"),
    ], ids=["rabi-1e7", "scan-n-1e300", "scan-n-1e20"])
    def test_dicke_capacity_refused_while_parsing(self, tmp_path, capsys,
                                                  experiment, text, key):
        """An atom number, or a Poisson window top, above N_MAX_DICKE exits 3
        before any output is written."""
        code, out = run_cli(tmp_path, experiment, text)
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("capacity error: line ")
        assert f"'{key}'" in err[0] and str(N_MAX_DICKE) in err[0]
        assert not out.exists()

    def test_dicke_limit_admits_the_largest_window(self):
        """The lambda = 1e3 window (N up to 1190) and N = N_MAX_DICKE parse."""
        rc = parse_config("poisson_mean = 1000\nomega_c_mhz = 20\n"
                          "omega_eff_target_mhz = 0.1\n", "scan-n")
        assert PoissonEnsemble.from_mean(rc.values["poisson_mean"]).n_max == 1190
        text = RABI_CFG.replace("n_atoms = 4", f"n_atoms = {N_MAX_DICKE}")
        assert parse_config(text, "rabi").values["n_atoms"] == N_MAX_DICKE

    def test_unreadable_config_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"n_atoms = \xff\n")
        code = main(["rabi", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("under", [False, True],
                             ids=["existing_file", "file_as_parent"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, under):
        """An --out that is an existing file, or lies under one, cannot be
        created: a configuration error on one line, as for an unreadable
        --config, and the file is left as it was."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RABI_CFG)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken / "out" if under else taken
        code = main(["rabi", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error: cannot write --out: ")
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("taken", ["summary.json", "trajectory.csv"])
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, taken):
        """When one of the two files cannot be written (its name is an
        existing directory), the run exits 2 and leaves no file of its own
        in --out, not even the one that could be written."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RABI_CFG)
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        code = main(["rabi", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error: cannot write --out: ")
        assert [p.name for p in out.iterdir()] == [taken]
        assert not any((out / taken).iterdir())

    def test_value_error_in_a_run_is_not_a_config_error(self, tmp_path, capsys,
                                                        monkeypatch):
        """Only parse-time errors and BasisError refusals exit 2; any other
        ValueError is a fault in the program and is not reported as one."""
        from superatom import cli

        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "run_protocol", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run_cli(tmp_path, "rabi", RABI_CFG)
        assert "configuration error" not in capsys.readouterr().err

    def test_jc_demo(self, tmp_path):
        text = (
            "n_atoms = 8\nomega_p_mhz = 1\nomega_c_mhz = 10\n"
            "probe_pulse_time_us = 0.2\ntotal_time_us = 1\nn_times = 51\n"
        )
        code, out = run_cli(tmp_path, "jc-demo", text)
        assert code == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "time_us,p_ryd"

    def test_jc_demo_single_atom(self, tmp_path):
        text = (
            "n_atoms = 1\nomega_p_mhz = 1\nomega_c_mhz = 10\n"
            "probe_pulse_time_us = 0.2\ntotal_time_us = 1\nn_times = 11\n"
        )
        code, _ = run_cli(tmp_path, "jc-demo", text)
        assert code == 0

    def test_jc_demo_numerical_failure_exit_code(self, tmp_path, capsys,
                                                 monkeypatch):
        """A stage-1 state off the unit sphere fails the dressed frame's
        norm check: exit 4, and no output."""
        from superatom import protocol

        real = protocol._probe_rotation
        monkeypatch.setattr(protocol, "_probe_rotation",
                            lambda *args: real(*args) * (1.0 + 1e-9))
        text = (
            "n_atoms = 8\nomega_p_mhz = 1\nomega_c_mhz = 10\n"
            "probe_pulse_time_us = 0.2\ntotal_time_us = 1\nn_times = 51\n"
        )
        code, out = run_cli(tmp_path, "jc-demo", text)
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: norm not conserved in the dressed frame"]
        assert not out.exists()


# A tiny config of each protocol experiment, and for every optional key a
# value away from its default.
_TINY = {
    "rabi": {"n_atoms": "2", "omega_c_mhz": "10", "omega_p_mhz": "0.7",
             "delta_c_over_omega_c": "-0.5"},
    "scan-dc": {"n_atoms": "2", "omega_c_mhz": "10",
                "omega_eff_target_mhz": "0.5", "n_points": "2"},
    "scan-oc": {"n_atoms": "2", "omega_eff_target_mhz": "0.5", "n_points": "2"},
    "scan-n": {"poisson_mean": "17", "omega_c_mhz": "10",
               "omega_eff_target_mhz": "0.5"},
    "lindblad-scan": {"n_atoms": "2", "omega_c_mhz": "10",
                      "omega_eff_target_mhz": "0.5", "channel": "gamma_e",
                      "gamma_max_mhz": "0.01", "n_points": "2"},
}
_OTHER_VALUE = {
    "delta_p_mhz": "3", "pulse_time_us": "0.2", "n_times": "5",
    "gamma_e_mhz": "0.01", "gamma_r_mhz": "0.01", "gamma_d_mhz": "0.01",
    "gamma_coll_mhz": "0.01", "omega_eff_target_mhz": "0.5",
    "delta_c_mhz": "-2", "delta_c_over_omega_c": "-0.7", "ratio_min": "-1",
    "ratio_max": "-0.2", "omega_c_min_mhz": "30", "omega_c_max_mhz": "100",
    "half_width_sigmas": "7", "gamma_min_mhz": "0.005",
}
_OPTIONAL_KEYS = [(e, k) for e in _TINY
                  for k, spec in SCHEMAS[e][0].items() if not spec.required]


class TestEveryKeyReachesTheRun:
    """Each optional key of a protocol experiment changes what reaches
    protocol.run_protocol: a config with the key at a non-default value
    against the same config without it.  A key of an exactly-one pair is
    compared against its partner."""

    @staticmethod
    def recorded_calls(tmp_path, monkeypatch, experiment, keys) -> str:
        """repr of every (cfg, model, n_times) given to run_protocol; the
        decay rates are kept only for the lindblad model, the one that
        reads them."""
        from superatom import cli, protocol

        calls, real = [], protocol.run_protocol

        def recording(cfg, model="dicke", n_times=201):
            kept = cfg if model == "lindblad" else replace(
                cfg, rates=DecoherenceRates())
            calls.append((kept, model, n_times))
            return real(cfg, model, n_times)

        monkeypatch.setattr(protocol, "run_protocol", recording)
        monkeypatch.setattr(cli, "run_protocol", recording)
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        code, _ = run_cli(tmp_path, experiment, text)
        assert code == 0
        return repr(calls)

    @pytest.mark.parametrize("experiment,key", _OPTIONAL_KEYS,
                             ids=[f"{e}-{k}" for e, k in _OPTIONAL_KEYS])
    def test_key_changes_the_run(self, tmp_path, monkeypatch, experiment, key):
        base = _TINY[experiment]
        partner = next((b if a == key else a for a, b, _ in SCHEMAS[experiment][1]
                        if key in (a, b)), None)
        value = base.get(key, _OTHER_VALUE.get(key))
        if key == "model":
            value = "dicke" if experiment == "rabi" else "restricted6"
        with_key = {k: v for k, v in base.items() if k != partner}
        with_key[key] = value
        without = {k: v for k, v in base.items() if k != key}
        if partner and partner not in without:
            without[partner] = _OTHER_VALUE[partner]
        default = SCHEMAS[experiment][0][key].default
        assert default is None or parse_config(
            "".join(f"{k} = {v}\n" for k, v in with_key.items()), experiment
        ).values[key] != default
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert self.recorded_calls(tmp_path / "a", monkeypatch, experiment,
                                   with_key) != self.recorded_calls(
            tmp_path / "b", monkeypatch, experiment, without)


class TestOneResolutionPerRun:
    """protocol is the one module that resolves a config, and it resolves
    each config once: a scan once for its unscanned config and once per
    point, every other run once."""

    @pytest.mark.parametrize("name,resolutions", [
        ("scan_delta_c_n3", 40),  # 39 points
        ("scan_omega_c_n3", 8),  # 7 points
        ("poisson_n100", 1),  # every atom number runs the N = 100 resolution
        ("lindblad_gamma_e_n3", 1),  # the rates do not enter the resolution
        ("rabi_n4", 1),
    ])
    def test_one_reduction_per_resolution(self, tmp_path, monkeypatch, name,
                                          resolutions):
        """Spies on resolve_protocol, the reduction and the |2+> build while
        cli.main runs an example config: none happens while parsing, each
        resolution makes one reduction and one |2+>, and a run makes no
        resolution beyond its points'."""
        from superatom import config, protocol

        calls = []

        def spy(module, fn_name):
            real = getattr(module, fn_name)

            def counted(*args, **kwargs):
                calls.append(fn_name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, fn_name, counted)

        spy(protocol, "resolve_protocol")
        spy(protocol, "second_order_reduction")
        spy(protocol, "_two_plus_in_dicke")
        real_parse = config.parse_config

        def parse(*args):
            before = len(calls)
            rc = real_parse(*args)
            assert len(calls) == before, "the parser resolved or reduced"
            return rc

        monkeypatch.setattr("superatom.cli.parse_config", parse)
        text = (Path(__file__).parents[1] / "configs" / f"{name}.cfg").read_text()
        experiment = re.search(r"^experiment = (\S+)", text, re.M).group(1)
        code, _ = run_cli(tmp_path, experiment, text)
        assert code == 0
        assert {k: calls.count(k) for k in set(calls)} == {
            "resolve_protocol": resolutions,
            "second_order_reduction": resolutions,
            "_two_plus_in_dicke": resolutions,
        }

    def test_resolution_has_one_home(self):
        """The parser holds no resolution, product H, jump operators or work
        check, and the CLI no resolution."""
        from superatom import cli, config

        for name in ("resolve_protocol", "build_product_hamiltonian",
                     "lindblad_operators", "check_lindblad_work"):
            assert not hasattr(config, name), name
        assert not hasattr(cli, "resolve_protocol")


# Runs cli.main on each argv of argv[1] (a JSON list) in a fresh interpreter,
# then prints the exit codes and every scipy module that was imported.
_FRESH_RUN = """\
import json, sys
from superatom.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy"), "processes": sorted(
    m for m in sys.modules
    if m.partition(".")[0] in ("concurrent", "multiprocessing"))}))
"""


class TestImports:
    """superatom-sim starts on numpy alone; scipy loads only for the master
    equation, and no experiment loads a process pool."""

    @staticmethod
    def fresh_run(tmp_path, runs) -> dict:
        argvs = []
        for i, (experiment, text) in enumerate(runs):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(text)
            argvs.append([experiment, "--config", str(cfg),
                          "--out", str(tmp_path / f"out{i}")])
        src = str(Path(superatom.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(argvs)],
                             capture_output=True, text=True, check=True, env=env)
        return json.loads(run.stdout.splitlines()[-1])

    def test_cli_import_loads_no_scipy(self, tmp_path):
        assert self.fresh_run(tmp_path, []) == {
            "codes": [], "scipy": [], "processes": []}

    def test_pure_state_runs_load_no_scipy(self, tmp_path):
        runs = [
            ("rabi", RABI_CFG + "model = dicke\nn_times = 11\n"),
            ("rabi", RABI_CFG + "model = full\nn_times = 11\n"),
            ("scan-n", "poisson_mean = 20\nomega_c_mhz = 20\n"
             "omega_eff_target_mhz = 0.1\n"),
            ("scan-dc", SCAN_DC_CFG),
            ("jc-demo", "n_atoms = 3\nomega_p_mhz = 1\nomega_c_mhz = 10\n"
             "probe_pulse_time_us = 0.2\ntotal_time_us = 1\nn_times = 11\n"),
            ("ion-mc", "n_trajectories = 2\nn_atoms = 3\n"),
        ]
        assert self.fresh_run(tmp_path, runs) == {
            "codes": [0] * 6, "scipy": [], "processes": []}

    def test_master_equation_run_loads_scipy_integrate(self, tmp_path):
        text = (RABI_CFG.replace("n_atoms = 4", "n_atoms = 2")
                + "gamma_e_mhz = 0.01\npulse_time_us = 0.05\nn_times = 3\n")
        got = self.fresh_run(tmp_path, [("rabi", text)])
        assert got["codes"] == [0]
        assert "scipy.integrate" in got["scipy"]


# Configs the schemas accept, each drawn from its experiment's own keys, with
# every knob that sets a run's cost bounded: N <= 3 (scan-n: a Poisson mean
# of 20-40), grids of at most 4 points, at most 12 output times, a few ion
# trajectories over at most 100 ns.  A master-equation rabi run always gets
# an explicit pulse of at most 5 us; target-driven runs last
# pi/omega_eff <= 5 us.


def _num(lo, hi):
    return st.floats(lo, hi).map(repr)


_PULSE_US = st.sampled_from(["1e-9", "1e-6"]) | _num(0.01, 5.0)
_RATES = {k: _num(0.0, 0.05) for k in (
    "gamma_e_mhz", "gamma_r_mhz", "gamma_d_mhz", "gamma_coll_mhz")}
_DELTA_P = {"delta_p_mhz": _num(-20.0, 20.0)}
_PULSE = {"pulse_time_us": _PULSE_US}
_MODEL = {"model": st.sampled_from(MODELS)}
_N_ATOMS = st.sampled_from(["2", "3", "1"])
_OMEGA_C = _num(1.0, 20.0)
_TARGET = _num(0.1, 1.0)
_RATIO = _num(-3.0, 1.0)
_GRID = st.integers(2, 4).map(str)


def _either(draw, a, b):
    """One key of an exactly-one pair."""
    key, value = draw(st.sampled_from([a, b]))
    return {key: draw(value)}


@st.composite
def _decaying(draw, required, optional):
    """Keys of rabi, scan-dc or scan-oc: decay rates only where the model
    reads them (a pure model with a rate > 0 is refused while parsing)."""
    keys = draw(st.fixed_dictionaries(
        required, optional={**_PULSE, **_MODEL, **_RATES, **optional}))
    if keys.get("model", "lindblad") != "lindblad":
        keys = {k: v for k, v in keys.items() if k not in _RATES}
    return keys


@st.composite
def _rabi(draw):
    keys = draw(_decaying({"n_atoms": _N_ATOMS, "omega_c_mhz": _OMEGA_C},
                          {**_DELTA_P, "n_times": st.integers(2, 12).map(str)}))
    keys.update(_either(draw, ("omega_p_mhz", _num(0.5, 5.0)),
                        ("omega_eff_target_mhz", _TARGET)))
    keys.update(_either(draw, ("delta_c_mhz", _num(-20.0, 20.0)),
                        ("delta_c_over_omega_c", _RATIO)))
    lindblad = keys.get("model") == "lindblad" or any(
        float(keys.get(k, "0")) > 0 for k in _RATES)
    if lindblad and "pulse_time_us" not in keys:
        keys["pulse_time_us"] = draw(_PULSE_US)
    return keys


_CONFIGS = {
    "rabi": _rabi(),
    "scan-dc": _decaying(
        {"n_atoms": _N_ATOMS, "omega_c_mhz": _OMEGA_C,
         "omega_eff_target_mhz": _TARGET, "n_points": _GRID},
        {"ratio_min": _RATIO, "ratio_max": _RATIO}),
    "scan-oc": _decaying(
        {"n_atoms": _N_ATOMS, "omega_eff_target_mhz": _TARGET,
         "omega_c_min_mhz": _OMEGA_C, "omega_c_max_mhz": _OMEGA_C,
         "n_points": _GRID},
        {}),
    "scan-n": st.fixed_dictionaries(
        {"poisson_mean": _num(20.0, 40.0), "omega_c_mhz": _OMEGA_C,
         "omega_eff_target_mhz": _TARGET},
        optional={"half_width_sigmas": _num(5.5, 6.0),
                  "delta_c_over_omega_c": _RATIO, **_DELTA_P, **_PULSE,
                  "model": st.sampled_from(SCAN_N_MODELS)}),
    "lindblad-scan": st.fixed_dictionaries(
        {"n_atoms": _N_ATOMS, "omega_c_mhz": _OMEGA_C,
         "omega_eff_target_mhz": _TARGET, "n_points": _GRID,
         "channel": st.sampled_from(["gamma_e", "gamma_r", "gamma_d"]),
         "gamma_max_mhz": _num(1e-4, 0.05)},
        optional={"delta_c_over_omega_c": _RATIO, "gamma_min_mhz": _num(0.0, 0.05),
                  **_DELTA_P, **_PULSE}),
    "jc-demo": st.fixed_dictionaries(
        {"n_atoms": st.integers(1, 30).map(str), "omega_p_mhz": _num(0.1, 5.0),
         "omega_c_mhz": _num(1.0, 50.0), "probe_pulse_time_us": _PULSE_US,
         "total_time_us": _PULSE_US, "n_times": st.integers(2, 50).map(str)}),
    "ion-mc": st.fixed_dictionaries(
        {"n_trajectories": st.integers(1, 3).map(str),
         "max_time_ns": _num(1.0, 100.0),
         "time_step_ns": _num(0.05, 0.12)},
        optional={
            "ramp_field_max_v_per_m": _num(0.0, 1e5),
            "ramp_time_ns": _num(1.0, 300.0),
            "trap_diameter_um": _num(0.5, 2.0),
            "trap_volume_um3": _num(0.5, 2.0),
            "n_atoms": st.integers(2, 10).map(str),
            "ion_mass_amu": _num(1.0, 200.0),
            "phase_threshold_rad": _num(1e-3, 1.0),
            "softening_radius_um": _num(1e-3, 1e-2),
            "seed": st.integers(0, 10).map(str),
            "ion_start": st.sampled_from(["uniform", "center"]),
        }),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_accepted_config_exits_cleanly(experiment, data):
    """Every accepted config ends in exit 0, 2, 3 or 4, a non-zero exit with
    one stderr line, and never an uncaught exception."""
    keys = data.draw(_CONFIGS[experiment], label="config")
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([experiment, "--config", str(cfg), "--out",
                         str(Path(tmp) / "out"), "--workers", "1"])
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.getvalue().splitlines()) == 1
