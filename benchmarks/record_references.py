"""Record references.json: program outputs on every seeded lattice point.

Run from the repository root when the physics is meant to change (never to
make a failing check pass):

    python3 benchmarks/record_references.py

It calls superatom.cli.main in-process on the whole lattice of each seeded
choice in workloads.py, and takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from superatom.cli import main as cli_main  # noqa: E402

from checks import read_csv, read_summary  # noqa: E402
from workloads import (  # noqa: E402
    DC_SHIFTS, GAMMA_MAX_MHZ, ION_SEEDS, OC_PER_DECADE, OC_SHIFTS, POISSON_MEANS,
    dc_key, dc_ratio, ion_mc_experiments, lindblad_experiments, make_workload,
    oc_key, oc_omega_c,
)

WORK = ROOT / ".bench_out" / "record"


def run(exp) -> Path:
    out = WORK / exp.label
    cfg = WORK / f"{exp.label}.cfg"
    cfg.write_text(exp.config_text())
    rc = cli_main([exp.experiment, "--config", str(cfg), "--out", str(out), "--workers", "1"])
    if rc != 0:
        raise SystemExit(f"{exp.label} exited {rc}")
    return out


def scan_table(out: Path, key_of) -> dict:
    return {key_of(x): [s, i] for x, s, i, *_ in read_csv(out / "scan.csv")[1]}


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    sweep = {e.label: e for e in make_workload("sweep", 0)}
    refs: dict = {}

    lo = -(38 + DC_SHIFTS - 1)
    out = run(sweep["scan_dc_n3"].with_values(
        ratio_min=f"{dc_ratio(lo):.2f}", ratio_max=f"{dc_ratio(0):.2f}", n_points=str(1 - lo)))
    refs["scan_dc_n3"] = scan_table(out, dc_key)

    top = OC_SHIFTS - 1 + OC_PER_DECADE
    refs["scan_oc"] = {}
    for label in ("scan_oc_n3", "scan_oc_n50"):
        exp = sweep[label]
        out = run(exp.with_values(omega_c_min_mhz=repr(oc_omega_c(0)),
                                  omega_c_max_mhz=repr(oc_omega_c(top)),
                                  n_points=str(top + 1)))
        refs["scan_oc"][exp.value("n_atoms")] = scan_table(out, oc_key)

    refs["scan_n"] = {}
    for lam in POISSON_MEANS:
        out = run(sweep["scan_n_poisson"].with_values(poisson_mean=str(lam)))
        refs["scan_n"][str(lam)] = read_summary(out)["results"]

    refs["lindblad_scan_n3"], refs["rabi_lindblad_n4"] = {}, {}
    for g in GAMMA_MAX_MHZ:
        exps = {e.label: e for e in lindblad_experiments(g)}
        out = run(exps["lindblad_scan_n3"])
        refs["lindblad_scan_n3"][g] = [r[1:3] for r in read_csv(out / "scan.csv")[1]]
        res = read_summary(run(exps["rabi_lindblad_n4"]))["results"]
        refs["rabi_lindblad_n4"][g] = {k: res[k] for k in ("success_probability", "infidelity")}

    refs["ion_mc"] = {}
    for seed in range(ION_SEEDS):
        res = read_summary(run(ion_mc_experiments(seed)[0]))["results"]
        refs["ion_mc"][str(seed)] = {
            k: res[k] for k in ("escape_time_ns", "fraction_significant")}

    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
