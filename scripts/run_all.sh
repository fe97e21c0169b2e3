#!/usr/bin/env bash
# Run every example experiment into results/<name>/, with the package from
# this checkout's src/ (installed or not).
# Usage: scripts/run_all.sh [results_dir]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/results}"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

run() { # experiment config-name
    echo "== $1 ($2) =="
    python3 -m superatom.cli "$1" --config "$root/configs/$2.cfg" --out "$out/$2"
}

run rabi rabi_n4
run scan-dc scan_delta_c_n3
run scan-n poisson_n100
run scan-oc scan_omega_c_n3
run lindblad-scan lindblad_gamma_e_n3
run ion-mc ion_escape_default
run jc-demo jc_collapse_revival_n20

echo "done; outputs in $out"
