#!/usr/bin/env bash
# Check that the working tree writes the same outputs as revision REV.
# Both trees run this checkout's scripts/run_all.sh, and the benchmark's
# configs that this checkout's benchmarks/workloads.py makes: sweep at
# seeds 0-3, trajectory at 0-2, and lindblad and ion_mc at 0.  The two
# result directories are then diffed, ignoring the timestamp in
# summary.json.
# Prints nothing (exit 0) when every CSV is byte-identical and every
# summary.json differs only in its timestamp.  REV is unpacked with
# `git archive`; temporary files go under $TMPDIR (default /tmp).
# Usage: scripts/ab_outputs.sh REV
set -euo pipefail

rev="${1:?usage: scripts/ab_outputs.sh REV}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
cp "$root/scripts/run_all.sh" "$tmp/rev/scripts/run_all.sh"

# One line per benchmark run: "<experiment> <config name>".
python3 - "$root/benchmarks" "$tmp/cfg" >"$tmp/runs" <<'EOF'
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from workloads import make_workload

out = Path(sys.argv[2])
out.mkdir()
for workload, seeds in (("sweep", 4), ("trajectory", 3), ("lindblad", 1),
                       ("ion_mc", 1)):
    for seed in range(seeds):
        for exp in make_workload(workload, seed):
            name = f"{workload}_s{seed}_{exp.label}"
            (out / f"{name}.cfg").write_text(exp.config_text())
            print(exp.experiment, name)
EOF

outputs() { # tree results_dir
    "$1/scripts/run_all.sh" "$2" >/dev/null
    while read -r experiment name; do
        PYTHONPATH="$1/src" python3 -m superatom.cli "$experiment" \
            --config "$tmp/cfg/$name.cfg" --out "$2/bench/$name" </dev/null
    done <"$tmp/runs"
}

outputs "$tmp/rev" "$tmp/A"
outputs "$root" "$tmp/B"
diff -r -I '"timestamp"' "$tmp/A" "$tmp/B"
