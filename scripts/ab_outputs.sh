#!/usr/bin/env bash
# Check that the working tree writes the same outputs as revision REV.
# Both trees run this checkout's scripts/run_all.sh, the benchmark's
# configs that this checkout's benchmarks/workloads.py makes (sweep at
# seeds 0-3, trajectory at 0-2, and lindblad and ion_mc at 0), and example
# configs under other models or rates, so that every propagation path and
# every master-equation channel runs: configs/rabi_n4.cfg under each of the
# five models and under lindblad with every decay rate above 0,
# poisson_n100.cfg and scan_delta_c_n3.cfg under restricted6 and
# effective2, and lindblad_gamma_e_n3.cfg on channels gamma_r and gamma_d.
# The two result directories are then compared, ignoring the timestamp in
# summary.json.
# Prints nothing (exit 0) when every CSV is byte-identical and every
# summary.json differs only in its timestamp.  Otherwise prints one line
# per moved CSV cell (run, file, row, column, old -> new, |delta|), per
# changed summary.json leaf (its key path) and per file that only one
# side wrote, then exits 1.  REV is unpacked with `git archive`;
# temporary files go under $TMPDIR (default /tmp).
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
python3 - "$root/benchmarks" "$tmp/cfg" "$root/configs" >"$tmp/runs" <<'EOF'
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from workloads import make_workload

out, configs = Path(sys.argv[2]), Path(sys.argv[3])
out.mkdir()
for workload, seeds in (("sweep", 4), ("trajectory", 3), ("lindblad", 1),
                       ("ion_mc", 1)):
    for seed in range(seeds):
        for exp in make_workload(workload, seed):
            name = f"{workload}_s{seed}_{exp.label}"
            (out / f"{name}.cfg").write_text(exp.config_text())
            print(exp.experiment, name)


def variant(config, experiment, suffix, append="", swap=("", "")):
    """One run of an example config, with `swap` replaced and `append` added."""
    name = f"{config}_{suffix}"
    text = (configs / f"{config}.cfg").read_text().replace(*swap)
    (out / f"{name}.cfg").write_text(text + append)
    print(experiment, name)


for model in ("full", "dicke", "restricted6", "effective2", "lindblad"):
    variant("rabi_n4", "rabi", model, f"model = {model}\n")
for config, experiment in (("poisson_n100", "scan-n"), ("scan_delta_c_n3", "scan-dc")):
    for model in ("restricted6", "effective2"):
        variant(config, experiment, model, f"model = {model}\n")
for channel in ("gamma_r", "gamma_d"):
    variant("lindblad_gamma_e_n3", "lindblad-scan", channel,
            swap=("channel = gamma_e", f"channel = {channel}"))
variant("rabi_n4", "rabi", "lindblad_all_rates",
        "model = lindblad\ngamma_e_mhz = 0.01\ngamma_r_mhz = 0.002\n"
        "gamma_d_mhz = 0.005\ngamma_coll_mhz = 0.003\n")
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
python3 - "$tmp/A" "$tmp/B" <<'EOF'
import csv
import json
import sys
from pathlib import Path

a_root, b_root = Path(sys.argv[1]), Path(sys.argv[2])


def files(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def leaves(obj, path=""):
    """{key path: value} of every leaf of a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj}
    out = {}
    for k, v in items:
        out.update(leaves(v, f"{path}.{k}" if path else str(k)))
    return out


def delta(old, new):
    try:
        return f"  |d| {abs(float(new) - float(old)):.3g}"
    except ValueError:  # an empty (undefined) cell
        return ""


lines = []
a_files, b_files = files(a_root), files(b_root)
for rel in sorted(a_files ^ b_files):
    lines.append(f"{rel}: only in {'REV' if rel in a_files else 'the working tree'}")
for rel in sorted(a_files & b_files):
    a, b = a_root / rel, b_root / rel
    run, name = rel.parent, rel.name
    if rel.suffix == ".json":
        old, new = (leaves(json.loads(f.read_text())) for f in (a, b))
        for key in sorted(old.keys() | new.keys()):
            if key != "timestamp" and old.get(key) != new.get(key):
                lines.append(f"{run} {name} {key}: {old.get(key)!r} -> "
                             f"{new.get(key)!r}")
    elif rel.suffix == ".csv":
        old, new = (list(csv.reader(f.open())) for f in (a, b))
        if old[:1] != new[:1] or len(old) != len(new):
            lines.append(f"{run} {name}: header or row count differs")
            continue
        header = old[0]
        for i, (ro, rn) in enumerate(zip(old[1:], new[1:]), start=1):
            for col, co, cn in zip(header, ro, rn):
                if co != cn:
                    lines.append(f"{run} {name} row {i} {col}: {co or '(empty)'} "
                                 f"-> {cn or '(empty)'}{delta(co, cn)}")
    elif a.read_bytes() != b.read_bytes():
        lines.append(f"{run} {name}: differs")
for line in lines:
    print(line)
sys.exit(1 if lines else 0)
EOF
