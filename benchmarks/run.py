"""Benchmark superatom-sim end to end on one workload, or on all four.

Usage (from the repository root):

    python3 benchmarks/run.py --workload {sweep,trajectory,lindblad,ion_mc,all}
                              [--seed N] [--seconds S] [--trace 0|1]

The configs are made from the seed (workloads.py).  Each iteration is a
fresh run process (runner.py) that imports superatom and calls
superatom.cli.main once per experiment, as a user's superatom-sim
invocations would; iterations repeat until --seconds have passed.  After
the clock stops every output is checked (checks.py).  The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer metrics of traced iterations,
interleaved with untraced ones to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import LAYERS, ROOT, layer_metrics
from workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

BLAS_THREADS = 1  # 2 OpenBLAS threads made single scan-oc runs 20x slower at random
WORKERS = 1  # in-process: no span is lost in a pool worker
MIN_SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # one invocation must end within 180 s

WORK_UNITS = {
    "sweep": "protocol points",
    "trajectory": "trajectory rows written",
    "lindblad": "master-equation points",
    "ion_mc": "ion trajectories",
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = tuple(
    (f"{layer}.{kind}", unit)
    for layer in LAYERS
    for kind, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))
) + (
    ("dynamics.propagate_pure.dim3_computed", "count"),
    ("dynamics.propagate_pure.out_bytes_computed", "B"),
    ("dynamics.evolve_lindblad.out_bytes_computed", "B"),
    ("ion_escape.trajectories", "count"),
    ("ion_escape.ms_per_trajectory", "ms"),
    ("ion_escape.escaped_frac", "fraction"),
    ("cli.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
)


class Run:
    """The work directory and run processes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.experiments = make_workload(workload, seed)
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(
            os.environ,
            PYTHONPATH=str(CHECKOUT / "src"),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )
        self.configs = {}
        for exp in self.experiments:
            path = work / f"{exp.label}.cfg"
            path.write_text(exp.config_text())
            self.configs[exp.label] = path
        self.spawned = 0

    def spawn(self, argvs: list, trace: bool) -> dict | None:
        """One run process; its result, with setup_s, or None if it failed."""
        tag = f"proc{self.spawned}"
        self.spawned += 1
        spec = self.work / f"{tag}.spec.json"
        result = self.work / f"{tag}.result.json"
        spec.write_text(json.dumps(
            {"argvs": argvs, "trace": int(trace), "run_id": tag, "result": str(result)}))
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "runner.py"), str(spec)],
                env=self.env, stdout=sys.stderr,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            print(f"{tag}: run process timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"{tag}: run process exited {proc.returncode}", file=sys.stderr)
            return None
        out = json.loads(result.read_text())
        out["setup_s"] = out["imported_at"] - started
        return out

    def iteration(self, index: int, trace: bool) -> dict:
        outdirs = {e.label: self.work / f"it{index}" / e.label for e in self.experiments}
        argvs = [
            [e.experiment, "--config", str(self.configs[e.label]),
             "--out", str(outdirs[e.label]), "--workers", str(WORKERS)]
            for e in self.experiments
        ]
        return {"trace": trace, "outdirs": outdirs, "result": self.spawn(argvs, trace)}


def check_iteration(run: Run, it: dict, refs: dict) -> list[list[str]]:
    """Errors per experiment of one iteration; an empty list is a success."""
    codes = it["result"]["exit_codes"] if it["result"] else [None] * len(run.experiments)
    errors = []
    for exp, code in zip(run.experiments, codes):
        if code != 0:
            errors.append([f"{exp.label}: exit code {code}"])
            continue
        partner = it["outdirs"][exp.partner] if exp.partner else None
        try:
            errors.append(getattr(checks, exp.check)(exp, it["outdirs"][exp.label],
                                                     partner, refs))
        except Exception as exc:  # unreadable or malformed output is a failed check
            errors.append([f"{exp.label}: {type(exc).__name__}: {exc}"])
    return errors


def _bytes_written(outdirs: dict) -> int:
    return sum(f.stat().st_size for d in outdirs.values() if d.is_dir() for f in d.iterdir())


def traced_metrics(it: dict, untraced_wall: float) -> dict:
    res = it["result"]
    m = layer_metrics(res["spans"])
    wall = res["wall_s"]
    trajectories = m.pop("ion_escape.simulate_escape.trajectories", 0)
    escaped = m.pop("ion_escape.trajectory.escaped", 0)
    m.setdefault("dynamics.propagate_pure.dim3_computed", 0)
    m.setdefault("dynamics.propagate_pure.out_bytes_computed", 0)
    m.setdefault("dynamics.evolve_lindblad.out_bytes_computed", 0)
    m["ion_escape.trajectories"] = trajectories
    m["ion_escape.ms_per_trajectory"] = (
        1e3 * m["ion_escape.simulate_escape.s"] / trajectories if trajectories else 0.0)
    m["ion_escape.escaped_frac"] = escaped / trajectories if trajectories else 0.0
    m["cli.bytes_written"] = _bytes_written(it["outdirs"])
    m["trace.wall_s"] = wall
    m["trace.overhead_frac"] = wall / untraced_wall - 1.0
    m["trace.coverage_frac"] = sum(
        m[f"{layer}.self_s"] for layer in LAYERS if layer != ROOT) / wall
    return m


def provenance(run: Run, results: list, args) -> dict:
    commit = "unknown"  # the checkout need not be a git repository
    if (CHECKOUT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "superatom").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": run.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS, "workers": WORKERS,
        "nproc": os.cpu_count(), "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16], **results[0]["versions"],
    }


def run_workload(workload: str, args) -> int:
    refs = json.loads((HERE / "references.json").read_text())
    work = CHECKOUT / ".bench_out" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, work)
        start = time.monotonic()
        iterations = []
        while True:
            # with tracing on, untraced and traced iterations alternate
            trace = bool(args.trace) and len(iterations) % 2 == 1
            iterations.append(run.iteration(len(iterations), trace))
            elapsed = time.monotonic() - start
            need_traced = args.trace and not any(it["trace"] for it in iterations)
            if (elapsed >= args.seconds and not need_traced) \
                    or run.deadline - time.monotonic() < 2 * elapsed / len(iterations):
                break
        done = [it for it in iterations if it["result"]]
        if not done:
            print(f"{workload}: no run process completed", file=sys.stderr)
            return 1

        errors = [check_iteration(run, it, refs) for it in iterations]
        attempted = len(run.experiments) * len(iterations)
        failed = sum(1 for per_it in errors for e in per_it if e)
        for per_it in errors:
            for e in per_it:
                for line in e[:5]:
                    print(f"CHECK FAILED {line}", file=sys.stderr)

        untraced = [it for it in done if not it["trace"]]
        traced = [it for it in done if it["trace"]]
        untraced_wall = statistics.median(it["result"]["wall_s"] for it in untraced)
        print(f"== {workload}  seed {args.seed}  iterations {len(iterations)} "
              f"({len(traced)} traced)  operations {attempted}  failed {failed}")
        if args.trace:
            per_it = [traced_metrics(it, untraced_wall) for it in traced]
            values = {name: statistics.median(m[name] for m in per_it) for name, _ in PER_LAYER}
            units = PER_LAYER
            print_layer_report(values)
        else:
            setups = [it["result"]["setup_s"] for it in done]
            while len(setups) < MIN_SETUP_SAMPLES and run.deadline - time.monotonic() > 10:
                sample = run.spawn([], trace=False)
                if sample:
                    setups.append(sample["setup_s"])
            ok = next((it for it, e in zip(iterations, errors)
                       if it["result"] and not any(e)), None)
            work_units = sum(checks.count_units(exp, ok["outdirs"][exp.label])
                             for exp in run.experiments) if ok else 0
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": untraced_wall,
                "throughput_per_s": work_units / untraced_wall,
                "peak_rss_mb": statistics.median(it["result"]["peak_rss_mb"] for it in done),
            }
            units = END_TO_END
            for name, unit in END_TO_END:
                print(f"  {name:<18} {values[name]:12.6g} {unit}")
            print(f"  {'failed_frac':<18} {failed / attempted:12.6g} "
                  f"({failed} of {attempted} operations)")
            print(f"  work per iteration: {work_units} {WORK_UNITS[workload]}; "
                  f"setup samples {len(setups)}")
        print("provenance: " + json.dumps(provenance(run, [it["result"] for it in done], args)))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_layer_report(values: dict) -> None:
    wall = values["trace.wall_s"]
    print(f"  {'layer':<32} {'self_s':>9} {'share':>7} {'calls':>7} {'s':>9}")
    for layer in sorted(LAYERS, key=lambda la: -values[f"{la}.self_s"]):
        print(f"  {layer:<32} {values[f'{layer}.self_s']:9.4f} "
              f"{values[f'{layer}.self_s'] / wall:7.1%} {values[f'{layer}.calls']:7.0f} "
              f"{values[f'{layer}.s']:9.4f}")
    for name, unit in PER_LAYER[3 * len(LAYERS):]:
        print(f"  {name:<44} {values[name]:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "superatom" / "__init__.py").is_file():
        print(f"no superatom package under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = max(status, run_workload(workload, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
