"""One run process: import superatom, then call superatom.cli.main once per experiment.

Usage: python3 runner.py SPEC_JSON

SPEC_JSON holds ``argvs`` (one superatom-sim argument list per experiment),
``trace`` (0 or 1), ``run_id`` and ``result`` (where to write the result).
With no argvs the process only imports, which is one set-up sample.
The parent puts the package's ``src`` directory on PYTHONPATH and fixes
the BLAS thread count in the environment.
"""

import sys
import time

import superatom.cli  # the superatom-sim entry point imports the whole package

IMPORTED_AT = time.monotonic()  # CLOCK_MONOTONIC: comparable with the parent's clock

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    if not os.path.realpath(superatom.__file__).startswith(src + os.sep):
        print(f"superatom imported from {superatom.__file__}, not {src}", file=sys.stderr)
        return 2

    cli_main = superatom.cli.main
    tracer = None
    if spec["trace"]:
        from tracing import ROOT, Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
        cli_main = tracer.wrap(ROOT, cli_main)

    codes = []
    start = time.perf_counter()
    for argv in spec["argvs"]:
        try:
            codes.append(cli_main(argv))
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            codes.append(1)
    wall = time.perf_counter() - start

    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.dump() if tracer else [],
        "versions": {
            "superatom": superatom.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
