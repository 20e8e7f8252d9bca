"""One benchmark child: time `import nvsim.cli`, run one workload, check it.

Launched by run.py in a fresh interpreter, one at a time:

    python3 bench/child.py --launch T --workload NAME --seed S --out DIR [--chi] [--spans FILE]
    python3 bench/child.py --launch T --setup-only

T is the parent's CLOCK_MONOTONIC reading just before the launch, so
setup_s covers interpreter start and the import.  run_s runs from the
import to the end of the workload.  The result is one JSON object on the
last line of stdout.
"""

import sys
import time

import nvsim.cli  # noqa: F401  (this import is what setup_s measures)

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--chi", action="store_true", help="also report chi_rel_err for this workload")
    ap.add_argument("--spans", help="trace the run and write its spans to this file")
    args = ap.parse_args()
    result = {"setup_s": T_IMPORTED - args.launch}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.out))
    tracer = None
    run = wl.run
    if args.spans:
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install(workloads.WORK_HOOKS)
        run = tracer.span(ROOT, wl.run)
    run()
    result["run_s"] = time.monotonic() - T_IMPORTED
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
        result["counts"] = dict(tracer.counts)
        result["busy_s"] = dict(tracer.busy_s)
    checks, chi_rel_err = wl.check(args.chi)
    result["checks"] = checks
    result["chi_rel_err"] = chi_rel_err
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
