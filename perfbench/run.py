#!/usr/bin/env python3
"""sentsimp benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads: train-desk, simplify-beam5,
score (see perfbench/README.md). With --trace 0 the last line of standard
output is the end-to-end result; with --trace 1 it is the per-layer
result of a traced run. The line before it is a JSON record of the
environment, the input sizes and the output checks. Files go to
.perfbench_work/ in the checkout.
"""

import os

# One BLAS thread (nproc is 2 on the reference machine): the matrices are
# small and a second thread only adds noise. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "sentsimp" / "__init__.py").is_file():
        print(f"perfbench: no sentsimp package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import sentsimp

    if Path(sentsimp.__file__).resolve().parent != (src / "sentsimp").resolve():
        print(f"perfbench: imported sentsimp from {sentsimp.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome = workloads.run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": outcome.record}))
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
