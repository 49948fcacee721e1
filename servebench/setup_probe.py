"""Measure the program's start-up for one workload in a fresh process.

Set-up time is what the program does before the first event is offered:
its imports, ``ModelRegistry.load`` (sha256 check, then unpickle),
opening the store or trace, and building the engine, guard, journals
and policy.  Imports are only cold in a new interpreter, so ``run.py``
starts this script several times and reports the median.  Prints one
JSON object with the total and each step.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import params  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=params.WORKLOADS, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    params.use_checkout_source()
    from workloads import WORKLOADS  # the program's imports

    imported = time.perf_counter()
    workload = WORKLOADS[args.workload](args.inputs, args.model, args.scratch, args.seed)
    steps = workload.setup()
    total = time.perf_counter() - T0
    print(json.dumps({"setup_s": total, "setup.import_s": imported - T0, **steps}))
    return 0


if __name__ == "__main__":
    params.pin_environment()
    sys.exit(main())
