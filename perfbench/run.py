"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chat_hot --seed 0 --seconds 20 --trace 0

Workloads: ``chat_hot``, ``fleet_cold``, ``curate`` (see README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the audit record (environment, and every pass's raw and reference-kernel
times), which is also written under ``.perfbench/`` in the checkout.
The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chat_hot", "fleet_cold", "curate")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: smoke-test sizes (selftest.py)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import Run

    out_dir = ROOT / ".perfbench"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, out_dir)
    result, audit = run.execute()
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    (out_dir / f"audit-{tag}.json").write_text(json.dumps(audit, indent=1))
    print(json.dumps({"audit": audit}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
