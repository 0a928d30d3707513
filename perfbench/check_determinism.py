"""Check that the benchmark's inputs do not depend on the hash seed.

    python3 perfbench/check_determinism.py [--seed N]

Generates every workload's inputs twice, in processes started with
``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``, and compares the files
byte for byte. Prints one line per workload and exits 1 on any
difference. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("select", "answer", "maintain")
FILES = ("schema.nt", "data.nt", "stream.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = Path.cwd() / ".perfbench-work" / f"determinism-{os.getpid()}"
    differing = 0
    try:
        for workload in WORKLOADS:
            outputs = []
            for hash_seed in ("0", "1"):
                out = work / f"{workload}-{hash_seed}"
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                subprocess.run(
                    [sys.executable, str(HERE / "gen.py"), "--workload", workload,
                     "--seed", str(args.seed), "--out", str(out)],
                    env=env, check=True,
                )
                outputs.append(out)
            same = all(
                (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
                for name in FILES
            )
            differing += not same
            print(f"{workload}: {'identical' if same else 'DIFFERENT'} under "
                  f"PYTHONHASHSEED=0 and 1 (seed {args.seed})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
