#!/usr/bin/env python3
"""Record the digests the `artifacts` workload checks its output against.

For each harness seed below, runs the repository's own `run_all` at default
knobs and writes `<seed> <FNV-1a 64 digest of run_all.txt>` to
`perfbench/digests.txt`.  Run it from the repository root after a change
that is meant to alter the rendered artefacts:

    python3 perfbench/record_digests.py
"""

import os
import pathlib
import subprocess
import sys

# The harness default (0x0B17) first, then fifteen more.
SEEDS = [0x0B17] + list(range(1, 16))
OUT = pathlib.Path(".perfbench/digests")
DIGESTS = pathlib.Path("perfbench/digests.txt")


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def main() -> int:
    build = ["cargo", "build", "--release", "--offline", "-q", "-p", "mbfi-bench", "--bin", "run_all"]
    subprocess.run(build, check=True)
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", "target"))
    run_all = target / "release" / "run_all"
    OUT.mkdir(parents=True, exist_ok=True)
    lines = ["# harness_seed fnv1a64(run_all.txt), recorded by perfbench/record_digests.py"]
    for seed in SEEDS:
        env = {k: v for k, v in os.environ.items() if not k.startswith("MBFI_")}
        env["MBFI_SEED"] = str(seed)
        subprocess.run(
            [str(run_all), "--out-dir", str(OUT)],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        digest = fnv1a64((OUT / "run_all.txt").read_bytes())
        lines.append(f"{seed} {digest:016x}")
        print(lines[-1], file=sys.stderr)
    DIGESTS.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
