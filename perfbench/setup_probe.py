"""Set-up cost of one command-line run, measured in a fresh interpreter:
import weylfluid and build the given catalog presets.

    python3 perfbench/setup_probe.py --seed 0 minkowski-sheared flrw-power-dust

Prints ``{"setup_s": ...}`` as its last line.
"""

import argparse
import json
import pathlib
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("presets", nargs="+")
    args = ap.parse_args()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

    started = time.perf_counter()
    import weylfluid

    for name in args.presets:
        weylfluid.build(name, seed=args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


if __name__ == "__main__":
    main()
