#!/usr/bin/env python3
"""Generate the violation curves for both built-in state families.

Writes one CSV per family (theta, i_reid, i_ent, i_chsh on a uniform grid) and prints
the located critical angles to 4 decimals. The central region of the first family and
the outer regions of the second are where both steering criteria stay non-positive
while the CHSH value exceeds 2.
"""

import argparse
import pathlib
import sys

from cvsteer.cli import cmd_sweep, RunConfig
from cvsteer.sweep import find_critical_angles


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory (default ./out)")
    parser.add_argument("--steps", type=int, default=RunConfig.steps)
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for state in ("psi", "psi-prime"):
        path = out_dir / f"{state.replace('-', '_')}_curves.csv"
        config = RunConfig(state=state, steps=args.steps, output_path=str(path))
        status = cmd_sweep(config)
        if status != 0:
            return status
        print(f"wrote {path}")
        for criterion in ("reid", "entropic"):
            roots = find_critical_angles(state, criterion)
            angles = ", ".join(f"{r.angle:.4f}" for r in roots if r.kind == "crossing")
            print(f"  {state} {criterion} crossings: {angles}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
