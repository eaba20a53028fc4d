"""Regenerate ``perfbench/reference.json``: the slow, independent reference values.

Run from the repository root (takes about 2 minutes on one core):

    python3 perfbench/make_reference.py

It stores, computed by ``oracle.py`` (numpy/scipy, no ``cvsteer``):
* the entropic crossing angles of psi and psi-prime and the resulting detected
  regions (iterated ``quad`` inside ``brentq``);
* Reid, entropic and CHSH values of every general-states template.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import states  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# One sign change of the entropic value in each bracket (README table +- 0.07).
ENTROPIC_BRACKETS = {
    "psi": ((0.80, 0.95), (2.19, 2.34)),
    "psi-prime": ((0.60, 0.75), (2.39, 2.55)),
}


def main() -> int:
    t0 = time.perf_counter()
    families = {}
    for family, brackets in ENTROPIC_BRACKETS.items():
        crossings = oracle.entropic_crossings(family, brackets)
        spans = oracle.detected_spans(
            lambda t, f=family: oracle.entropic(oracle.family_terms(f, t)), crossings)
        families[family] = {"entropic_crossings": crossings, "entropic_detected": spans}
        print(f"{family}: {crossings} {spans} ({time.perf_counter() - t0:.0f} s)", flush=True)

    templates = {}
    for name in states.TEMPLATES:
        terms = states.template_terms(name)
        templates[name] = {
            "terms": [[n1, n2, a.real, a.imag] for n1, n2, a in terms],
            "reid": oracle.reid(terms),
            "entropic": oracle.entropic(terms),
            "chsh": oracle.chsh(terms),
        }
        print(f"{name} {templates[name]['entropic']:.12f} ({time.perf_counter() - t0:.0f} s)",
              flush=True)

    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"families": families, "templates": templates}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
