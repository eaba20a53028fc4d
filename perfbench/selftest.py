"""Shows that every correctness check of run.py accepts exact outputs and rejects a
deliberately perturbed one. Needs no program: the "outputs" are built from the oracle
and the reference file, then perturbed one value at a time. Run from the repository
root:

    python3 perfbench/selftest.py

Exit status 0 when every perturbation was rejected.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402

HALF_PI = run.HALF_PI
failures = 0


def expect(label: str, checks: run.Checks, reason: str | None) -> None:
    """``reason`` None: the output must be accepted. Otherwise a failed check whose
    message contains ``reason`` must have rejected it."""
    global failures
    hits = [f for f in checks.failures if reason is not None and reason in f]
    ok = bool(hits) if reason is not None else not checks.failures
    failures += not ok
    verdict = "rejected" if checks.failures else "accepted"
    shown = hits or checks.failures
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({shown[0]})" if shown else ""))


def coverage(reference: dict) -> None:
    cov = run.Coverage(reference)
    for family in ("psi", "psi-prime"):
        chsh = [[0.0, HALF_PI], [HALF_PI, math.pi]]
        reid = run._reid_spans(family)
        ent = reference["families"][family]["entropic_detected"]
        exact = {"state": family, "chsh_violation_region": chsh, "reid_detected": reid,
                 "entropic_detected": ent, "criteria_incomplete": True,
                 "undetected_steering": run._subtract(run._subtract(chsh, reid), ent)}
        cases = [("exact report", exact, None)]
        for region, short, i, j, delta in (("reid_detected", "reid", 0, 1, 6e-4),
                                           ("entropic_detected", "entropic", 1, 0, -6e-4),
                                           ("undetected_steering", "undetected", 0, 0, 6e-4),
                                           ("chsh_violation_region", "chsh", 0, 1, 1e-9)):
            bad = copy.deepcopy(exact)
            bad[region][i][j] += delta
            cases.append((f"{region} endpoint moved by {delta:g}", bad,
                          f"report-{family} {short}"))
        bad = copy.deepcopy(exact)
        bad["undetected_steering"] = [[bad["undetected_steering"][0][0],
                                       bad["undetected_steering"][-1][1]]]
        cases.append(("pi/2 inside undetected_steering", bad, "pi/2 inside"))
        bad = copy.deepcopy(exact)
        bad["criteria_incomplete"] = False
        cases.append(("criteria_incomplete false", bad, "criteria_incomplete"))
        for label, report, reason in cases:
            checks = run.Checks()
            cov.check(f"report-{family}", json.dumps(report).encode(), checks)
            expect(f"coverage {family}: {label}", checks, reason)


def reid_sweep() -> None:
    rs = run.ReidSweep(0)
    family = "psi"
    rows = ["theta,i_reid,i_chsh"]
    for i in range(315):
        t = math.pi * i / 314
        rows.append(f"{t:.10g},{oracle.family_reid(family, t):.10g},{oracle.family_chsh(t):.10g}")
    exact_csv = "\n".join(rows) + "\n"
    cases = [("exact sweep CSV", exact_csv, None)]
    for col, name, delta in ((1, "reid", 2e-8), (2, "chsh", 2e-9)):
        cells = rows[101].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        bad = rows[:101] + [",".join(cells)] + rows[102:]
        cases.append((f"sweep {name} cell moved by {delta:g}", "\n".join(bad) + "\n",
                      f"{name}[100]"))
    cases.append(("sweep row dropped", "\n".join(rows[:-1]) + "\n", "315 rows"))
    for label, text, reason in cases:
        checks = run.Checks()
        rs._check_sweep("sweep-psi", family, text, checks)
        expect(f"reid-sweep: {label}", checks, reason)

    crossings = oracle.reid_crossings(family)
    exact = {"criticals": [{"angle": 0.0, "kind": "touch"}]
             + [{"angle": a, "kind": "crossing"} for a in crossings]}
    bad_angle = copy.deepcopy(exact)
    bad_angle["criticals"][1]["angle"] += 6e-4
    bad_touch = copy.deepcopy(exact)
    bad_touch["criticals"][0]["angle"] = 1.0
    for label, payload, reason in (("exact critical angles", exact, None),
                                   ("crossing moved by 6e-4", bad_angle, "crossing"),
                                   ("touch point away from 0, pi/2, pi", bad_touch, "touch at")):
        checks = run.Checks()
        rs._check_critical("critical-psi", family, payload, checks)
        expect(f"reid-sweep: {label}", checks, reason)

    theta = 0.9
    d2 = oracle.family_delta2(family, theta)
    exact = {"results": [
        {"criterion": "reid", "value": 0.25 - d2 * d2, "converged": True,
         "components": {"delta2_min_x2": d2, "delta2_min_p2": d2}},
        {"criterion": "chsh", "value": oracle.family_chsh(theta), "converged": True}]}
    cases = [("exact eval", exact, None)]
    for idx, delta in ((0, 2e-9), (1, 2e-10)):
        bad = copy.deepcopy(exact)
        bad["results"][idx]["value"] += delta
        name = bad["results"][idx]["criterion"]
        cases.append((f"eval {name} moved by {delta:g}", bad, f"eval0-psi {name}:"))
    for label, payload, reason in cases:
        checks = run.Checks()
        rs._check_eval("eval0-psi", family, theta, payload, checks)
        expect(f"reid-sweep: {label}", checks, reason)

    checks = run.Checks()
    rs.first_outputs["sweep-psi"] = exact_csv.encode()
    checks.true("sweep-psi: output differs from round 0",
                rs.first_outputs["sweep-psi"] == exact_csv.replace("\n", "\r\n").encode())
    expect("reid-sweep: rerun output not byte-identical", checks, "differs from round 0")


def general_states(reference: dict) -> None:
    gs = run.GeneralStates(0, reference)
    exact = []
    for entry in gs.entries:
        ref = reference["templates"][entry["template"]]
        terms = [(n1, n2, complex(re, im)) for n1, n2, re, im in entry["terms"]]
        rec = {"reid": ref["reid"], "entropic": ref["entropic"], "chsh": ref["chsh"],
               "reid_converged": True, "entropic_converged": True}
        for dom, s in (("position", entry["m_omega"]), ("momentum", 1.0 / entry["m_omega"])):
            r = math.sqrt(s)
            a = [r * x for x in entry["probe"]["a"]]
            b = [r * x for x in entry["probe"]["b"]]
            rec[f"joint.{dom}"] = (s * oracle.joint_density(terms, a, b, dom)).tolist()
            rec[f"marginal.{dom}"] = (r * oracle.marginal_density(terms, a, dom)).tolist()
            rec[f"cond_mean.{dom}"] = [float(oracle.conditional_mean(terms, r * x, dom)) / r
                                       for x in entry["probe"]["cond_a"]]
        exact.append(rec)
    pair = [i for i, e in enumerate(gs.entries) if e["m_omega"] != 1.0][0]
    cases = [("exact results", exact, None)]
    for key, delta in (("reid", 2e-9), ("entropic", 2e-8), ("chsh", 2e-10)):
        bad = copy.deepcopy(exact)
        bad[0][key] += delta
        cases.append((f"{key} moved by {delta:g}", bad, f" {key}: got"))
    bad = copy.deepcopy(exact)
    bad[pair - 1]["entropic"] += 0.9e-8
    bad[pair]["entropic"] -= 0.9e-8
    cases.append(("m*omega pair apart by 1.8e-8, each within its reference tolerance", bad,
                  "m_omega invariance"))
    bad = copy.deepcopy(exact)
    bad[0]["chsh"] = 2.0 * math.sqrt(2.0) + 1e-9
    cases.append(("chsh above Tsirelson's bound", bad, "Tsirelson"))
    bad = copy.deepcopy(exact)
    bad[0]["entropic_converged"] = False
    cases.append(("entropic not converged", bad, "not converged"))
    for key in ("joint.momentum", "marginal.position", "cond_mean.momentum"):
        bad = copy.deepcopy(exact)
        bad[1][key][0] *= 1.0 + 1e-8
        bad[1][key][0] += 1e-8
        cases.append((f"{key} probe moved by 1e-8 relative", bad, key))
    for label, results, reason in cases:
        checks = run.Checks()
        gs.check(results, checks)
        expect(f"general-states: {label}", checks, reason)


def main() -> int:
    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    coverage(reference)
    reid_sweep()
    general_states(reference)
    print("all checks reject their perturbation" if not failures else f"{failures} case(s) wrong")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
