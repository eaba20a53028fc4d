"""Benchmark of the cvsteer command line and library. Run from the repository root:

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 15 --trace 0

Workloads: coverage, general-states, reid-sweep (see README.md). With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced round, and the time of an
untraced round made just before it. The line before it records the machine state of
the run. Outputs of the program are checked against
``oracle.py`` and ``reference.json``, which do not import the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import states  # noqa: E402
from trace_spans import (  # noqa: E402
    END, HINT_S, ID, INTEGRAND_CALLS, INTEGRAND_S, MISS, NAME, PARENT, POINTS, START)

OUT = os.path.join("perfbench", "out")
SETUP_REPEATS = 11
HALF_PI = 0.5 * math.pi
ANGLE_TOL = 5e-4          # README table contract for critical angles

# The report at the default 1e-10 panel tolerance takes 45-75 s for both families on a
# 2-core machine, beyond one run's share of the time the benchmark may take; this
# precision keeps the same code path and moves entropic values by under 1e-11.
COVERAGE_FLAGS = ("--panel-tol", "1e-7", "--half-width", "6")

# Metric names and units are those BENCHMARK.json lists.
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Checks:
    """Collects failed correctness checks; a run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
            self.failures.append(f"{what}: got {got!r}, want {want!r} +- {tol:g}")

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)


# --------------------------------------------------------------------------- processes

def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_processes(jobs: list[tuple[list[str], str]]) -> list[dict]:
    """Run program processes one at a time, each to its end, through spawn.py; returns
    each one's exit code, wall time and resource usage."""
    payload = json.dumps([{"argv": argv, "stdout": out} for argv, out in jobs])
    done = subprocess.run([sys.executable, os.path.join(HERE, "spawn.py")], input=payload,
                          capture_output=True, text=True, env=_env(), check=True)
    return json.loads(done.stdout)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _spans_close(checks: Checks, what: str, got, want, tol: float) -> None:
    if len(got) != len(want):
        checks.failures.append(f"{what}: {len(got)} spans, want {len(want)}: {got!r}")
        return
    for (g_lo, g_hi), (w_lo, w_hi) in zip(got, want):
        checks.close(f"{what} start", g_lo, w_lo, tol)
        checks.close(f"{what} end", g_hi, w_hi, tol)


def _subtract(spans, minus):
    """Set difference of two sorted unions of open intervals."""
    out = []
    for lo, hi in spans:
        pieces = [(lo, hi)]
        for m_lo, m_hi in minus:
            pieces = [p for a, b in pieces
                      for p in ((a, min(b, m_lo)), (max(a, m_hi), b)) if p[1] - p[0] > 1e-9]
        out.extend([list(p) for p in pieces])
    return sorted(out)


# --------------------------------------------------------------------------- workloads

class CliWorkload:
    """A round is a fixed list of cvsteer command-line invocations, one process each."""

    name = ""

    def __init__(self) -> None:
        self.first_outputs: dict[str, bytes] = {}

    def commands(self) -> list[tuple[str, list[str], str]]:
        """(key, cvsteer arguments, the output file they name)"""
        raise NotImplementedError

    def prepare(self) -> None:
        """Writes the inputs the program's processes read; the CLI workloads have none."""

    def setup_argv(self) -> list[str]:
        return [sys.executable, os.path.join(HERE, "worker.py"), "setup"]

    def run_round(self, trace: bool, checks: Checks) -> tuple[list[dict], list[str]]:
        jobs, traces = [], []
        commands = self.commands()
        for key, args, path in commands:
            if os.path.exists(path):  # a stale output must not pass for this round's
                os.remove(path)
            out = os.path.join(OUT, f"{self.name}-{key}.out")
            if trace:
                tpath = os.path.join(OUT, f"trace-{self.name}-{key}.json")
                argv = [sys.executable, os.path.join(HERE, "worker.py"), "cli",
                        "--trace", tpath, "--"] + args
                traces.append(tpath)
            else:
                argv = [sys.executable, "-m", "cvsteer"] + args
            jobs.append((argv, out))
        procs = run_processes(jobs)
        for (key, _, path), rec in zip(commands, procs):
            rec["key"] = key
            if rec["rc"] != 0 or not os.path.exists(path):
                rec["failed"] = 1
                continue
            body = _read(path)
            rec["sha256"] = hashlib.sha256(body).hexdigest()
            self.check(key, body, checks)
            if key in self.first_outputs:
                checks.true(f"{key}: output differs from round 0",
                            self.first_outputs[key] == body)
            else:
                self.first_outputs[key] = body
        return procs, traces

    def check(self, key: str, body: bytes, checks: Checks) -> None:
        raise NotImplementedError


def _reid_spans(family: str):
    return oracle.detected_spans(lambda t: oracle.family_reid(family, t),
                                 oracle.reid_crossings(family))


class Coverage(CliWorkload):
    name = "coverage"

    def __init__(self, reference: dict) -> None:
        super().__init__()
        self.reference = reference["families"]

    def commands(self):
        cmds = []
        for fam in ("psi", "psi-prime"):
            path = os.path.join(OUT, f"coverage-report-{fam}.json")
            cmds.append((f"report-{fam}",
                         ["report", "--state", fam, *COVERAGE_FLAGS, "--output", path], path))
        return cmds

    def check(self, key, body, checks):
        family = key.split("-", 1)[1]
        report = json.loads(body)
        checks.true(f"{key}: state", report["state"] == family)
        chsh = oracle.detected_spans(lambda t: oracle.family_chsh(t) - 2.0, [])
        reid = _reid_spans(family)
        ent = self.reference[family]["entropic_detected"]
        _spans_close(checks, f"{key} chsh", report["chsh_violation_region"], chsh, 1e-12)
        _spans_close(checks, f"{key} reid", report["reid_detected"], reid, ANGLE_TOL)
        _spans_close(checks, f"{key} entropic", report["entropic_detected"], ent, ANGLE_TOL)
        _spans_close(checks, f"{key} undetected", report["undetected_steering"],
                     _subtract(_subtract(chsh, reid), ent), ANGLE_TOL)
        checks.true(f"{key}: criteria_incomplete", report["criteria_incomplete"] is True)
        for region in ("chsh_violation_region", "reid_detected", "entropic_detected",
                       "undetected_steering"):
            checks.true(f"{key}: pi/2 inside a {region} span",
                        not any(lo < HALF_PI < hi for lo, hi in report[region]))


class ReidSweep(CliWorkload):
    name = "reid-sweep"
    EVAL_ANGLES = 3

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng([seed, 7])
        self.angles = {fam: [float(round(t, 6)) for t in rng.uniform(0.05, math.pi - 0.05,
                                                                     self.EVAL_ANGLES)]
                       for fam in ("psi", "psi-prime")}

    def commands(self):
        cmds = []
        for fam in ("psi", "psi-prime"):
            runs = [(f"sweep-{fam}", "csv",
                     ["sweep", "--state", fam, "--criteria", "reid,chsh", "--steps", "315"]),
                    (f"critical-{fam}", "json",
                     ["critical", "--state", fam, "--criteria", "reid", "--format", "json"])]
            runs += [(f"eval{i}-{fam}", "json",
                      ["eval", "--state", fam, "--theta", repr(theta), "--criteria", "reid,chsh",
                       "--format", "json"]) for i, theta in enumerate(self.angles[fam])]
            for key, ext, args in runs:
                path = os.path.join(OUT, f"reid-sweep-{key}.{ext}")
                cmds.append((key, args + ["--output", path], path))
        return cmds

    def check(self, key, body, checks):
        kind, family = key.split("-", 1)
        if kind == "sweep":
            self._check_sweep(key, family, body.decode(), checks)
        elif kind == "critical":
            self._check_critical(key, family, json.loads(body), checks)
        else:
            theta = self.angles[family][int(kind[4:])]
            self._check_eval(key, family, theta, json.loads(body), checks)

    @staticmethod
    def _check_sweep(key, family, text, checks):
        lines = text.split("\n")
        checks.true(f"{key}: header", lines[0] == "theta,i_reid,i_chsh")
        rows = [ln.split(",") for ln in lines[1:] if ln]
        checks.true(f"{key}: 315 rows", len(rows) == 315 and lines[-1] == "")
        for i, row in enumerate(rows):
            theta = math.pi * i / 314
            t, reid, chsh = (float(x) for x in row)
            # Cells carry 10 significant digits: the comparison allows that rounding.
            checks.close(f"{key} theta[{i}]", t, theta, 1e-9)
            checks.close(f"{key} reid[{i}]", reid, oracle.family_reid(family, theta), 1e-8)
            checks.close(f"{key} chsh[{i}]", chsh, oracle.family_chsh(theta), 1e-9)

    @staticmethod
    def _check_critical(key, family, payload, checks):
        crossings = [r["angle"] for r in payload["criticals"] if r["kind"] == "crossing"]
        want = oracle.reid_crossings(family)
        checks.true(f"{key}: {len(crossings)} crossings, want {len(want)}",
                    len(crossings) == len(want))
        for got, ref in zip(sorted(crossings), want):
            checks.close(f"{key} crossing", got, ref, ANGLE_TOL)
        for r in payload["criticals"]:
            if r["kind"] == "touch":
                checks.true(f"{key}: touch at {r['angle']} is not 0, pi/2 or pi",
                            min(abs(r["angle"] - s) for s in (0.0, HALF_PI, math.pi)) < 1e-4)
                checks.close(f"{key} value at touch", oracle.family_reid(family, r["angle"]),
                             0.0, 1e-8)

    @staticmethod
    def _check_eval(key, family, theta, payload, checks):
        by = {r["criterion"]: r for r in payload["results"]}
        d2 = oracle.family_delta2(family, theta)
        checks.close(f"{key} reid", by["reid"]["value"], 0.25 - d2 * d2, 1e-9)
        checks.close(f"{key} delta2_min_x2", by["reid"]["components"]["delta2_min_x2"], d2, 1e-9)
        checks.close(f"{key} delta2_min_p2", by["reid"]["components"]["delta2_min_p2"], d2, 1e-9)
        checks.close(f"{key} chsh", by["chsh"]["value"], oracle.family_chsh(theta), 1e-10)
        checks.true(f"{key}: converged", by["reid"]["converged"] and by["chsh"]["converged"])


class GeneralStates:
    """A round evaluates the seeded states in one fresh library process."""

    name = "general-states"
    PROBE_POINTS = 64
    COND_POINTS = 4

    def __init__(self, seed: int, reference: dict) -> None:
        self.templates = reference["templates"]
        rng = np.random.default_rng([seed, 11])
        self.entries = []
        for template, (_, _, m_omegas) in states.TEMPLATES.items():
            terms = states.seeded_terms(template, rng)
            for m_omega in m_omegas:
                self.entries.append({
                    "template": template, "m_omega": m_omega,
                    "terms": [[n1, n2, a.real, a.imag] for n1, n2, a in terms],
                    "probe": {"a": rng.uniform(-3, 3, self.PROBE_POINTS).tolist(),
                              "b": rng.uniform(-3, 3, self.PROBE_POINTS).tolist(),
                              "cond_a": self._cond_points(rng, terms, m_omega)},
                })
        self.inputs = os.path.join(OUT, "general-states-inputs.json")
        self.first_results = None

    def prepare(self) -> None:
        with open(self.inputs, "w", encoding="utf-8") as fh:
            json.dump({"entries": self.entries}, fh)

    def _cond_points(self, rng, terms, m_omega: float) -> list[float]:
        """Abscissae for conditional means, away from zeros of the marginal, where
        E[b|a] = N/M is 0/0 and no two methods agree to a relative 1e-9."""
        points = []
        while len(points) < self.COND_POINTS:
            a = float(rng.uniform(-2, 2))
            if all(oracle.marginal_density(terms, math.sqrt(s) * a, dom) > 1e-2
                   for dom, s in (("position", m_omega), ("momentum", 1.0 / m_omega))):
                points.append(a)
        return points

    def setup_argv(self) -> list[str]:
        return [sys.executable, os.path.join(HERE, "worker.py"), "setup", "--inputs", self.inputs]

    def run_round(self, trace: bool, checks: Checks):
        results_path = os.path.join(OUT, "general-states-results.json")
        if os.path.exists(results_path):
            os.remove(results_path)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "evaluate",
                "--inputs", self.inputs, "--results", results_path]
        traces = []
        if trace:
            traces.append(os.path.join(OUT, "trace-general-states.json"))
            argv += ["--trace", traces[0]]
        (rec,) = run_processes([(argv, os.path.join(OUT, "general-states.out"))])
        # Each state (at one m*omega) is one operation: its criteria and density probes.
        rec["ops"] = len(self.entries)
        if rec["rc"] != 0 or not os.path.exists(results_path):
            rec["failed"] = rec["ops"]
            return [rec], traces
        payload = json.loads(_read(results_path))
        # Timed per state, without the import and the state construction.
        rec["parts"] = payload["costs"]
        results = payload["results"]
        rec["sha256"] = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        self.check(results, checks)
        if self.first_results is None:
            self.first_results = results
        else:
            checks.true("general-states: results differ from round 0", results == self.first_results)
        return [rec], traces

    def check(self, results, checks):
        seen: dict[str, dict] = {}
        for entry, res in zip(self.entries, results):
            tag = f"{entry['template']} m_omega={entry['m_omega']}"
            ref = self.templates[entry["template"]]
            checks.true(f"{tag}: reference entry is stale", ref["terms"] == [
                [n1, n2, a.real, a.imag] for n1, n2, a in states.template_terms(entry["template"])])
            checks.close(f"{tag} reid", res["reid"], ref["reid"], 1e-9)
            checks.close(f"{tag} entropic", res["entropic"], ref["entropic"], 1e-8)
            checks.close(f"{tag} chsh", res["chsh"], ref["chsh"], 1e-10)
            checks.true(f"{tag}: chsh {res['chsh']!r} above Tsirelson's bound",
                        res["chsh"] <= 2.0 * math.sqrt(2.0) + 1e-12)
            checks.true(f"{tag}: not converged", res["reid_converged"] and res["entropic_converged"])
            self._check_probes(tag, entry, res, checks)
            key = entry["template"]
            if key in seen:  # the same state at another m*omega: values are invariant
                for crit in ("reid", "entropic", "chsh"):
                    checks.close(f"{tag} {crit} m_omega invariance", res[crit], seen[key][crit], 1e-8)
            else:
                seen[key] = res

    @staticmethod
    def _check_probes(tag, entry, res, checks):
        terms = [(n1, n2, complex(re, im)) for n1, n2, re, im in entry["terms"]]
        a = np.asarray(entry["probe"]["a"])
        b = np.asarray(entry["probe"]["b"])
        for dom, s in (("position", entry["m_omega"]), ("momentum", 1.0 / entry["m_omega"])):
            r = math.sqrt(s)
            joint = s * oracle.joint_density(terms, r * a, r * b, dom)
            marg = r * oracle.marginal_density(terms, r * a, dom)
            cond = [oracle.conditional_mean(terms, r * x, dom) / r for x in entry["probe"]["cond_a"]]
            for what, got, want in (("joint", res[f"joint.{dom}"], joint),
                                    ("marginal", res[f"marginal.{dom}"], marg),
                                    ("cond_mean", res[f"cond_mean.{dom}"], cond)):
                err = np.max(np.abs(np.asarray(got) - np.asarray(want)) / (1.0 + np.abs(want)))
                checks.true(f"{tag} {what}.{dom}: error {err:.2e}", bool(err <= 1e-9))


# --------------------------------------------------------------------------- metrics

def layer_metrics(trace_paths: list[str], bench: dict[str, float]) -> dict[str, float]:
    m: dict[str, float] = defaultdict(float, bench)
    for path in trace_paths:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        m["cli.import_s"] += trace["meta"]["import_s"]
        spans = trace["spans"]
        child = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        for s in spans:
            name, dur = s[NAME], s[END] - s[START]
            layer = name.split(".", 1)[0]
            own = dur - child[s[ID]] - s[INTEGRAND_S] - s[HINT_S]
            m[f"{name}.calls"] += 1
            if name != "quadrature.gauss_hermite_rule" or s[MISS]:
                m[f"{name}.s"] += dur
            m[f"{name}.self_s"] += own
            m[f"{layer}.self_s"] += own
            m[f"{name}.points"] += s[POINTS]
            m["fock.integrand.s"] += s[INTEGRAND_S]
            m["fock.integrand.calls"] += s[INTEGRAND_CALLS]
            m["fock.zero_hints.s"] += s[HINT_S]
            if layer == "criteria" and s[PARENT] >= 0:
                parent = spans[s[PARENT]][NAME]
                if parent == "sweep.find_critical_angles":
                    m["sweep.find_critical_angles.evals"] += 1
                elif parent == "sweep.hierarchy_report":
                    m["sweep.hierarchy_report.probe_evals"] += 1
    return {k: m.get(k, 0.0) for k in PER_LAYER}


def steal_s() -> float | None:
    """Time the hypervisor has taken from this machine's CPUs since boot, from the
    ``steal`` column of /proc/stat; None where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine_record() -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = {k: cfg["Build Dependencies"]["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": threads or "default"}


# --------------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("coverage", "general-states", "reid-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "cvsteer", "__init__.py")):
        print("perfbench: run from the repository root (src/cvsteer not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    record = machine_record()

    if args.workload == "coverage":
        workload = Coverage(reference)
    elif args.workload == "reid-sweep":
        workload = ReidSweep(args.seed)
    else:
        workload = GeneralStates(args.seed, reference)

    workload.prepare()
    metrics: dict[str, float] = {}
    if not args.trace:
        setups = run_processes([(workload.setup_argv(), os.path.join(OUT, "setup.out"))]
                               * SETUP_REPEATS)
        if any(s["rc"] != 0 for s in setups):
            print("perfbench: the program does not import", file=sys.stderr)
            return 2
        metrics["setup_s"] = statistics.median(s["wall_s"] for s in setups)

    checks = Checks()
    rounds: list[list[dict]] = []
    steal_start = steal_s()
    if args.trace:
        # An untraced round, then one traced round: the tracing overhead and the identity
        # of traced and untraced outputs come from the same run. Counts are per round.
        for traced in (False, True):
            procs, traces = workload.run_round(traced, checks)
            rounds.append(procs)
    else:
        # Whole rounds while the next one is expected to end within --seconds.
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            procs, _ = workload.run_round(False, checks)
            rounds.append(procs)
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break

    attempted = sum(p.get("ops", 1) for r in rounds for p in r)
    failed = sum(p.get("failed", 0) for r in rounds for p in r)
    # A round's operations: its processes, or the states of the general-states process.
    ops = [[part for p in r for part in p.get("parts", [p])] for r in rounds]
    round_wall = [sum(op["wall_s"] for op in r) for r in ops]
    if args.trace:
        metrics = layer_metrics(traces, {
            "bench.wall_s": round_wall[0], "bench.cpu_s": sum(op["cpu_s"] for op in ops[0]),
            "bench.traced_wall_s": round_wall[1]})
        units = PER_LAYER
    else:
        # Each operation's median over the rounds, summed over the round.
        size = max(len(r) for r in ops)  # a failed library process has no per-state parts
        whole = [r for r in ops if len(r) == size]
        metrics["minor_faults"] = sum(statistics.median(r[i]["minor_faults"] for r in whole)
                                      for i in range(size))
        metrics["peak_rss_mb"] = statistics.median(max(p["peak_rss_mb"] for p in r)
                                                   for r in rounds)
        units = END_TO_END

    steal_end = steal_s()
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "round_wall_s": round_wall, "loadavg_end": os.getloadavg(),
        "steal_s": None if steal_start is None or steal_end is None else steal_end - steal_start,
        "outputs_sha256": hashlib.sha256(
            "".join(p.get("sha256", "") for p in rounds[0]).encode()).hexdigest(),
        "check_failures": checks.failures[:20],
    })
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "rounds": rounds, "metrics": metrics}, fh, indent=1)
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
