"""Runs inside the program's own process: the part of the benchmark that imports
``cvsteer``. ``run.py`` starts it; it never imports scipy or the oracle, so the
process's CPU time, memory and page faults are the program's.

    worker.py setup [--inputs FILE]              import (and build the states), then exit
    worker.py evaluate --inputs F --results F [--trace F]
    worker.py cli --trace F -- <cvsteer arguments>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _import_program(module: str):
    t0 = time.perf_counter()
    __import__(module)
    return sys.modules[module], time.perf_counter() - t0


def _load_states(path: str):
    import cvsteer

    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    built = []
    for entry in entries:
        state = cvsteer.FockState.from_terms(
            [(n1, n2, complex(re, im)) for n1, n2, re, im in entry["terms"]])
        built.append((entry, state, cvsteer.UnitSystem(m_omega=entry["m_omega"])))
    return built


def _evaluate(built, cvsteer) -> tuple[list[dict], list[dict]]:
    """Evaluates every state; returns the results and each state's wall time, CPU time
    and minor page faults."""
    results, costs = [], []
    for entry, state, units in built:
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        reid = cvsteer.reid_value(state, units=units)
        ent = cvsteer.entropic_value(state, units=units)
        chsh = cvsteer.chsh_max(state)
        probe = entry["probe"]
        rec = {"reid": reid.value, "reid_converged": reid.converged,
               "entropic": ent.value, "entropic_converged": ent.converged,
               "chsh": chsh.value}
        for dom in cvsteer.Domain:
            rec[f"joint.{dom.value}"] = cvsteer.joint_density(
                state, probe["a"], probe["b"], dom, units).tolist()
            rec[f"marginal.{dom.value}"] = cvsteer.marginal_density(
                state, probe["a"], dom, units).tolist()
            rec[f"cond_mean.{dom.value}"] = [
                cvsteer.conditional_mean(state, a, dom, units) for a in probe["cond_a"]]
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        results.append(rec)
        costs.append({
            "wall_s": wall,
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "minor_faults": after.ru_minflt - before.ru_minflt,
        })
    return results, costs


def cmd_setup(args) -> int:
    if args.inputs:
        _import_program("cvsteer")
        _load_states(args.inputs)
    else:
        _import_program("cvsteer.cli")
    return 0


def cmd_evaluate(args) -> int:
    cvsteer, import_s = _import_program("cvsteer")
    tracer = None
    if args.trace:
        from trace_spans import Tracer

        tracer = Tracer()
        tracer.meta["import_s"] = import_s
        tracer.install()
    built = _load_states(args.inputs)
    results, costs = _evaluate(built, cvsteer)
    if tracer:
        tracer.dump(args.trace)
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump({"results": results, "costs": costs}, fh)
    return 0


def cmd_cli(args) -> int:
    cli, import_s = _import_program("cvsteer.cli")
    from trace_spans import Tracer

    tracer = Tracer()
    tracer.meta["import_s"] = import_s
    tracer.install()
    try:
        return tracer.call("cli.main", cli.main, args.argv)
    finally:
        tracer.dump(args.trace)


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--inputs")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("evaluate")
    p.add_argument("--inputs", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_evaluate)
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
