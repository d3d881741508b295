"""The workload process for the library workloads.

It imports only numpy, pairnorm and the benchmark's numpy-only modules, so
its peak resident memory is the library's.  ``run.py`` starts it; by hand:

    PYTHONPATH=src python3 perfbench/worker.py --workload sweeps --seed 1 \
        --seconds 5 --trace 0 --out /tmp/records.pkl
    PYTHONPATH=src python3 perfbench/worker.py --workload cli --setup spaces.json

With ``--setup`` it imports pairnorm (and ``pairnorm.cli`` on ``cli``),
builds the spaces described in the JSON file, prints ``ready`` and exits: the
set-up that ``setup_s`` times.  Otherwise it runs the fixed number of whole
rounds of the workload's mix that ``instances.rounds`` gives for
``--seconds``, closed loop with one caller, and pickles one record per
operation to ``--out``: the round, the index, the wall time of the call and
its output (or the exception it raised).  With ``--trace 1`` the last record
holds the per-function span totals.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time

import numpy as np

import instances


def build_space(pn, inp: dict):
    if inp["space"] == "euclid":
        return pn.EuclideanGram(inp["dim"])
    return pn.WhitePolynomial(inp["dim"], tuple(float(t) for t in inp["points"]))


def _problem(pn, inp: dict, space):
    basis = pn.SubspaceBasis(space, inp["basis"])
    return pn.SimultaneousProblem(space, inp["targets"], basis, inp["b"])


def _sequence(pn, inp: dict, space):
    return pn.SequencePrefix(space, inp["elements"], probe_y=inp["probe_y"], probe_z=inp["probe_z"])


def run_op(pn, kind: str, inp: dict) -> dict:
    """One operation: build pairnorm's inputs, make the call(s), and copy
    out the fields the checks read."""
    space = build_space(pn, inp)
    if kind == "solve":
        rep = pn.solve(_problem(pn, inp, space))
        return {
            "value": rep.value,
            "g_star": np.array(rep.g_star),
            "converged": rep.converged,
            "restart_values": [r.value for r in rep.per_restart],
            "iterations": sum(r.iterations for r in rep.per_restart),
        }
    if kind == "uniqueness":
        rep = pn.uniqueness_probe(_problem(pn, inp, space), restarts=16)
        return {"distinct_optimizers": rep.distinct_optimizers, "values": list(rep.values)}
    if kind == "distance":
        delta, _ = pn.distance_to_subspace(space, inp["targets"][0], inp["basis"], inp["b"])
        return {"value": delta}
    if kind == "set_distance":
        return {"value": pn.set_distance(space, inp["targets"], inp["basis"], inp["b"])}
    if kind in ("check_axioms", "check_axioms_corrupted"):
        norm_fn = None
        if kind == "check_axioms_corrupted":
            import checks  # numpy-only; the corrupted norm is built from the definition

            norm_fn = checks.corrupted_norm(inp["space"], inp.get("points"))
        rep = pn.check_axioms(space, inp["rows"], seed=inp["sweep_seed"], norm_fn=norm_fn)
        return {"passed": rep.passed, "violations": len(rep.violations)}
    if kind == "shift_identity":
        rep = pn.shift_identity_check(space, inp["rows"], seed=inp["sweep_seed"])
        return {"passed": rep.passed, "violations": len(rep.violations)}
    if kind == "dependent_triple":
        rep = pn.dependent_triple_check(space, inp["rows"], seed=inp["sweep_seed"])
        return {"passed": rep.passed, "violations": len(rep.violations)}
    if kind == "cauchy_profile":
        seq = _sequence(pn, inp, space)
        sups = []
        for t in instances.cauchy_tails(len(seq)):
            prof = pn.cauchy_profile(space, seq, t)
            sups.append((prof.tail_from, prof.sup_y, prof.sup_z))
        return {"sups": sups}
    if kind == "convergence_profile":
        seq = _sequence(pn, inp, space)
        profs = pn.convergence_profile(space, seq, inp["limit"], list(inp["probe_dirs"]))
        return {
            "series": [np.array(p.series) for p in profs],
            "tail_max": [p.tail_max for p in profs],
            "blind_spot": [p.blind_spot for p in profs],
        }
    if kind == "norm_limit_check":
        seq = _sequence(pn, inp, space)
        rep = pn.norm_limit_check(space, seq, inp["limit"], inp["probe_y"])
        return {"passed": rep.passed, "deviations": np.array(rep.deviations)}
    if kind == "certificate":
        x0 = inp["targets"][0]
        cert = pn.certificate(space, x0, inp["basis"], inp["b"])
        snd = pn.certificate_soundness(
            space, cert, x0, inp["basis"], inp["b"], samples=inp["samples"], seed=inp["sweep_seed"]
        )
        return {"delta": cert.delta, "soundness_passed": snd.passed}
    if kind == "blend_check":
        rep = pn.blend_check(_problem(pn, inp, space), inp["g1"], inp["g2"], list(inp["lambdas"]))
        return {"passed": rep.passed, "value_g1": rep.value_g1, "value_g2": rep.value_g2}
    if kind == "objective":
        problem = _problem(pn, inp, space)
        return {"values": np.array([pn.objective(problem, g) for g in inp["candidates"]])}
    if kind == "oracle_solve":
        value, g = pn.oracle_solve(_problem(pn, inp, space), inp["radius"], inp["resolution"])
        return {"value": value, "g": np.array(g)}
    raise ValueError(f"unknown operation kind {kind!r}")


def setup(workload: str, spaces_path: str) -> None:
    """Import pairnorm and build the spaces listed in ``spaces_path``."""
    import pairnorm as pn

    if workload == "cli":
        import pairnorm.cli  # noqa: F401  (the cli workload's processes load it)
    with open(spaces_path, encoding="utf-8") as fh:
        for spec in json.load(fh):
            build_space(pn, spec)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.MIXES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup", metavar="SPACES_JSON")
    args = ap.parse_args()

    if args.setup:
        setup(args.workload, args.setup)
        print("ready", flush=True)
        return 0

    import pairnorm as pn

    tracer = None
    if args.trace:
        import trace_spans

        tracer = trace_spans.Tracer()
        tracer.install()

    mix = instances.MIXES[args.workload]
    with open(args.out, "wb") as fh:
        for rnd in range(instances.rounds(args.workload, args.seconds)):
            for index, (kind, _) in enumerate(mix):
                inp = instances.op_input(args.workload, args.seed, rnd, index)
                out, err = None, None
                t0 = time.perf_counter()
                try:
                    out = run_op(pn, kind, inp)
                except Exception as exc:  # a failed operation is counted, not fatal
                    err = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                pickle.dump({"round": rnd, "index": index, "latency": latency,
                             "out": out, "error": err}, fh)
        if tracer is not None:
            pickle.dump({"spans": tracer.totals()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
