"""pairnorm benchmark: one command for every workload.

    python3 perfbench/run.py --workload euclid-solve --seed 1 --seconds 16 --trace 0

Run it from the root of a source checkout (it imports ``src/pairnorm``).
Workloads: ``euclid-solve``, ``white-solve``, ``sweeps`` and ``cli``.  A run
does the fixed number of rounds of the workload's mix that ``--seconds``
stands for (``instances.rounds``).  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  Every line of output names a metric with its unit; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every output is checked against a reference computed without
pairnorm (``checks.py``).
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child: the operations are small
# and single-threaded BLAS keeps the closed loop to one busy core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 21
START_PROBES = 5
SOLVER_TOL = 1e-6  # SolverConfig's default tol: restarts this close to the winner are useful
CLI_SUBCOMMANDS = ("check-axioms", "distance", "solve", "certificate", "blend", "uniqueness",
                   "sequence")
KILL_AFTER_S = 150.0


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# processes


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def wait_rusage(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return (exit code, peak RSS in MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise BenchError(f"{proc.args!r} did not finish within {timeout:.0f} s")
        time.sleep(0.02)


def spawn_until_ready(cmd: list, env: dict, marker: bytes | None) -> float:
    """Wall time from starting ``cmd`` until it prints ``marker`` (or exits)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        if marker is None:
            out, err = proc.communicate(timeout=KILL_AFTER_S)
            elapsed = time.perf_counter() - t0
        else:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=KILL_AFTER_S)
            out = line + out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or (marker is not None and not out.startswith(marker)):
        raise BenchError(f"{cmd!r} failed ({proc.returncode}): {err.decode(errors='replace')[-2000:]}")
    return elapsed


def setup_seconds(root: str, work_dir: str, workload: str, seed: int) -> float:
    """Median wall time from a fresh interpreter until pairnorm is imported
    and the workload's spaces are built from precomputed parameters."""
    spaces_path = os.path.join(work_dir, "spaces.json")
    with open(spaces_path, "w", encoding="utf-8") as fh:
        json.dump(instances.space_specs(workload, seed), fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--setup", spaces_path]
    env = child_env(root)
    return statistics.median(spawn_until_ready(cmd, env, b"ready") for _ in range(SETUP_PROBES))


def start_costs(root: str) -> tuple[float, float]:
    """(bare interpreter start, import of pairnorm.cli beyond it), medians."""
    env = child_env(root)
    bare = statistics.median(
        spawn_until_ready([sys.executable, "-c", "pass"], env, None) for _ in range(START_PROBES))
    cli = statistics.median(
        spawn_until_ready([sys.executable, "-c", "import pairnorm.cli"], env, None)
        for _ in range(START_PROBES))
    return bare, cli - bare


# ---------------------------------------------------------------------------
# library workloads


def run_library(root: str, work_dir: str, args) -> tuple[list, float, dict]:
    out_path = os.path.join(work_dir, "records.pkl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    with open(os.path.join(work_dir, "worker.err"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env(root))
        code, rss = wait_rusage(proc, args.seconds + KILL_AFTER_S)
    if code != 0:
        with open(os.path.join(work_dir, "worker.err"), "rb") as fh:
            raise BenchError(f"worker exited {code}: {fh.read().decode(errors='replace')[-2000:]}")
    records, spans = [], {}
    with open(out_path, "rb") as fh:
        while True:
            try:
                rec = pickle.load(fh)
            except EOFError:
                break
            if "spans" in rec:
                spans = rec["spans"]
            else:
                records.append(rec)
    return records, rss, spans


# ---------------------------------------------------------------------------
# cli workload


def _space_json(inp: dict) -> dict:
    if inp["space"] == "euclid":
        return {"kind": "euclidean_gram", "dim": inp["dim"]}
    return {"kind": "white_polynomial", "degree": inp["dim"],
            "points": [float(t) for t in inp["points"]]}


def cli_file(kind: str, inp: dict) -> dict:
    """The JSON document one subcommand reads."""
    if kind == "check-axioms":
        return _space_json(inp)
    if kind == "sequence":
        return {"space": _space_json(inp), "elements": inp["elements"].tolist(),
                "probes": {"y": inp["probe_y"].tolist(), "z": inp["probe_z"].tolist()},
                "limit": inp["limit"].tolist(), "probe_dirs": inp["probe_dirs"].tolist()}
    doc = {"space": _space_json(inp), "targets": inp["targets"].tolist(),
           "g_basis": inp["basis"].tolist(), "b": inp["b"].tolist()}
    if kind == "blend":
        doc["blend"] = {"g1": inp["g1"].tolist(), "g2": inp["g2"].tolist(),
                        "lambdas": inp["lambdas"].tolist()}
    return doc


def cli_argv(kind: str, path: str, inp: dict) -> list:
    argv = [kind, path]
    if kind == "check-axioms":
        argv += ["--samples", str(inp["samples"]), "--seed", str(inp["sweep_seed"])]
    return argv


def cli_output(kind: str, doc: dict) -> dict:
    """The fields of a subcommand's JSON report that the checks read."""
    if kind == "check-axioms":
        return {"passed": doc["passed"], "violations": len(doc["violations"])}
    if kind == "sequence":
        c = doc["cauchy"]
        return {"sups": [(c["tail_from"], c["sup_y"], c["sup_z"])],
                "series": [np.array(p["series"]) for p in doc["convergence"]],
                "norm_limit_passed": doc["norm_limit"]["passed"],
                "deviations": np.array(doc["norm_limit"]["deviations"])}
    if kind == "distance":
        return {"value": doc["delta"]}
    if kind == "certificate":
        return {"delta": doc["delta"], "soundness_passed": doc["soundness"]["passed"]}
    if kind == "blend":
        return {"passed": doc["passed"], "value_g1": doc["value_g1"], "value_g2": doc["value_g2"]}
    if kind == "solve":
        return {"value": doc["value"], "g_star": np.array(doc["g_star"]),
                "converged": doc["converged"],
                "restart_values": [r["value"] for r in doc["per_restart"]],
                "iterations": sum(r["iterations"] for r in doc["per_restart"])}
    if kind == "uniqueness":
        return {"distinct_optimizers": doc["distinct_optimizers"], "values": doc["values"]}
    raise ValueError(kind)


def run_cli(root: str, work_dir: str, args) -> tuple[list, float, dict]:
    mix = instances.CLI
    env = child_env(root)

    records, spans, previous = [], {}, {}
    rss = 0.0
    err_path = os.path.join(work_dir, "child.err")
    for rnd in range(instances.rounds("cli", args.seconds)):
        if rnd % 2 == 0:  # a fresh set of files, invoked in this round and the next
            argvs = []
            for index, (kind, _) in enumerate(mix):
                inp = instances.op_input("cli", args.seed, rnd, index)
                path = os.path.join(work_dir, f"op{index}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cli_file(kind, inp), fh)
                argvs.append(cli_argv(kind, path, inp))
        for index, argv in enumerate(argvs):
            span_path = os.path.join(work_dir, f"spans{index}.json")
            if args.trace:
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), span_path] + argv
            else:
                cmd = [sys.executable, "-m", "pairnorm"] + argv
            with open(err_path, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
                stdout = proc.stdout.read()
                proc.stdout.close()
                code, child_rss = wait_rusage(proc, KILL_AFTER_S)
                latency = time.perf_counter() - t0
            rss = max(rss, child_rss)
            rec = {"round": rnd, "index": index, "latency": latency, "out": None, "error": None,
                   "stdout": stdout}
            if code != 0:
                with open(err_path, "rb") as fh:
                    rec["error"] = f"exit {code}: {fh.read().decode(errors='replace')[-500:]}"
            if args.trace and code == 0:
                with open(span_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                os.remove(span_path)
                rec["run_busy"] = child["cli.run"]["busy_s"]
                for name, s in child.items():
                    tot = spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
                    for key in tot:
                        tot[key] += s[key]
            if rnd % 2 and stdout != previous[index]:
                rec["mismatch"] = "stdout differs from the previous invocation of the same file"
            previous[index] = stdout
            records.append(rec)

    for rec in records:
        if rec["error"] is not None:
            continue
        kind = mix[rec["index"]][0]
        try:
            rec["out"] = cli_output(kind, json.loads(rec["stdout"]))
        except (ValueError, KeyError, TypeError) as exc:
            rec["mismatch"] = f"unreadable report: {exc}"
    return records, rss, spans


# ---------------------------------------------------------------------------
# checking and metrics


def check_records(workload: str, seed: int, records: list) -> dict:
    """Check every completed operation; returns counts and accuracy figures."""
    mix = instances.MIXES[workload]
    refs_cache = {}
    failed = wrong = 0
    gap_max = 0.0
    iterations = useful = restarts = 0
    for rec in records:
        kind = mix[rec["index"]][0]
        if rec["error"] is not None:
            failed += 1
            print(f"# failed: round {rec['round']} op {rec['index']} ({kind}): {rec['error']}",
                  file=sys.stderr)
            continue
        errs = [rec["mismatch"]] if "mismatch" in rec else []
        if rec["out"] is not None:
            key = (rec["round"] // 2 * 2 if workload == "cli" else rec["round"], rec["index"])
            if key not in refs_cache:
                inp = instances.op_input(workload, seed, key[0], key[1])
                refs_cache[key] = (inp, checks.reference(kind, inp))
            inp, ref = refs_cache[key]
            errs += checks.check(kind, inp, rec["out"], ref)
            out = rec["out"]
            if "lower" in ref:
                value = out.get("value", min(out.get("values", [np.inf])))
                if kind != "oracle_solve":
                    gap_max = max(gap_max, (value - ref["lower"]) / (1.0 + ref["lower"]))
            if kind == "certificate":
                gap_max = max(gap_max, abs(out["delta"] - ref["delta"]) / (1.0 + ref["delta"]))
            if kind == "solve":
                iterations += out["iterations"]
                restarts += len(out["restart_values"])
                useful += sum(abs(v - out["value"]) <= SOLVER_TOL for v in out["restart_values"])
        if errs:
            wrong += 1
            print(f"# wrong: round {rec['round']} op {rec['index']} ({kind}): {'; '.join(errs)}",
                  file=sys.stderr)
    return {"failed": failed, "wrong": wrong, "gap_max": gap_max, "iterations": iterations,
            "useful_ratio": useful / restarts if restarts else 0.0}


def end_to_end(records: list, setup_s: float, rss: float) -> dict:
    lat = [r["latency"] for r in records]
    done = sum(r["error"] is None for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / sum(lat), "1/s"),
        "op_latency_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(workload: str, records: list, spans: dict, acc: dict, starts) -> dict:
    rounds = max(r["round"] for r in records) + 1

    def s(name, key="busy_s"):
        return spans.get(name, {}).get(key, 0)

    def rate(name):
        busy = s(name)
        return s(name, "work") / busy if busy else 0.0

    rows = s("spaces.two_norm_rows", "work")
    lat = [r["latency"] for r in records]
    m = {
        "spaces.two_norm_rows.calls": (s("spaces.two_norm_rows", "calls") / rounds, "count"),
        "spaces.two_norm_rows.rows": (rows / rounds, "count"),
        "spaces.two_norm_rows.busy_s": (s("spaces.two_norm_rows") / rounds, "s"),
        "spaces.two_norm_rows.ns_per_row": (1e9 * s("spaces.two_norm_rows") / rows if rows else 0.0, "ns"),
        "spaces.seminorm_map.busy_s": (s("spaces.seminorm_map") / rounds, "s"),
        "spaces.check_axioms.samples_per_s": (rate("spaces.check_axioms"), "1/s"),
        "spaces.identity_checks.busy_s": (
            (s("spaces.shift_identity_check") + s("spaces.dependent_triple_check")) / rounds, "s"),
        "approx.solve.calls": (s("approx.solve", "calls") / rounds, "count"),
        "approx.solve.busy_s": (s("approx.solve") / rounds, "s"),
        "approx.solve.self_s": (s("approx.solve", "self_s") / rounds, "s"),
        "approx.solve.iterations": (acc["iterations"] / rounds, "count"),
        "approx.solve.useful_restart_ratio": (acc["useful_ratio"], "ratio"),
        "approx.uniqueness_probe.busy_s": (s("approx.uniqueness_probe") / rounds, "s"),
        "approx.distance_to_subspace.busy_s": (s("approx.distance_to_subspace") / rounds, "s"),
        "approx.set_distance.busy_s": (s("approx.set_distance") / rounds, "s"),
        "approx.value_gap_max": (acc["gap_max"], "ratio"),
        "approx.objective.calls": (s("approx.objective", "calls") / rounds, "count"),
        "approx.objective.busy_s": (s("approx.objective") / rounds, "s"),
        "approx.oracle_solve.busy_s": (s("approx.oracle_solve") / rounds, "s"),
        "approx.oracle_solve.points_per_s": (rate("approx.oracle_solve"), "1/s"),
        "approx.certificate.busy_s": (
            (s("approx.certificate") + s("approx.certificate_soundness")) / rounds, "s"),
        "approx.blend_check.busy_s": (s("approx.blend_check") / rounds, "s"),
        "sequences.cauchy_profile.pairs_per_s": (rate("sequences.cauchy_profile"), "1/s"),
        "sequences.convergence_profile.busy_s": (s("sequences.convergence_profile") / rounds, "s"),
        "sequences.norm_limit_check.busy_s": (s("sequences.norm_limit_check") / rounds, "s"),
        "jsonio.load_json.busy_s": (s("jsonio.load_json") / rounds, "s"),
        "jsonio.problem_from_dict.busy_s": (s("jsonio.problem_from_dict") / rounds, "s"),
        "jsonio.sequence_from_dict.busy_s": (s("jsonio.sequence_from_dict") / rounds, "s"),
        "jsonio.dumps.busy_s": (s("jsonio.dumps") / rounds, "s"),
        "jsonio.dumps.bytes": (s("jsonio.dumps", "work") / rounds, "bytes"),
        "cli.interpreter_s": (starts[0], "s"),
        "cli.import_s": (starts[1], "s"),
    }
    run_busy = [r["run_busy"] for r in records if "run_busy" in r]
    m["cli.run.busy_s"] = (statistics.fmean(run_busy) if run_busy else 0.0, "s")
    m["cli.process_overhead_s"] = (
        statistics.fmean(r["latency"] - r["run_busy"] for r in records if "run_busy" in r)
        if run_busy else 0.0, "s")
    for sub in CLI_SUBCOMMANDS:
        sub_lat = [r["latency"] for r in records
                   if workload == "cli" and instances.CLI[r["index"]][0] == sub]
        m[f"cli.{sub}.latency_p50_s"] = (statistics.median(sub_lat) if sub_lat else 0.0, "s")
    done = sum(r["error"] is None for r in records)
    m["trace.ops_per_s"] = (done / sum(lat), "1/s")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.MIXES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pairnorm", "__init__.py")):
        print("perfbench: run from the root of a pairnorm checkout (no src/pairnorm here)",
              file=sys.stderr)
        return 2

    import numpy

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} blas_threads={BLAS_ENV['OPENBLAS_NUM_THREADS']} "
          f"numpy={numpy.__version__} python={platform.python_version()}")
    base = os.path.join(root, ".perfbench_run")
    os.makedirs(base, exist_ok=True)
    work_dir = os.path.join(base, str(os.getpid()))
    os.makedirs(work_dir)
    try:
        if args.trace:
            starts, setup_s = start_costs(root), None
        else:
            starts, setup_s = None, setup_seconds(root, work_dir, args.workload, args.seed)
        if args.workload == "cli":
            records, rss, spans = run_cli(root, work_dir, args)
        else:
            records, rss, spans = run_library(root, work_dir, args)
        acc = check_records(args.workload, args.seed, records)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(args.workload, records, spans, acc, starts)
    else:
        metrics = end_to_end(records, setup_s, rss)
    rounds = max(r["round"] for r in records) + 1
    print(f"# rounds={rounds} operations={len(records)} failed={acc['failed']} wrong={acc['wrong']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.9g} {unit}")
    print(json.dumps({
        "correct": acc["wrong"] == 0,
        "attempted": len(records),
        "failed": acc["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
