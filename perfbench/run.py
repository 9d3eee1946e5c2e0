"""The repository's benchmark: checked language crossings, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live-table3 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``live-table3``, ``record-replay`` and
``fleet-fuzz``.  Each run measures ``setup_s`` (the median of several
fresh interpreters made ready for the workload's first op), runs one
untimed warm-up op, then runs ops closed-loop for ``--seconds``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the same loop for a third of ``--seconds`` with every
other op traced (spans around each layer call), prints both halves'
end-to-end figures and the tracing overhead, then measures the fixed
per-layer breakdown of ``layers.py`` and reports the per-layer metrics.  Spans are
kept in memory and written to ``.perfbench_out/`` when the run ends.

Every op's verdicts are checked (``workloads.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (ops with a wrong verdict) and ``metrics``.  The run owns a
directory under ``.perfbench_out/`` — its plan cache
(``REPRO_PLAN_CACHE``), trace files and job queues — and removes it at
the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30
        )
    except OSError:
        return "unknown"
    return done.stdout.decode().strip() or "unknown"


def source_digest() -> str:
    """sha256 over ``src/``'s Python files: identifies the code measured
    even where the checkout carries no git metadata."""
    hasher = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                hasher.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as f:
                    hasher.update(f.read())
    return hasher.hexdigest()


def measure_setup(workload: str, run_dir: str, plans: str, env: Dict[str, str]) -> List[float]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line.

    Each probe gets an empty plan cache, so each pays cold synthesis.
    The first probe's cache is the run's own: it leaves the plans on
    disk for this process and its fleet workers, as a first CLI run
    would.
    """
    from workloads import clock

    samples = []
    for index in range(SETUP_SAMPLES):
        cache = plans if index == 0 else os.path.join(run_dir, "probe-plans-{}".format(index))
        shutil.rmtree(cache, ignore_errors=True)
        probe_env = dict(env, REPRO_PLAN_CACHE=cache)
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload],
            stdout=subprocess.PIPE,
            env=probe_env,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            samples.append(clock() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe for {} failed".format(workload))
        if index:
            shutil.rmtree(cache, ignore_errors=True)
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it reaped:
    the fleet's workers and the set-up probes (which run a subset of
    what this process runs)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(results, setup: List[float]):
    from stats import median, tail

    pct, tail_s = tail([r.seconds for r in results])
    metrics = {
        "setup_s": median(setup),
        "checked_tps": median([r.transitions / r.live_seconds for r in results]),
        "op_p50_s": median([r.seconds for r in results]),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, pct


def report_lines(label: str, metrics: Dict[str, float], units: Dict[str, str]):
    lines = [label]
    for name, value in metrics.items():
        lines.append("  {:<40} {:>16.6g} {}".format(name, value, units.get(name, "")))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under " + SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    from workloads import WORKLOADS, fleet_workers

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload " + args.workload, file=sys.stderr)
        return 2
    tag = "{}-s{}-t{}-p{}".format(args.workload, args.seed, args.trace, os.getpid())
    run_dir = os.path.join(OUT, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    plans = os.path.join(run_dir, "plans")
    # Before the first ``import repro``: the process-wide plan cache
    # reads this once, and the fleet's workers inherit it.
    os.environ["REPRO_PLAN_CACHE"] = plans
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, SRC)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": fleet_workers(),
        "scales": WORKLOADS[args.workload].scales,
    }
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)
    try:
        return run(args, spec, meta, run_dir, plans, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, spec, meta, run_dir: str, plans: str, env: Dict[str, str]) -> int:
    from tracing import NULL as null
    from tracing import Tracer
    from workloads import WORKLOADS, clock

    setup = measure_setup(args.workload, run_dir, plans, env)
    workload = WORKLOADS[args.workload](run_dir, args.seed)
    tracer = Tracer() if args.trace else None
    wrong: List[str] = []
    warm = workload.op(null)
    wrong += warm.wrong
    attempted = 1
    plain, traced = [], []
    # The traced run spends a third of its time on the loop and the
    # rest on the fixed per-layer breakdown.
    deadline = clock() + (args.seconds / 3 if tracer else args.seconds)
    while clock() < deadline or (tracer is not None and len(traced) < len(plain)):
        # The traced run alternates untraced and traced ops, so each
        # traced op is paired with the untraced op run just before it.
        use_tracer = tracer is not None and len(plain) > len(traced)
        result = workload.op(tracer if use_tracer else null)
        (traced if use_tracer else plain).append(result)
        attempted += 1
        wrong += result.wrong
    workload.close()
    failed = sum(1 for r in [warm] + plain + traced if r.wrong)
    for line in wrong:
        print("WRONG VERDICT " + line, file=sys.stderr)

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics, pct = end_to_end(plain, setup)
    lines = report_lines(
        "end to end, untraced ({} timed ops; op_tail_s is p{})".format(len(plain), pct),
        metrics,
        e2e_units,
    )
    lines.append("setup_s samples: " + ", ".join("{:.4f}".format(s) for s in setup))
    lines.append("ops attempted {}, with a wrong verdict {}".format(attempted, failed))
    correct = failed == 0
    if tracer is None:
        expected = e2e_units
    else:
        from layers import measure

        traced_metrics, traced_pct = end_to_end(traced, setup)
        lines += report_lines(
            "end to end, traced ({} timed ops; op_tail_s is p{})".format(len(traced), traced_pct),
            traced_metrics,
            e2e_units,
        )
        from stats import median

        overhead = 100.0 * (median([t.seconds / p.seconds for p, t in zip(plain, traced)]) - 1.0)
        lines.append("tracing overhead (median of paired op times): {:+.2f}%".format(overhead))
        with tracer.span("layers"):
            metrics, problems, governor_wrong = measure(run_dir, args.seed, env, tracer)
        metrics["tracing.overhead_pct"] = overhead
        lines.append("governor wrong verdicts (reported, not gated): " + ", ".join(governor_wrong))
        for problem in problems:
            print("LAYER PROBLEM " + problem, file=sys.stderr)
        correct = correct and not problems
        expected = layer_units
        lines.append("self time by span (s):")
        for name, entry in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                "  {:<40} {:>7d} spans  total {:>9.4f}  self {:>9.4f}".format(
                    name, entry["count"], entry["total_s"], entry["self_s"]
                )
            )
        spans_path = os.path.join(OUT, "spans-{}-s{}-p{}.json".format(args.workload, args.seed, os.getpid()))
        tracer.dump(spans_path, meta)
        lines.append("spans written to " + os.path.relpath(spans_path, ROOT))
        lines += report_lines("per layer", metrics, layer_units)

    if set(metrics) != set(expected):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: missing {}, extra {}".format(
                sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))
            )
        )
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": expected[name]} for name in expected
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
