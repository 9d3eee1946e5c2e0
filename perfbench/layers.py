"""The traced run's per-layer breakdown, measured from outside each layer.

Every number here comes from timing (or counting Python calls into)
public functions of one ``repro`` layer; nothing inside the program is
changed.  The work is fixed — the same kernels, scales, seeds and
repetitions on every run — so the call counts repeat exactly and the
times are comparable between commits.

- **Stage ladder** (``jni``, ``pipeline``, ``jinn``, ``core``, ``obs``,
  ``trace``, ``resilience``): the 19 Table 3 kernels at 1/5000 under
  production (no agent), ``interpose``, ``interpretive``, full checking,
  and full checking plus exactly one of telemetry, a file recorder,
  containment or the overhead governor.  A layer's cost is the
  difference between the two steps that differ by it.  Each JNI machine
  is ablated with ``registry.without(name)``.  Times are, per kernel,
  the fastest of interleaved repetitions of ``vm.call_static``; calls to
  Python functions and builtins are counted with ``sys.setprofile``
  over the same call, and recounted for three steps: they must repeat.
- **trace**: the kernels recorded to files at 1/5000, then the files
  decoded alone (``iter_batches``) and replayed (``replay_path``).
- **fuzz** and **pyc**: one in-process fuzz campaign step by step, and
  its recorded valid Python/C sequences replayed with each Python/C
  machine ablated.
- **fleet**: fuzz campaigns on the worker processes, read from
  ``FleetReport`` and ``JobQueue.stats()``.
- **cli**: ``import repro`` in a fresh interpreter.

Ladder and Python/C replay times take the fastest repetition, since the
layer costs are differences of close times and the host's slow spells
only ever add time; the trace, fleet, synthesis and import figures are
medians.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from typing import Callable, Dict, List, Tuple

from stats import median
from workloads import (
    LIVE_SCALE,
    RECORD_SCALE,
    FleetFuzz,
    clock,
    kernel_verdict,
    run_kernel,
)

LADDER_SCALE = 5000
LADDER_REPS = 5
TRACE_REPS = 3
PYC_REPS = 7
#: Replays of one recorded sequence per timing: one replay takes a
#: millisecond or two, too short to time on its own.
PYC_LOOPS = 20
FLEET_CAMPAIGNS = 3
PROBE_SAMPLES = 3
#: Ladder steps counted a second time: the counts must repeat.
RECOUNTED = ("production", "full", "recorder")


def _kernels():
    from repro.workloads.dacapo import BENCHMARK_NAMES

    # Fixed order: the call counts must not depend on the seed.
    return BENCHMARK_NAMES


def count_calls(fn: Callable[[], object]) -> int:
    """Calls made while ``fn`` runs: Python functions and builtins.

    The collector is flushed and paused for the count: a collection
    triggered by earlier allocations could otherwise run finalizers
    inside the window and make the count depend on the run's history.
    """
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls[0]


class Sweep:
    """Totals of kernel runs under one configuration."""

    __slots__ = ("transitions", "kernel_s", "shutdown_s", "calls", "wrong")

    def __init__(self):
        self.transitions = 0
        self.kernel_s = 0.0
        self.shutdown_s = 0.0
        self.calls = 0
        self.wrong: List[str] = []


def run_one(name: str, make, scale: int, tr, out: Sweep, *, count: bool = False) -> Sweep:
    """Run one kernel on a fresh VM with the agents ``make()`` returns,
    adding its figures to ``out``.

    ``make`` returns ``(agents, finish)``; ``finish`` runs after the VM
    is shut down (a recorder closes there).  With ``count`` the kernel
    call is counted instead of timed.
    """
    agents, finish = make()
    run = run_kernel(name, scale, agents, tr, count_calls if count else None)
    finish()
    if count:
        out.calls += run.calls
    else:
        out.kernel_s += run.kernel_s
    out.transitions += run.transitions
    out.shutdown_s += run.shutdown_s
    out.wrong += kernel_verdict(name, agents[0] if agents else None, run)
    return out


def sweep(make, scale: int, tr, *, count: bool = False) -> Sweep:
    """Every kernel once under one configuration."""
    out = Sweep()
    for name in _kernels():
        run_one(name, make, scale, tr, out, count=count)
    return out


def rotated(items: list, shift: int) -> list:
    shift %= len(items)
    return items[shift:] + items[:shift]


def _nothing():
    pass


def ladder_configs(trace_dir: str) -> List[Tuple[str, Callable]]:
    """``(step, make)`` for every ladder step and machine ablation."""
    from repro.core.runtime import ContainmentPolicy
    from repro.jinn.agent import JinnAgent
    from repro.jinn.machines import build_registry
    from repro.obs import ObsHub
    from repro.resilience import OverheadGovernor
    from repro.trace import TraceRecorder

    def agent(**kwargs):
        return lambda: ([JinnAgent(**kwargs)], _nothing)

    def with_stage(keyword, factory):
        # A fresh stage object per VM, as each run of the program gets.
        return lambda: ([JinnAgent(**{keyword: factory()})], _nothing)

    def recorded():
        recorder = TraceRecorder(os.path.join(trace_dir, "ladder.trace"))
        return [JinnAgent(observer=recorder)], recorder.close

    configs = [
        ("production", lambda: ([], _nothing)),
        ("interpose", agent(mode="interpose")),
        ("interpretive", agent(mode="interpretive")),
        ("full", agent()),
        ("telemetry", with_stage("telemetry", ObsHub)),
        ("recorder", recorded),
        ("containment", with_stage("containment", ContainmentPolicy)),
        ("governor", with_stage("governor", OverheadGovernor)),
    ]
    registry = build_registry()
    for spec in registry:
        ablated = registry.without(spec.name)
        configs.append(("without." + spec.name, agent(registry=ablated)))
    return configs


def measure_ladder(run_dir: str, tr, out: Dict[str, float], problems: List[str]) -> None:
    from repro.core.cache import WRAPPER_CACHE

    trace_dir = os.path.join(run_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    configs = ladder_configs(trace_dir)
    WRAPPER_CACHE.clear()
    # Per step and kernel, the fastest run: (seconds, transitions).
    best: Dict[str, Dict[str, Tuple[float, int]]] = {step: {} for step, _ in configs}
    shutdown: Dict[str, float] = {}
    # The benchmark's own objects (spans, the ablations' compiled plans)
    # would otherwise make every full collection inside a kernel slower
    # as the run goes on.
    gc.collect()
    gc.freeze()
    try:
        for rep in range(LADDER_REPS):
            # Interleaved kernel by kernel, so every step of one kernel
            # runs within a second or two of the others: the host's slow
            # spells, which only ever add time, fall on all steps alike
            # and the fastest of the repetitions discards them.  The
            # order rotates so no step is always first after a switch.
            for name in _kernels():
                for step, make in rotated(configs, rep):
                    with tr.span("ladder.time." + step):
                        result = run_one(name, make, LADDER_SCALE, tr, Sweep())
                    previous = best[step].get(name)
                    if previous is None or result.kernel_s < previous[0]:
                        best[step][name] = (result.kernel_s, result.transitions)
                    if step == "full":
                        shutdown[name] = min(shutdown.get(name, result.shutdown_s), result.shutdown_s)
                    if result.wrong and step != "governor":
                        problems.extend("{}: {}".format(step, w) for w in result.wrong)
        calls: Dict[str, float] = {}
        for step, make in configs + [c for c in configs if c[0] in RECOUNTED]:
            with tr.span("ladder.count." + step):
                result = sweep(make, LADDER_SCALE, tr, count=True)
            per_tr = result.calls / result.transitions
            if calls.setdefault(step, per_tr) != per_tr:
                problems.append(
                    "{}: calls per transition {} then {}".format(step, calls[step], per_tr)
                )
    finally:
        gc.unfreeze()
    stats = WRAPPER_CACHE.stats()
    t = {
        step: 1e6 * sum(seconds for seconds, _ in runs.values()) / sum(n for _, n in runs.values())
        for step, runs in best.items()
    }

    out["jni.transitions"] = sum(n for _, n in best["production"].values())
    out["jni.production_us_per_tr"] = t["production"]
    out["jni.production_calls_per_tr"] = calls["production"]
    out["pipeline.interpose_us_per_tr"] = t["interpose"] - t["production"]
    out["pipeline.interpose_calls_per_tr"] = calls["interpose"] - calls["production"]
    out["jinn.full_us_per_tr"] = t["full"]
    out["jinn.full_calls_per_tr"] = calls["full"]
    out["jinn.check_us_per_tr"] = t["full"] - t["interpose"]
    out["jinn.check_calls_per_tr"] = calls["full"] - calls["interpose"]
    out["jinn.overhead_x"] = t["full"] / t["production"]
    out["jinn.termination_s"] = sum(shutdown.values())
    for step in t:
        if step.startswith("without."):
            machine = step[len("without."):]
            out["jinn.machine.{}.us_per_tr".format(machine)] = t["full"] - t[step]
            out["jinn.machine.{}.calls_per_tr".format(machine)] = calls["full"] - calls[step]
    out["core.dispatch_us_per_tr"] = t["interpretive"] - t["interpose"]
    out["core.dispatch_calls_per_tr"] = calls["interpretive"] - calls["interpose"]
    out["core.wrapper_cache.hits"] = stats["hits"]
    out["core.wrapper_cache.misses"] = stats["misses"]
    out["obs.telemetry_us_per_tr"] = t["telemetry"] - t["full"]
    out["obs.telemetry_calls_per_tr"] = calls["telemetry"] - calls["full"]
    out["trace.record_us_per_tr"] = t["recorder"] - t["full"]
    out["trace.record_calls_per_tr"] = calls["recorder"] - calls["full"]
    out["resilience.containment_us_per_tr"] = t["containment"] - t["full"]
    out["resilience.governor_us_per_tr"] = t["governor"] - t["full"]


def measure_governor_verdicts(tr, out: Dict[str, float]) -> List[str]:
    """Bug-free kernels the default governor gets wrong, at the live scale."""
    from repro.jinn.agent import JinnAgent
    from repro.resilience import OverheadGovernor

    with tr.span("governor.verdicts"):
        result = sweep(
            lambda: ([JinnAgent(governor=OverheadGovernor())], _nothing), LIVE_SCALE, tr
        )
    kernels = {line.split(":", 1)[0] for line in result.wrong}
    out["resilience.governor_wrong_verdicts"] = len(kernels)
    return sorted(kernels)


def measure_synthesis(run_dir: str, tr, out: Dict[str, float], problems: List[str]) -> None:
    """Cold synthesis into an empty disk cache, then warm loads from it.

    Private caches, so the process-wide one is neither read nor filled.
    """
    from repro.core.cache import WrapperCache
    from repro.core.plancache import PlanDiskCache
    from repro.jinn.machines import build_registry

    registry = build_registry()
    cold: List[float] = []
    warm: List[float] = []
    for attempt in range(PROBE_SAMPLES):
        root = os.path.join(run_dir, "synth-{}".format(attempt))
        start = clock()
        with tr.span("core.plans_for.cold"):
            WrapperCache(disk=PlanDiskCache(root)).plans_for(registry, checking=True)
        cold.append(clock() - start)
    for _ in range(2 * PROBE_SAMPLES):
        cache = WrapperCache(disk=PlanDiskCache(os.path.join(run_dir, "synth-0")))
        start = clock()
        with tr.span("core.plans_for.warm"):
            cache.plans_for(registry, checking=True)
        warm.append(clock() - start)
        if cache.disk.hits != 1:
            problems.append("warm plan load missed the disk cache")
    out["jinn.synth_cold_s"] = median(cold)
    out["core.plancache.warm_load_s"] = median(warm)


def measure_trace(run_dir: str, tr, out: Dict[str, float], problems: List[str]) -> None:
    from repro.jinn.agent import JinnAgent
    from repro.trace import TraceRecorder, replay_path
    from repro.trace.format import iter_batches

    trace_dir = os.path.join(run_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    rows = {key: [] for key in ("record", "close", "decode", "replay")}
    events = 0
    size = 0
    for _ in range(TRACE_REPS):
        totals = dict.fromkeys(rows, 0.0)
        events = 0
        size = 0
        for name in _kernels():
            path = os.path.join(trace_dir, name + ".trace")
            recorder = TraceRecorder(path, workload=name)
            start = clock()
            run_kernel(name, RECORD_SCALE, [JinnAgent(observer=recorder)], tr)
            middle = clock()
            with tr.span("recorder.close"):
                recorded = recorder.close()
            end = clock()
            totals["record"] += middle - start
            totals["close"] += end - middle
            with tr.span("trace.iter_batches"):
                for _batch in iter_batches(path):
                    pass
            decoded = clock()
            with tr.span("trace.replay_path"):
                replayed = replay_path(path)
            totals["decode"] += decoded - end
            totals["replay"] += clock() - decoded
            if replayed.event_count != recorded or replayed.violations:
                problems.append("trace layer: {} replay disagrees".format(name))
            events += replayed.event_count
            size += os.path.getsize(path)
            os.unlink(path)
        for key in rows:
            rows[key].append(totals[key])
    record, close, decode, replay = (median(rows[key]) for key in ("record", "close", "decode", "replay"))
    out["trace.record_tps"] = events / (record + close)
    out["trace.replay_eps"] = events / replay
    out["trace.close_s"] = close
    out["trace.bytes_per_event"] = size / events
    out["trace.decode_us_per_event"] = 1e6 * decode / events
    out["trace.replay_engine_us_per_event"] = 1e6 * (replay - decode) / events


def measure_fuzz(seed: int, tr, out: Dict[str, float]) -> List[List[str]]:
    """One fuzz campaign in this process, step by step.

    Mirrors the job bodies (``valid_campaign`` and ``fault_campaign``):
    the same generators, seeds and ``run_ops`` oracle.  Returns the
    recorded valid Python/C traces for the ``pyc`` layer.
    """
    from repro.fuzz.engine import run_ops, task_rng
    from repro.fuzz.faults import faults_for
    from repro.fuzz.gen import generate_sequence
    from workloads import FUZZ_ROUNDS

    gen_s = 0.0
    gen_ops = 0
    run_s: List[float] = []
    runs = detected = divergences = 0
    pyc_traces: List[List[str]] = []
    for substrate in ("jni", "pyc"):
        tasks = [(None, ("valid", substrate, r)) for r in range(FUZZ_ROUNDS)]
        tasks += [(f, ("gen", f.name, r)) for f in faults_for(substrate) for r in range(FUZZ_ROUNDS)]
        for fault, tag in tasks:
            start = clock()
            with tr.span("fuzz.generate_sequence"):
                sequence = generate_sequence(task_rng(seed, *tag), substrate)
                if fault is not None:
                    sequence = fault.inject(task_rng(seed, "inject", *tag[1:]), sequence)
            middle = clock()
            with tr.span("fuzz.run_ops"):
                result = run_ops(substrate, sequence.ops)
            run_s.append(clock() - middle)
            gen_s += middle - start
            gen_ops += len(sequence.ops)
            divergences += bool(result.divergent)
            if fault is not None:
                runs += 1
                detected += any(v.machine == fault.machine for v in result.live.violations)
            elif substrate == "pyc":
                pyc_traces.append(result.trace_lines)
    out["fuzz.gen_us_per_op"] = 1e6 * gen_s / gen_ops
    out["fuzz.run_ops_ms"] = 1e3 * sum(run_s) / len(run_s)
    out["fuzz.detection_rate"] = detected / runs
    out["fuzz.divergences"] = divergences
    return pyc_traces


def measure_pyc(traces: List[List[str]], tr, out: Dict[str, float]) -> None:
    """Replay each recorded sequence with every Python/C machine ablated.

    Per sequence and registry the fastest of ``PYC_REPS`` interleaved
    timings counts, as in the ladder.
    """
    from repro.pyc.machines import build_pyc_registry
    from repro.trace import replay_lines

    registry = build_pyc_registry()
    configs = [("full", registry)] + [
        (spec.name, registry.without(spec.name)) for spec in registry
    ]
    best: Dict[str, List[float]] = {name: [float("inf")] * len(traces) for name, _ in configs}
    events = 0
    gc.collect()
    gc.freeze()
    try:
        for rep in range(PYC_REPS):
            for index, lines in enumerate(traces):
                for name, reg in rotated(configs, rep):
                    start = clock()
                    with tr.span("pyc.replay." + name):
                        for _ in range(PYC_LOOPS):
                            replayed = replay_lines(lines, registry=reg, force=True)
                    best[name][index] = min(best[name][index], clock() - start)
                    if rep == 0 and name == "full":
                        events += PYC_LOOPS * replayed.event_count
    finally:
        gc.unfreeze()
    full = sum(best["full"])
    for name, _ in configs[1:]:
        out["pyc.machine.{}.us_per_event".format(name)] = 1e6 * (full - sum(best[name])) / events


def measure_fleet(run_dir: str, seed: int, tr, out: Dict[str, float], problems: List[str]) -> None:
    """Fuzz campaigns on the fleet, as the ``fleet-fuzz`` workload runs them.

    The process-wide plan cache is emptied first so that the forked
    workers load their plans from disk, as they do in that workload.
    """
    from repro.core.cache import WRAPPER_CACHE

    WRAPPER_CACHE.clear()
    fleet = FleetFuzz(run_dir, seed)
    rows: Dict[str, List[float]] = {}
    for attempt in range(FLEET_CAMPAIGNS + 1):
        result = fleet.op(tr)
        problems.extend("fleet layer: " + w for w in result.wrong)
        if attempt == 0:
            continue  # warm-up: the first workers synthesize the plans
        report, stats, merge_s = fleet.last
        row = {
            "fleet.spawn_s": report.spawn_seconds,
            "fleet.busy_s": report.serial_cpu_seconds,
            "fleet.overhead_s": report.wall_seconds - report.critical_path_seconds,
            "fleet.utilization": report.utilization,
            "fleet.steals": report.steals,
            "fleet.requeues": report.requeues,
            "fleet.queue.fsyncs_per_ack": stats["fsyncs"] / stats["acked"],
            "fleet.queue.journal_bytes": stats["journal_bytes"],
            "fleet.merge_s": merge_s,
        }
        for key, value in row.items():
            rows.setdefault(key, []).append(value)
    for key, values in rows.items():
        out[key] = median(values)


def measure_import(env: Dict[str, str], tr, out: Dict[str, float]) -> None:
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "import repro\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = []
    for _ in range(PROBE_SAMPLES):
        with tr.span("cli.import"):
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
            )
        samples.append(float(done.stdout.decode().strip()))
    out["cli.import_s"] = median(samples)


def measure(run_dir: str, seed: int, env: Dict[str, str], tr) -> Tuple[Dict[str, float], List[str], List[str]]:
    """All per-layer metrics; ``(metrics, problems, governor-wrong kernels)``.

    ``problems`` lists anything that makes the breakdown untrustworthy:
    a wrong verdict outside the governor step, a replay disagreement or
    a call count that did not repeat.
    """
    out: Dict[str, float] = {}
    problems: List[str] = []
    with tr.span("layers.synthesis"):
        measure_synthesis(run_dir, tr, out, problems)
    with tr.span("layers.ladder"):
        measure_ladder(run_dir, tr, out, problems)
    governor_wrong = measure_governor_verdicts(tr, out)
    with tr.span("layers.trace"):
        measure_trace(run_dir, tr, out, problems)
    with tr.span("layers.fuzz"):
        pyc_traces = measure_fuzz(seed, tr, out)
    with tr.span("layers.pyc"):
        measure_pyc(pyc_traces, tr, out)
    with tr.span("layers.fleet"):
        measure_fleet(run_dir, seed, tr, out, problems)
    with tr.span("layers.cli"):
        measure_import(env, tr, out)
    return out, problems, governor_wrong
