"""The three workloads: what a fresh process sets up, one op, its oracle.

Every op is run closed-loop by :mod:`run` — the next op starts when the
previous one has returned — and reports the live transitions it ran,
its wall time, the wall time of the phase that ran those transitions
under checking, and the wrong verdicts its oracle found.  A wrong
verdict is counted and described, never raised: the loop goes on.

- ``live-table3``: the 19 bug-free Table 3 kernels under the default
  ``JinnAgent()`` (generated, fused), a fresh VM per kernel, in a
  seed-shuffled order.  Load falls on the substrate, the pipeline and
  the machines' pass path; no trace, fuzz or fleet code runs.
- ``record-replay``: the same kernels recorded under full checking to
  trace files, each file then replayed with ``replay_path``.  Replay
  bypasses the substrate and the generated code.
- ``fleet-fuzz``: one seeded fuzz campaign (24 jobs, both substrates,
  all 22 fault classes) on the fleet's worker processes with a fresh
  persistent job queue, CLI defaults otherwise (``sync=eager``,
  ``batch=1``).  The only workload that runs the Python/C substrate and
  the checkers' error paths.

Imports of ``repro`` stay inside the functions: the set-up probe times a
fresh process from its first ``import repro``.
"""

from __future__ import annotations

import os
import random
import time
from typing import List

#: Fractions of the paper's Table 3 transition counts.  Each sweep of
#: the 19 kernels runs ``max(paper // scale, 64)`` transitions per
#: kernel: 78.6k at 1/1000, 15.7k at 1/5000.
LIVE_SCALE = 1000
RECORD_SCALE = 5000
#: ``fuzz run``'s default rounds per campaign job.
FUZZ_ROUNDS = 3

clock = time.perf_counter


class OpResult:
    __slots__ = ("transitions", "seconds", "live_seconds", "wrong")

    def __init__(self, transitions: int, seconds: float, live_seconds: float, wrong: List[str]):
        #: Language transitions the op ran live under checking.
        self.transitions = transitions
        #: Wall time of the whole op.
        self.seconds = seconds
        #: Wall time of the phase that ran ``transitions``.
        self.live_seconds = live_seconds
        #: One description per wrong verdict.
        self.wrong = wrong


def fleet_workers() -> int:
    """``nproc``: the fleet runs one worker per usable CPU."""
    return len(os.sched_getaffinity(0))


def kernel_order(rng: random.Random) -> List[str]:
    from repro.workloads.dacapo import BENCHMARK_NAMES

    names = list(BENCHMARK_NAMES)
    rng.shuffle(names)
    return names


class KernelRun:
    """Figures of one kernel on one VM: transitions, seconds in the
    kernel call and in ``vm.shutdown``, the counter's result, the
    kernel's exception and the VM's leak report."""

    __slots__ = ("transitions", "kernel_s", "shutdown_s", "calls", "error", "leaks")


def run_kernel(name: str, scale: int, agents, tr, counter=None) -> KernelRun:
    """One fresh VM runs one kernel.  The kernel call is timed or, with
    ``counter``, handed to it and its result kept.

    An exception out of the kernel is kept, not raised, so the caller's
    oracle can count it.
    """
    from repro.jvm import JavaVM
    from repro.workloads.dacapo import build_workload, iterations_for

    run = KernelRun()
    run.calls = run.error = None
    with tr.span("vm.create"):
        vm = JavaVM(agents=agents)
        build_workload(vm, name)
    rounds = iterations_for(name, scale)

    def kernel():
        try:
            vm.call_static("dacapo/" + name, "kernel", "(I)V", rounds)
        except Exception as exc:
            run.error = exc

    with tr.span("vm.call_static"):
        start = clock()
        if counter is None:
            kernel()
        else:
            run.calls = counter(kernel)
        run.kernel_s = clock() - start
    run.transitions = vm.transition_count
    start = clock()
    with tr.span("vm.shutdown"):
        run.leaks = vm.shutdown()
    run.shutdown_s = clock() - start
    return run


def kernel_verdict(name: str, agent, run: KernelRun) -> List[str]:
    """Wrong verdicts of one bug-free kernel run: any violation, leak or exception."""
    wrong = []
    if run.error is not None:
        wrong.append("{}: {}: {}".format(name, type(run.error).__name__, run.error))
    if agent is not None and agent.rt.violations:
        wrong.append("{}: {} violations".format(name, len(agent.rt.violations)))
    if agent is not None and agent.termination_violations:
        wrong.append("{}: {} leaks at VM death".format(name, len(agent.termination_violations)))
    if run.leaks:
        wrong.append("{}: VM leak report {}".format(name, run.leaks[:2]))
    return wrong


class LiveTable3:
    name = "live-table3"
    scales = {"live": LIVE_SCALE}

    def __init__(self, run_dir: str, seed: int):
        self.rng = random.Random(seed)

    @staticmethod
    def setup() -> None:
        import repro  # noqa: F401
        from repro.jinn.agent import JinnAgent
        from repro.jvm import JavaVM

        JavaVM(agents=[JinnAgent()]).shutdown()

    def op(self, tr) -> OpResult:
        from repro.jinn.agent import JinnAgent

        order = kernel_order(self.rng)
        wrong: List[str] = []
        transitions = 0
        start = clock()
        with tr.span("op"):
            for name in order:
                agent = JinnAgent()
                run = run_kernel(name, LIVE_SCALE, [agent], tr)
                transitions += run.transitions
                wrong += kernel_verdict(name, agent, run)
        seconds = clock() - start
        return OpResult(transitions, seconds, seconds, wrong)

    def close(self) -> None:
        pass


class RecordReplay:
    name = "record-replay"
    scales = {"record": RECORD_SCALE}

    def __init__(self, run_dir: str, seed: int):
        self.rng = random.Random(seed)
        self.trace_dir = os.path.join(run_dir, "traces")
        os.makedirs(self.trace_dir, exist_ok=True)

    @staticmethod
    def setup() -> None:
        import repro  # noqa: F401
        from repro.jinn.agent import JinnAgent
        from repro.jvm import JavaVM
        from repro.trace import TraceRecorder, replay_lines

        recorder = TraceRecorder()
        JavaVM(agents=[JinnAgent(observer=recorder)]).shutdown()
        recorder.close()
        replay_lines(recorder.lines)

    def op(self, tr) -> OpResult:
        from repro.jinn.agent import JinnAgent
        from repro.trace import TraceRecorder, replay_path

        wrong: List[str] = []
        transitions = 0
        record_s = 0.0
        start = clock()
        with tr.span("op"):
            for name in kernel_order(self.rng):
                path = os.path.join(self.trace_dir, name + ".trace")
                began = clock()
                recorder = TraceRecorder(path, workload=name)
                agent = JinnAgent(observer=recorder)
                count = run_kernel(name, RECORD_SCALE, [agent], tr).transitions
                with tr.span("recorder.close"):
                    recorder.close()
                record_s += clock() - began
                transitions += count
                try:
                    with tr.span("trace.replay_path"):
                        replayed = replay_path(path)
                except Exception as exc:
                    wrong.append("{}: replay failed: {}: {}".format(name, type(exc).__name__, exc))
                    continue
                live = [violation.report() for violation in agent.rt.violations]
                if replayed.violations != live:
                    wrong.append(
                        "{}: replayed {} violations, live {}".format(
                            name, len(replayed.violations), len(live)
                        )
                    )
                if replayed.event_count != count:
                    wrong.append(
                        "{}: replayed {} events, live {} transitions".format(
                            name, replayed.event_count, count
                        )
                    )
        return OpResult(transitions, clock() - start, record_s, wrong)

    def close(self) -> None:
        for entry in os.listdir(self.trace_dir):
            os.unlink(os.path.join(self.trace_dir, entry))


class FleetFuzz:
    name = "fleet-fuzz"
    scales = {"fuzz_rounds": FUZZ_ROUNDS}

    def __init__(self, run_dir: str, seed: int):
        self.rng = random.Random(seed)
        self.run_dir = run_dir
        self.workers = fleet_workers()
        self.campaigns = 0
        #: ``(FleetReport, JobQueue.stats(), merge seconds)`` of the last op.
        self.last = None

    @staticmethod
    def setup() -> None:
        """Cold plan synthesis for both substrates' recorded runs, then
        one spawn of the fleet's workers."""
        import repro  # noqa: F401
        from repro.fleet import FleetScheduler
        from repro.fuzz.engine import run_ops, task_rng
        from repro.fuzz.gen import generate_sequence

        for substrate in ("jni", "pyc"):
            sequence = generate_sequence(task_rng(0, "perfbench-setup", substrate), substrate)
            run_ops(substrate, sequence.ops)
        FleetScheduler([], workers=fleet_workers()).run()

    def op(self, tr) -> OpResult:
        from repro.fleet import FleetScheduler, JobQueue, fuzz_jobs, merge_fuzz
        from repro.fleet.scheduler import CRASH, EXPIRED, HANG
        from repro.fuzz.engine import fuzz_gate

        seed = self.rng.randrange(1 << 31)
        self.campaigns += 1
        path = os.path.join(self.run_dir, "queue-{}.journal".format(self.campaigns))
        start = clock()
        with tr.span("op"):
            queue = JobQueue(path)
            try:
                jobs = fuzz_jobs(seed, rounds=FUZZ_ROUNDS, substrate="both")
                with tr.span("fleet.scheduler_run"):
                    report = FleetScheduler(
                        jobs, workers=self.workers, seed=seed, queue=queue
                    ).run()
                merge_start = clock()
                with tr.span("fleet.merge"):
                    merged = merge_fuzz(report, seed, FUZZ_ROUNDS, "both")
                merge_s = clock() - merge_start
                stats = queue.stats()
            except Exception as exc:
                failure = "seed {}: campaign failed: {}: {}".format(seed, type(exc).__name__, exc)
                return OpResult(0, clock() - start, clock() - start, [failure])
            finally:
                queue.close()
                os.unlink(path)
        seconds = clock() - start
        self.last = (report, stats, merge_s)
        wrong = ["seed {}: {}".format(seed, failure) for failure in fuzz_gate(merged)]
        counts = report.counts
        for kind in (CRASH, HANG, EXPIRED):
            if counts[kind]:
                wrong.append("seed {}: {} jobs ended {}".format(seed, counts[kind], kind))
        return OpResult(report.events, seconds, seconds, wrong)

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (LiveTable3, RecordReplay, FleetFuzz)}
