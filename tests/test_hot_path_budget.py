"""A deterministic call budget for the checked crossing's hot path.

Python calls per language transition, counted with ``sys.setprofile``
(``call`` and ``c_call`` events, as ``perfbench/layers.count_calls``
counts them) over the 19 Table 3 kernels at 1/5000 of the paper's
transition counts.  The count is exact and repeatable where wall time
is not, so it is what the gate reads.

The bounds sit a little above the counts once every per-function fact
(non-null parameters, critical/exception obliviousness, fixed types,
entity-typing constants, method signatures and stack frames, the
class-object index) is
resolved before the first crossing rather than on each one: production
about 8.2 and full checking about 19.6 calls per transition on Python
3.10 and 3.11 (8.1 and 19.5 on 3.12), from 14.44 and 33.14 when every
crossing re-derived them.  Only upper bounds
are asserted, so the test holds across the supported interpreter
versions, whose counts differ slightly.
"""

import gc
import sys

from repro.jinn import JinnAgent
from repro.jvm import JavaVM
from repro.workloads.dacapo import BENCHMARK_NAMES, build_workload, iterations_for

SCALE = 5000
PRODUCTION_BUDGET = 10.5
FULL_BUDGET = 24.0


def _calls(fn) -> int:
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


def calls_per_transition(make_agents) -> float:
    calls = transitions = 0
    for name in BENCHMARK_NAMES:
        vm = JavaVM(agents=make_agents())
        build_workload(vm, name)
        rounds = iterations_for(name, SCALE)
        calls += _calls(
            lambda: vm.call_static("dacapo/" + name, "kernel", "(I)V", rounds)
        )
        transitions += vm.transition_count
        assert vm.shutdown() == []
    return calls / transitions


def test_production_calls_per_transition_within_budget():
    assert calls_per_transition(lambda: []) <= PRODUCTION_BUDGET


def test_full_checking_calls_per_transition_within_budget():
    agents = []

    def make():
        agents.append(JinnAgent())
        return agents[-1:]

    assert calls_per_transition(make) <= FULL_BUDGET
    assert all(not agent.rt.violations for agent in agents)
    assert all(not agent.termination_violations for agent in agents)
