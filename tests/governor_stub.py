"""A stub checker for driving the overhead governor on a fake clock.

The governor's control law needs crossings whose checked and raw costs
are known exactly.  :func:`governed_stub` builds them on the real call
path: a one-machine spec whose single post-call check advances a fake
clock by that function's configured cost, compiled into
:class:`repro.pipeline.PipelinePlan` entries over a stub function table
whose raw functions cost one tick.  The governor therefore meters the
same generated entries every checker installs.
"""

from collections import Counter
from types import SimpleNamespace

from repro.core.cache import WrapperCache
from repro.core.runtime import CheckerRuntime, RaiseViolationPolicy
from repro.fsm import (
    Direction,
    Encoding,
    EntitySelector,
    FunctionSelector,
    LanguageTransition,
    SpecRegistry,
    State,
    StateMachineSpec,
    StateTransition,
)
from repro.pipeline import PipelinePlan

_IDLE = State("Idle")
_STUB_FUNCTION = FunctionSelector("stub function", lambda m: m is not None)


def fake_clock(advance):
    """A deterministic clock: each read advances by ``advance[0]``."""
    cell = [0]

    def clock():
        cell[0] += advance[0]
        return cell[0]

    return clock


class CostEncoding(Encoding):
    """Counts checks; each check sets the clock step to its cost."""

    def __init__(self, spec, advance, costs):
        super().__init__(spec)
        self.advance = advance
        #: Checking cost per function, in fake-clock ticks; mutable.
        self.costs = costs
        #: Checks run per function.
        self.calls = Counter()

    def check(self, function):
        self.calls[function] += 1
        self.advance[0] = self.costs[function]


class CostSpec(StateMachineSpec):
    """One check on every stub function's return."""

    name = "cost"
    observed_entity = "a stub call"
    errors_discovered = ()
    constraint_class = "type"

    def __init__(self, advance, costs):
        self.advance = advance
        self.costs = costs

    def states(self):
        return (_IDLE,)

    def state_transitions(self):
        return (StateTransition(_IDLE, _IDLE, "call"),)

    def language_transitions_for(self, transition):
        return (
            LanguageTransition(
                Direction.RETURN_MANAGED_TO_NATIVE,
                _STUB_FUNCTION,
                EntitySelector.THREAD,
            ),
        )

    def make_encoding(self, host):
        return CostEncoding(self, self.advance, self.costs)

    def emit(self, meta, direction):
        if meta is None:
            return []
        return ["rt.cost.check({!r})".format(meta.name)]


def governed_stub(governor, costs):
    """Governed pipeline entries over stub functions with known costs.

    ``costs`` maps each stub function name to its checking cost in
    fake-clock ticks; raw calls cost one tick and return ``"raw"``.
    Replaces the governor's clock.  Returns ``(entries, encoding)``.
    """
    advance = [1]
    governor._clock = fake_clock(advance)
    spec = CostSpec(advance, costs)
    registry = SpecRegistry([spec])
    table = {name: SimpleNamespace(name=name, returns="void") for name in costs}
    rt = CheckerRuntime(None, registry, RaiseViolationPolicy())
    plan = PipelinePlan(
        rt, registry, table, governor=governor, cache=WrapperCache()
    )

    def raw(env):
        advance[0] = 1
        return "raw"

    entries = plan.entries({name: raw for name in costs})
    return entries, rt.cost
