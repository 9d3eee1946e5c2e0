"""Golden outputs for the checker call path.

Every case runs one fixed input through the fused pipeline (the only
call path) and compares what it observed with the committed
``tests/data/pipeline_golden.json``: the run outcome, the live and the
replayed violation reports, their diff, the event count, and the
recorded trace lines.  The golden file was captured while the historic
nested wrapper stack still existed and matched it case for case, so it
holds the old path's behaviour without keeping the old code alive.

Trace lines need one normalization on JNI: the recorded ``env_token``
is ``id(env)``, a memory address that differs between runs.  Tokens are
remapped first-seen → ordinal before comparing; everything else must
match byte for byte.

After a deliberate behaviour change, regenerate the file with
``PYTHONPATH=src python tests/test_pipeline_parity.py`` and review the
diff.
"""

import hashlib
import json
import os

import pytest

from repro.fuzz import FAULTS
from repro.fuzz.engine import run_ops, task_rng
from repro.fuzz.gen import generate_sequence
from repro.fuzz.ops import run_jni_ops, run_pyc_ops
from repro.resilience import GovernorPolicy, OverheadGovernor, chaos_run
from repro.core.runtime import ContainmentPolicy

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS_MANIFEST = os.path.join(DATA, "fuzz_corpus", "manifest.json")
GOLDEN_PATH = os.path.join(DATA, "pipeline_golden.json")
SUBSTRATES = ("jni", "pyc")


def normalized_lines(lines, substrate):
    """Trace lines with JNI env address tokens remapped to ordinals."""
    if substrate != "jni":
        return list(lines)
    env_ids = {}

    def remap(token):
        if token not in env_ids:
            env_ids[token] = len(env_ids)
        return env_ids[token]

    out = []
    for line in lines:
        record = json.loads(line)
        if not isinstance(record, list):
            out.append(line)  # the header object
            continue
        kind = record[0]
        if kind == "t":
            record[3] = remap(record[3])
        elif kind == "c":
            record[4][1] = remap(record[4][1])
        elif kind == "r":
            record[5][1] = remap(record[5][1])
        out.append(json.dumps(record))
    return out


def trace_digest(lines, substrate):
    """sha256 and line count of the normalized trace."""
    normalized = normalized_lines(lines, substrate)
    text = "\n".join(normalized).encode("utf-8")
    return {"sha256": hashlib.sha256(text).hexdigest(), "lines": len(normalized)}


def _json_safe(value):
    """The value as it reads back from the golden file."""
    return json.loads(json.dumps(value))


# -- the cases ------------------------------------------------------------


def _execution(substrate, ops):
    """One live run under a recorder, replayed and diffed."""
    result = run_ops(substrate, ops)
    return {
        "outcome": result.live.outcome,
        "reports": result.live.reports,
        "replay_reports": result.replay_reports,
        "diff": result.diff,
        "event_count": result.event_count,
        "trace": trace_digest(result.trace_lines, substrate),
    }


def valid_case(substrate):
    sequence = generate_sequence(
        task_rng(2026, "pipeline-parity", substrate), substrate
    )
    return _execution(substrate, sequence.ops)


def _corpus_entries():
    with open(CORPUS_MANIFEST) as f:
        manifest = json.load(f)
    return manifest["entries"]


def corpus_case(entry):
    return _execution(entry["substrate"], [tuple(op) for op in entry["ops"]])


def fault_case(fault):
    base = generate_sequence(
        task_rng(2026, "pipeline-fault", fault.name), fault.substrate
    )
    injected = fault.inject(task_rng(2026, "pipeline-inject", fault.name), base)
    return _execution(fault.substrate, injected.ops)


def chaos_case(substrate):
    return chaos_run(3, substrate=substrate)


def _structural(report):
    """The deterministic slice of a governor report (timings dropped)."""
    return {
        "budget": report["budget"],
        "window": report["window"],
        "degraded": report["degraded"],
        "pairs": report["pairs"],
    }


def _preset_governor(substrate, period):
    """A governor with deterministic sampling: preset periods, no
    rebalance (the window is far larger than any test workload)."""
    governor = OverheadGovernor(GovernorPolicy(window=10**6))
    if substrate == "pyc":
        from repro.pyc.spec import PY_FUNCTIONS as table
    else:
        from repro.jni.functions import FUNCTIONS as table
    for name in table:
        governor.fused_binding(name).period = period
    return governor


def _injected(substrate, tag):
    """The first fault of a substrate, injected into a tagged sequence."""
    fault = next(f for f in FAULTS if f.substrate == substrate)
    base = generate_sequence(task_rng(2026, tag, substrate), substrate)
    return fault.inject(task_rng(2026, tag), base)


def _runner(substrate):
    return run_pyc_ops if substrate == "pyc" else run_jni_ops


def governed_case(substrate):
    """Slot-counted sampling at a preset period of 3."""
    ops = [tuple(op) for op in _injected(substrate, "pipeline-govern").ops] * 3
    governor = _preset_governor(substrate, period=3)
    outcome = _runner(substrate)(ops, governor=governor)
    return {
        "outcome": outcome.outcome,
        "reports": outcome.reports,
        "governor": _structural(governor.report()),
    }


def full_stack_case(substrate):
    """Recorder + governor + containment all attached at once."""
    from repro.trace import TraceRecorder

    recorder = TraceRecorder()
    # budget=1.0: the share can never exceed it, so the control law
    # never degrades a pair and the run stays deterministic.
    governor = OverheadGovernor(GovernorPolicy(budget=1.0))
    outcome = _runner(substrate)(
        _injected(substrate, "pipeline-stack").ops,
        observer=recorder,
        governor=governor,
        containment=ContainmentPolicy(),
    )
    recorder.close()
    return {
        "outcome": outcome.outcome,
        "reports": outcome.reports,
        "trace": trace_digest(recorder.lines, substrate),
    }


def _fault_id(fault):
    return "{}-{}".format(fault.substrate, fault.name)


def golden_cases():
    """Every case the suite checks, by golden-file key."""
    cases = {}
    for substrate in SUBSTRATES:
        cases["valid/" + substrate] = lambda s=substrate: valid_case(s)
    for entry in _corpus_entries():
        cases["corpus/" + entry["name"]] = lambda e=entry: corpus_case(e)
    for fault in FAULTS:
        cases["fault/" + _fault_id(fault)] = lambda f=fault: fault_case(f)
    for substrate in SUBSTRATES:
        cases["chaos/" + substrate] = lambda s=substrate: chaos_case(s)
    for substrate in SUBSTRATES:
        cases["governed/" + substrate] = lambda s=substrate: governed_case(s)
    for substrate in SUBSTRATES:
        cases["full_stack/" + substrate] = lambda s=substrate: full_stack_case(s)
    return cases


def write_golden(path=GOLDEN_PATH):
    golden = {key: case() for key, case in golden_cases().items()}
    with open(path, "w") as f:
        f.write(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return golden


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def assert_golden(golden, key, observed):
    assert key in golden, "no golden output for {}".format(key)
    assert _json_safe(observed) == golden[key]
    return observed


# -- the tests ------------------------------------------------------------


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(golden_cases())


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_valid_sequence_parity(golden, substrate):
    result = assert_golden(golden, "valid/" + substrate, valid_case(substrate))
    assert result["reports"] == []  # valid sequences stay clean


@pytest.mark.parametrize("entry", _corpus_entries(), ids=lambda e: e["name"])
def test_fuzz_corpus_parity(golden, entry):
    """Every minimized corpus slice detects as it always has."""
    result = assert_golden(golden, "corpus/" + entry["name"], corpus_case(entry))
    assert len(result["reports"]) >= 1  # the slice still detects


@pytest.mark.parametrize("fault", FAULTS, ids=_fault_id)
def test_injected_fault_parity(golden, fault):
    """Freshly injected fault sequences, not just the frozen corpus."""
    assert_golden(golden, "fault/" + _fault_id(fault), fault_case(fault))


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_chaos_report_parity(golden, substrate):
    """Internal checker faults contain as they always have."""
    report = assert_golden(golden, "chaos/" + substrate, chaos_case(substrate))
    assert report["machines_quarantined"] > 0  # the scenario bites


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_governed_sampling_parity(golden, substrate):
    """Slot-counted sampling skips the same calls as it always has."""
    result = assert_golden(
        golden, "governed/" + substrate, governed_case(substrate)
    )
    sampled_out = sum(
        p["sampled_out"] for p in result["governor"]["pairs"].values()
    )
    assert sampled_out > 0  # sampling actually engaged


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_full_stack_parity(golden, substrate):
    """Recorder + governor + containment all attached at once."""
    assert_golden(golden, "full_stack/" + substrate, full_stack_case(substrate))


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_telemetry_tap_parity(substrate):
    """Fusing the telemetry tap in changes no violation or trace byte.

    Same fault-injected sequence through the fused pipeline with a full
    :class:`~repro.obs.hub.ObsHub` attached and with telemetry off; the
    tap may only *watch* — outcomes, reports, and recorded trace lines
    must match byte for byte, while the hub itself must have seen every
    crossing and clustered the violations.
    """
    from repro.obs import ObsHub
    from repro.trace import TraceRecorder

    fault = next(f for f in FAULTS if f.substrate == substrate)
    base = generate_sequence(
        task_rng(2026, "pipeline-telemetry", substrate), substrate
    )
    injected = fault.inject(task_rng(2026, "pipeline-telemetry"), base)
    runner = run_pyc_ops if substrate == "pyc" else run_jni_ops
    hub = ObsHub()
    lines = {}
    outcomes = {}
    for label, telemetry in (("off", None), ("on", hub)):
        recorder = TraceRecorder()
        outcomes[label] = runner(
            injected.ops,
            observer=recorder,
            telemetry=telemetry,
        )
        recorder.close()
        lines[label] = normalized_lines(recorder.lines, substrate)
    assert outcomes["on"].outcome == outcomes["off"].outcome
    assert outcomes["on"].reports == outcomes["off"].reports
    assert lines["on"] == lines["off"]
    # The tap was not inert: every crossing counted, violations triaged.
    summary = hub.summary()
    assert summary["crossings"] > 0
    assert len(outcomes["on"].reports) >= 1  # the fault still detects
    assert summary["violation_clusters"] >= 1


if __name__ == "__main__":
    cases = write_golden()
    print("wrote {} cases to {}".format(len(cases), GOLDEN_PATH))
