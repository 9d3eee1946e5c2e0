"""Record/replay round-trip parity, multi-file replay, fingerprint guard.

The tentpole contract: replaying a trace through the interpretive
dispatch path re-detects *byte-identical* violation reports, in the
same order, as the live checker whose run produced the trace — on both
substrates, for every workload family.
"""

import pytest

from repro.jinn.agent import JinnAgent
from repro.jinn.machines import build_registry
from repro.trace import TraceRecorder
from repro.trace.diff import diff_reports, render_diff
from repro.trace.format import TraceFingerprintError
from repro.trace.replay import replay_path, replay_paths
from repro.workloads.dacapo import run_workload
from repro.workloads.microbench import MICROBENCHMARKS, scenario_by_name
from repro.workloads.outcomes import run_scenario
from repro.workloads.pyc_micro import PYC_MICROBENCHMARKS, run_pyc_scenario


def record_micro(name, path):
    """Record one JNI micro live; returns the live violation reports."""
    recorder = TraceRecorder(str(path))
    result = run_scenario(
        scenario_by_name(name).run, checker="jinn", observer=recorder
    )
    recorder.close()
    return result.violations


def record_pyc(name, path):
    recorder = TraceRecorder(str(path))
    scenario = next(s for s in PYC_MICROBENCHMARKS if s.name == name)
    record = run_pyc_scenario(scenario, observer=recorder)
    recorder.close()
    return record["violations"]


def record_dacapo(name, path, iterations=20):
    recorder = TraceRecorder(str(path), workload="dacapo/" + name)
    agent = JinnAgent(mode="generated", observer=recorder)
    run_workload(name, config="jinn", agents=[agent], iterations=iterations)
    recorder.close()
    return [v.report() for v in agent.rt.violations]


class TestRoundTripParity:
    @pytest.mark.parametrize(
        "scenario", MICROBENCHMARKS, ids=lambda s: s.name
    )
    def test_jni_micro_replay_matches_live(self, scenario, tmp_path):
        path = tmp_path / "t.trace"
        live = record_micro(scenario.name, path)
        replayed = replay_path(str(path))
        assert replayed.violations == live, scenario.name
        # The live stream is also embedded in the trace as "v" records.
        assert replayed.violations == replayed.recorded_reports
        assert live, scenario.name  # every micro demonstrates a bug

    @pytest.mark.parametrize(
        "scenario", PYC_MICROBENCHMARKS, ids=lambda s: s.name
    )
    def test_pyc_micro_replay_matches_live(self, scenario, tmp_path):
        path = tmp_path / "t.trace"
        live = record_pyc(scenario.name, path)
        replayed = replay_path(str(path))
        assert replayed.violations == live, scenario.name
        assert replayed.violations == replayed.recorded_reports

    @pytest.mark.parametrize("name", ["luindex", "jess", "compress"])
    def test_dacapo_replay_matches_live(self, name, tmp_path):
        path = tmp_path / "t.trace"
        live = record_dacapo(name, path)
        replayed = replay_path(str(path))
        assert replayed.violations == live
        assert live == []  # the kernels are deliberately bug-free
        assert replayed.event_count > 0

    def test_two_replays_of_one_trace_report_zero_drift(self, tmp_path):
        path = tmp_path / "t.trace"
        record_micro("ExceptionState", path)
        first = replay_path(str(path))
        second = replay_path(str(path))
        diff = diff_reports(first.violations, second.violations)
        assert not diff["drift"]
        assert "zero drift" in render_diff(diff)


class TestFingerprintGuard:
    def test_mismatched_registry_fails_loudly(self, tmp_path):
        path = tmp_path / "t.trace"
        record_micro("ExceptionState", path)
        perturbed = build_registry().without("nullness")
        with pytest.raises(TraceFingerprintError):
            replay_path(str(path), registry=perturbed)

    def test_force_replays_against_perturbed_registry(self, tmp_path):
        """--force is the checker-diffing workflow: replaying against a
        registry minus one machine loses exactly that machine's
        reports, which diff_reports then surfaces as drift."""
        path = tmp_path / "t.trace"
        live = record_micro("Nullness", path)
        perturbed = build_registry().without("nullness")
        replayed = replay_path(str(path), registry=perturbed, force=True)
        assert replayed.violations != live
        diff = diff_reports(live, replayed.violations)
        assert diff["drift"]
        assert "DRIFT" in render_diff(diff)


class TestRecorderLifecycle:
    def test_recorder_is_single_use(self, tmp_path):
        recorder = TraceRecorder(str(tmp_path / "t.trace"))
        run_scenario(
            scenario_by_name("ExceptionState").run,
            checker="jinn",
            observer=recorder,
        )
        with pytest.raises(RuntimeError):
            run_scenario(
                scenario_by_name("ExceptionState").run,
                checker="jinn",
                observer=recorder,
            )

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.trace"
        recorder = TraceRecorder(str(path))
        run_scenario(
            scenario_by_name("ExceptionState").run,
            checker="jinn",
            observer=recorder,
        )
        first = recorder.close()
        assert recorder.close() == first

    def test_unobserved_agent_has_no_observer(self):
        """Guard, don't wrap: with no recorder the runtime hook stays
        None and the run is the plain checking run."""
        agent = JinnAgent(mode="generated")
        run_workload("compress", config="jinn", agents=[agent], iterations=5)
        assert agent.rt.observer is None


class TestShardedReplay:
    def _corpus(self, tmp_path):
        paths = []
        expected = []
        for name in ("ExceptionState", "Nullness", "GlobalLeak"):
            path = tmp_path / (name + ".trace")
            live = record_micro(name, path)
            paths.append(str(path))
            expected.extend(live)
        return paths, expected

    def test_multi_file_shards_merge_in_input_order(self, tmp_path):
        paths, expected = self._corpus(tmp_path)
        merged = replay_paths(paths)
        assert merged.violations == expected
        # Each file carries the stream its live checker logged.
        recorded = [line for *_, lines in merged.per_file for line in lines]
        assert recorded == expected
        assert merged.event_count == sum(
            replay_path(path).event_count for path in paths
        )

    def test_workers_report_cpu_seconds(self, tmp_path):
        paths, _ = self._corpus(tmp_path)
        merged = replay_paths(paths)
        assert len(merged.worker_seconds) == 3
        assert merged.critical_path_seconds == max(merged.worker_seconds)
