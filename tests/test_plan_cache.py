"""The cross-process compiled-plan cache (repro.core.plancache).

The correctness surface: the digest must change whenever anything that
*produces* the plan changes (registry fingerprint, function table,
stage flags, interpreter bytecode tag, generator source salt), a warm
load must bind a pipeline behaviourally identical to a cold synthesis,
and every storage or decode failure must degrade to a counted miss —
never a wrong plan, never an exception reaching the checker.
"""

import json
import os

import pytest

from repro.core.cache import WrapperCache
from repro.core.plancache import (
    PlanDiskCache,
    default_disk_cache,
    plan_digest,
)
from repro.jinn.machines import build_registry
from repro.jinn.synthesizer import GENERATED_FILENAME


FLAGS = {"checking": True, "record": False, "govern": False,
         "telemetry": False}


class TestPlanDigest:
    def test_digest_is_stable_across_calls(self):
        registry = build_registry()
        assert plan_digest(registry, None, FLAGS) == plan_digest(
            registry, None, FLAGS
        )

    def test_digest_tracks_registry_identity(self):
        full = plan_digest(build_registry(), None, FLAGS)
        ablated = plan_digest(
            build_registry().without("nullness"), None, FLAGS
        )
        assert full != ablated

    def test_digest_tracks_stage_flags(self):
        registry = build_registry()
        base = plan_digest(registry, None, FLAGS)
        recording = plan_digest(registry, None, dict(FLAGS, record=True))
        assert base != recording

    def test_digest_tracks_function_table(self):
        registry = build_registry()
        jni = plan_digest(registry, None, FLAGS)
        custom = plan_digest(registry, {"Frobnicate": object()}, FLAGS)
        assert jni != custom

    def test_digest_includes_generator_salt(self, tmp_path, monkeypatch):
        # Perturbing a spec class's defining source file must change
        # the digest even though the registry fingerprint is unchanged
        # — that salt is what stops an emit-logic edit reviving a stale
        # plan.
        import repro.core.plancache as plancache

        registry = build_registry()
        before = plan_digest(registry, None, FLAGS)
        spec = next(iter(registry))
        source_path = plancache._source_file(type(spec))
        assert source_path is not None
        perturbed = dict(plancache._FILE_DIGESTS)
        perturbed[source_path] = "0" * 64
        monkeypatch.setattr(plancache, "_FILE_DIGESTS", perturbed)
        assert plan_digest(registry, None, FLAGS) != before

    @pytest.mark.parametrize(
        "module_name",
        ["repro.core.defaults", "repro.fsm.machine", "repro.jinn.machines.common"],
    )
    def test_digest_includes_emitted_constant_sources(self, module_name, monkeypatch):
        # The return-kind defaults are baked into every emitted
        # ``rt.fail(env, v, <default>)``, and the selectors decide which
        # wrapper gets which checks: editing either must not revive a
        # plan generated from the old text.
        import importlib

        import repro.core.plancache as plancache

        registry = build_registry()
        before = plan_digest(registry, None, FLAGS)
        source_path = plancache._source_file(importlib.import_module(module_name))
        assert source_path is not None
        perturbed = dict(plancache._FILE_DIGESTS)
        perturbed[source_path] = "0" * 64
        monkeypatch.setattr(plancache, "_FILE_DIGESTS", perturbed)
        assert plan_digest(registry, None, FLAGS) != before


class TestPlanDiskCache:
    def test_store_then_load_roundtrips_code(self, tmp_path):
        cache = PlanDiskCache(str(tmp_path))
        code = compile("VALUE = 41 + 1", GENERATED_FILENAME, "exec")
        cache.store("d" * 64, "VALUE = 41 + 1", code)
        assert cache.writes == 1
        loaded = cache.load("d" * 64)
        assert loaded is not None
        namespace = {}
        exec(loaded, namespace)
        assert namespace["VALUE"] == 42
        assert loaded.co_filename == GENERATED_FILENAME
        assert cache.stats() == {
            "hits": 1, "misses": 0, "writes": 1, "errors": 0,
        }

    def test_absent_entry_is_a_counted_miss(self, tmp_path):
        cache = PlanDiskCache(str(tmp_path))
        assert cache.load("e" * 64) is None
        assert cache.misses == 1
        assert cache.errors == 0

    def test_corrupt_entry_is_a_counted_error_and_removed(self, tmp_path):
        cache = PlanDiskCache(str(tmp_path))
        path = os.path.join(str(tmp_path), "f" * 64 + ".plan")
        with open(path, "wb") as f:
            f.write(b"not json at all\n@@@@\n")
        assert cache.load("f" * 64) is None
        assert cache.errors == 1
        assert not os.path.exists(path)  # quarantined, not retried

    def test_wrong_digest_header_is_dropped(self, tmp_path):
        # An entry whose header disagrees with its filename digest is
        # stale (renamed, copied, tampered): drop it, count a miss.
        cache = PlanDiskCache(str(tmp_path))
        code = compile("pass", GENERATED_FILENAME, "exec")
        cache.store("a" * 64, "pass", code)
        os.rename(
            os.path.join(str(tmp_path), "a" * 64 + ".plan"),
            os.path.join(str(tmp_path), "b" * 64 + ".plan"),
        )
        assert cache.load("b" * 64) is None
        assert cache.misses == 1

    def test_truncated_blob_degrades_to_error(self, tmp_path):
        cache = PlanDiskCache(str(tmp_path))
        code = compile("pass", GENERATED_FILENAME, "exec")
        cache.store("c" * 64, "pass", code)
        path = os.path.join(str(tmp_path), "c" * 64 + ".plan")
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[: len(data) // 3])
        assert cache.load("c" * 64) is None
        assert cache.errors >= 1

    def test_store_failure_degrades_silently(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should be")
        cache = PlanDiskCache(str(target))
        code = compile("pass", GENERATED_FILENAME, "exec")
        cache.store("9" * 64, "pass", code)  # must not raise
        assert cache.errors == 1
        assert cache.writes == 0


class TestWrapperCacheIntegration:
    def test_second_process_warm_starts_from_disk(self, tmp_path):
        registry = build_registry()
        cold = WrapperCache(disk=PlanDiskCache(str(tmp_path)))
        first = cold.plans_for(registry)
        stats = cold.stats()
        assert stats["disk_enabled"] == 1
        assert stats["disk_misses"] == 1
        assert stats["disk_writes"] == 1
        # A fresh in-memory cache over the same directory models the
        # next process: hit, no write, and a working pipeline.
        warm = WrapperCache(disk=PlanDiskCache(str(tmp_path)))
        second = warm.plans_for(registry)
        stats = warm.stats()
        assert stats["disk_hits"] == 1
        assert stats["disk_writes"] == 0
        assert stats["disk_errors"] == 0
        assert callable(first) and callable(second)

    def test_warm_plan_behaves_identically(self, tmp_path, monkeypatch):
        # Run the same observed workload against a cold-built and a
        # disk-loaded plan: identical outcome and violation count.
        # ``pipeline.plan`` binds WRAPPER_CACHE at import time, so both
        # module globals must point at the test instance.
        from repro.obs import observed_run

        from repro.core import cache as cache_module
        from repro.pipeline import plan as plan_module

        registry_dir = str(tmp_path / "plans")

        def run_once():
            report = observed_run(7, substrate="pyc", repeats=2)
            return (report["outcome"], report["violations"])

        cold_cache = WrapperCache(disk=PlanDiskCache(registry_dir))
        monkeypatch.setattr(cache_module, "WRAPPER_CACHE", cold_cache)
        monkeypatch.setattr(plan_module, "WRAPPER_CACHE", cold_cache)
        cold = run_once()
        cold_stats = cold_cache.stats()
        warm_cache = WrapperCache(disk=PlanDiskCache(registry_dir))
        monkeypatch.setattr(cache_module, "WRAPPER_CACHE", warm_cache)
        monkeypatch.setattr(plan_module, "WRAPPER_CACHE", warm_cache)
        warm = run_once()
        warm_stats = warm_cache.stats()
        assert cold == warm
        assert cold_stats["disk_writes"] >= 1
        assert warm_stats["disk_hits"] >= 1

    def test_disk_cache_optional(self):
        cache = WrapperCache()
        stats = cache.stats()
        assert stats["disk_enabled"] == 0
        assert stats["disk_hits"] == 0
        built = cache.plans_for(build_registry())
        assert callable(built)

    def test_clear_resets_disk_counters(self, tmp_path):
        cache = WrapperCache(disk=PlanDiskCache(str(tmp_path)))
        cache.plans_for(build_registry())
        assert cache.stats()["disk_writes"] == 1
        cache.clear()
        assert cache.stats()["disk_writes"] == 0


class TestEnvironmentGating:
    @pytest.mark.parametrize("value", ["off", "0", "none", "disabled", ""])
    def test_disabling_values(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", value)
        assert default_disk_cache() is None

    def test_explicit_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "plans"))
        cache = default_disk_cache()
        assert cache is not None
        assert cache.root == str(tmp_path / "plans")

    def test_default_lives_under_xdg_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = default_disk_cache()
        assert cache is not None
        assert cache.root == os.path.join(str(tmp_path), "repro", "plans")

    def test_cached_and_fresh_plans_share_a_filename(self, tmp_path):
        # Tracebacks and coverage must look the same whether the plan
        # came off the platter or out of the synthesizer.
        registry = build_registry()
        cold = WrapperCache(disk=PlanDiskCache(str(tmp_path)))
        cold.plans_for(registry)
        digest = plan_digest(registry, None, FLAGS)
        entry = os.path.join(str(tmp_path), digest + ".plan")
        assert os.path.exists(entry)
        with open(entry, "rb") as f:
            header = json.loads(f.readline().decode("utf-8"))
        assert header["digest"] == digest
        warm_code = PlanDiskCache(str(tmp_path)).load(digest)
        assert warm_code.co_filename == GENERATED_FILENAME
