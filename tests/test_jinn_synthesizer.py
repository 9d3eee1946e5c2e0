"""Tests for the synthesizer (Algorithm 1) and its generated code."""

import pytest

from repro.fsm.events import Site
from repro.jinn import Synthesizer, build_registry, count_noncomment_lines
from repro.jinn.synthesizer import NATIVE_KEY
from repro.jni import functions


@pytest.fixture(scope="module")
def synthesizer():
    return Synthesizer(build_registry())


@pytest.fixture(scope="module")
def plan(synthesizer):
    return synthesizer.plan()


@pytest.fixture(scope="module")
def source(synthesizer):
    return synthesizer.generate_source()


class TestPlan:
    def test_every_function_planned(self, plan):
        assert set(plan) == set(functions.FUNCTIONS) | {NATIVE_KEY}

    def test_every_jni_function_gets_env_check_first(self, plan):
        for name in functions.FUNCTIONS:
            pre = plan[name][Site.PRE]
            assert pre
            assert pre[0].startswith("rt.jnienv_state.check(")

    def test_exception_oblivious_functions_skip_exception_check(self, plan):
        oblivious = plan["ExceptionClear"][Site.PRE]
        assert not any("exception_state" in line for line in oblivious)
        sensitive = plan["FindClass"][Site.PRE]
        assert any("exception_state" in line for line in sensitive)

    def test_critical_safe_functions_skip_critical_check(self, plan):
        safe = plan["GetStringCritical"][Site.PRE]
        assert not any("check_sensitive" in line and "critical" in line for line in safe)

    def test_nullness_lines_match_metadata(self, plan):
        meta = functions.FUNCTIONS["CallStaticVoidMethodA"]
        null_lines = [
            line
            for line in plan["CallStaticVoidMethodA"][Site.PRE]
            if "rt.nullness.report_null" in line
        ]
        assert len(null_lines) == len(meta.nonnull_param_indices)

    def test_resource_machines_on_post_site(self, plan):
        assert any(
            "pinned_resource.acquire" in line
            for line in plan["GetIntArrayElements"][Site.POST]
        )
        assert any(
            "global_ref.acquire" in line
            for line in plan["NewGlobalRef"][Site.POST]
        )
        assert any(
            "local_ref.acquire_return" in line
            for line in plan["NewStringUTF"][Site.POST]
        )

    def test_release_checks_on_pre_site(self, plan):
        assert any(
            "pinned_resource.release" in line
            for line in plan["ReleaseIntArrayElements"][Site.PRE]
        )
        assert any(
            "local_ref.release_one" in line
            for line in plan["DeleteLocalRef"][Site.PRE]
        )

    def test_native_wrapper_plan(self, plan):
        assert any(
            "local_ref.enter_native" in line for line in plan[NATIVE_KEY][Site.PRE]
        )
        assert any(
            "local_ref.exit_native" in line for line in plan[NATIVE_KEY][Site.POST]
        )

    def test_functions_without_entities_get_minimal_checks(self, plan):
        version_pre = plan["GetVersion"][Site.PRE]
        machines = {line.split(".")[1] for line in version_pre}
        assert machines == {"jnienv_state", "exception_state", "critical_section"}

    def test_cross_product_scale(self, plan):
        total = sum(
            len(sites[Site.PRE]) + len(sites[Site.POST])
            for sites in plan.values()
        )
        # Thousands of checks from eleven machine specifications.
        assert total > 1500

    def test_plan_is_deterministic(self, synthesizer, plan):
        assert synthesizer.plan() == plan


class TestGeneratedSource:
    def test_source_compiles(self, source):
        compile(source, "<test>", "exec")

    def test_source_marks_itself_generated(self, source):
        assert "DO NOT EDIT" in source

    def test_one_wrapper_per_function(self, source):
        for name in functions.FUNCTIONS:
            assert "def wrapped_{}(env, *args):".format(name) in source

    def test_generated_is_large(self, source):
        # The paper: 1,400 lines of specification expand to 22,000+
        # generated lines of C.  Python is denser; assert the ratio
        # direction rather than the absolute count.
        assert count_noncomment_lines(source) > 3000

    def test_defaults_match_return_kinds(self, source):
        assert "return rt.fail(env, v, False)" in source  # jboolean
        assert "return rt.fail(env, v, 0)" in source  # jint
        assert "return rt.fail(env, v, None)" in source  # refs/void

    def test_interpose_only_mode_has_no_checks(self, synthesizer):
        bare = synthesizer.generate_source(checking=False)
        assert "rt.jnienv_state" not in bare
        assert "def wrapped_FindClass(env, *args):" in bare
        compile(bare, "<bare>", "exec")

    def test_write_source(self, synthesizer, tmp_path):
        path = tmp_path / "generated.py"
        lines = synthesizer.write_source(str(path))
        assert lines > 1000
        assert path.read_text().startswith('"""Code generated')


class TestBuild:
    def test_build_returns_wrappers_and_factory(self, synthesizer):
        from repro.jinn.runtime import JinnRuntime
        from repro.jvm import JavaVM

        vm = JavaVM()
        rt = JinnRuntime(vm, build_registry())
        build_wrappers = synthesizer.build()
        wrappers, factory = build_wrappers(
            rt, vm.main_thread.env.function_table()
        )
        assert set(wrappers) == set(functions.FUNCTIONS)
        assert wrappers["FindClass"].__name__ == "wrapped_FindClass"
        assert callable(factory("Java_X_y", lambda env, this: None))
        vm.shutdown()

    def test_stage_flags_default_off(self, synthesizer, source):
        assert "def build_wrappers(rt, raw, recorder=None, governor=None," in source
        assert "recorder." not in source
        assert "governor." not in source
        assert "telemetry." not in source

    def test_stages_fuse_into_the_same_wrappers(self, synthesizer):
        full = synthesizer.generate_source(
            record=True, govern=True, telemetry=True
        )
        assert full.startswith('"""Code generated by the Jinn synthesizer')
        assert "Stages: telemetry, record, govern, check, contain." in full
        for name in functions.FUNCTIONS:
            assert "def wrapped_{}(env, *args):".format(name) in full
        assert "def make_native_wrapper(method_name, impl):" in full
        compile(full, "<stages>", "exec")

    def test_sub_registry_synthesis(self):
        registry = build_registry().without("nullness", "fixed_typing")
        source = Synthesizer(registry).generate_source()
        assert "rt.nullness" not in source
        assert "rt.fixed_typing" not in source
        assert "rt.local_ref" in source


class TestLineCounting:
    def test_counts_skip_comments_and_docstrings(self):
        sample = '"""doc\nstring"""\n# comment\nx = 1\n\ny = 2\n'
        assert count_noncomment_lines(sample) == 2

    def test_single_line_docstring(self):
        assert count_noncomment_lines('"""one liner"""\nz = 3\n') == 1

    def test_spec_to_generated_ratio_exceeds_three(self, source):
        import os

        import repro.jinn.machines as machines_pkg

        spec_dir = os.path.dirname(machines_pkg.__file__)
        spec_lines = 0
        for fname in os.listdir(spec_dir):
            if fname.endswith(".py"):
                with open(os.path.join(spec_dir, fname)) as f:
                    spec_lines += count_noncomment_lines(f.read())
        generated = count_noncomment_lines(source)
        assert generated / spec_lines > 3.0
