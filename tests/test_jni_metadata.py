"""Tests for the JNI function metadata table (the Table 2 fact base)."""

import dataclasses

import pytest

from repro.jni import functions
from repro.jni.functions import EXPECTED_FUNCTION_COUNT, FUNCTIONS, census


class TestInventory:
    def test_exactly_229_functions(self):
        assert len(FUNCTIONS) == EXPECTED_FUNCTION_COUNT == 229

    def test_call_family_is_90_functions(self):
        calls = [m for m in FUNCTIONS.values() if m.family == "calls"]
        assert len(calls) == 90  # 3 modes x 10 result kinds x 3 variants

    def test_field_access_family_is_36_functions(self):
        fields = [m for m in FUNCTIONS.values() if m.family == "field_access"]
        assert len(fields) == 36

    def test_all_names_unique_and_known(self):
        assert len(set(FUNCTIONS)) == len(FUNCTIONS)
        for expected in (
            "GetVersion",
            "FindClass",
            "CallStaticVoidMethodA",
            "CallNonvirtualObjectMethodV",
            "GetPrimitiveArrayCritical",
            "NewWeakGlobalRef",
            "GetObjectRefType",
        ):
            assert expected in FUNCTIONS

    def test_get_accessor(self):
        assert functions.get("FindClass").name == "FindClass"


class TestClassification:
    def test_exactly_20_exception_oblivious(self):
        oblivious = [
            m.name for m in FUNCTIONS.values() if m.exception_oblivious
        ]
        assert len(oblivious) == 20
        assert "ExceptionClear" in oblivious
        assert "ReleaseStringUTFChars" in oblivious
        assert "PopLocalFrame" in oblivious

    def test_exactly_4_critical_safe(self):
        safe = sorted(m.name for m in FUNCTIONS.values() if m.critical_safe)
        assert safe == [
            "GetPrimitiveArrayCritical",
            "GetStringCritical",
            "ReleasePrimitiveArrayCritical",
            "ReleaseStringCritical",
        ]

    def test_entity_taking_is_131(self):
        assert sum(1 for m in FUNCTIONS.values() if m.takes_entity_id) == 131

    def test_field_writers_are_18(self):
        writers = [m.name for m in FUNCTIONS.values() if m.writes_field]
        assert len(writers) == 18
        assert all(name.startswith("Set") for name in writers)

    def test_pinned_releasers_are_12(self):
        releasers = [
            m.name
            for m in FUNCTIONS.values()
            if m.releases in ("pinned", "critical")
        ]
        assert len(releasers) == 12
        assert all(name.startswith("Release") for name in releasers)

    def test_monitor_release_is_unique(self):
        assert [
            m.name for m in FUNCTIONS.values() if m.releases == "monitor"
        ] == ["MonitorExit"]


class TestCensusAgainstPaper:
    """Table 2 counts; exact where structure fixes them, close otherwise."""

    def test_jnienv_state_229(self):
        assert census()["jnienv_state"] == 229

    def test_exception_state_209(self):
        assert census()["exception_state"] == 209

    def test_critical_section_225(self):
        assert census()["critical_section"] == 225

    def test_entity_typing_131(self):
        assert census()["entity_typing"] == 131

    def test_access_control_18(self):
        assert census()["access_control"] == 18

    def test_pinned_12(self):
        assert census()["pinned"] == 12

    def test_monitor_1(self):
        assert census()["monitor"] == 1

    def test_fixed_typing_near_157(self):
        # The paper curated 157 fixed-typing constraints from the header
        # file plus the informal text; our declared set must be the same
        # order of magnitude and within 10%.
        assert abs(census()["fixed_typing"] - 157) <= 16

    def test_nullness_near_416(self):
        assert abs(census()["nullness"] - 416) <= 42


class TestDerivedViews:
    def test_reference_param_indices(self):
        meta = FUNCTIONS["CallStaticVoidMethodA"]
        assert meta.reference_param_indices == (0,)
        assert meta.id_param_indices == (1,)

    def test_nonvirtual_has_obj_and_clazz(self):
        meta = FUNCTIONS["CallNonvirtualVoidMethodA"]
        assert meta.reference_param_indices == (0, 1)

    def test_nonnull_excludes_nullable(self):
        meta = FUNCTIONS["NewObjectArray"]
        names = [meta.params[i].name for i in meta.nonnull_param_indices]
        assert "elementClass" in names
        assert "initialElement" not in names

    def test_fixed_type_params(self):
        meta = FUNCTIONS["GetStringUTFChars"]
        assert meta.fixed_type_params == ((0, "java/lang/String"),)

    def test_returns_reference(self):
        assert FUNCTIONS["FindClass"].returns_reference
        assert FUNCTIONS["GetVersion"].returns_reference is False

    def test_extra_payload(self):
        meta = FUNCTIONS["CallStaticIntMethodA"]
        assert meta.extra_value("result_kind") == "I"
        assert meta.extra_value("mode") == "static"
        assert meta.extra_value("missing", 7) == 7

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_cached_views_match_a_fresh_recomputation(self, name):
        # The views are computed once per record and then read as
        # constants on every crossing; each must equal its definition.
        meta = FUNCTIONS[name]
        params = list(enumerate(meta.params))
        assert meta.reference_param_indices == tuple(
            i for i, p in params if p.jtype in functions.REFERENCE_JTYPES
        )
        assert meta.id_param_indices == tuple(
            i for i, p in params if p.jtype in functions.ID_JTYPES
        )
        assert meta.nonnull_param_indices == tuple(
            i
            for i, p in params
            if p.jtype in functions.POINTER_JTYPES and not p.nullable
        )
        assert meta.fixed_type_params == tuple(
            (i, p.fixed_type) for i, p in params if p.fixed_type is not None
        )
        assert meta.returns_reference == (
            meta.returns in functions.REFERENCE_JTYPES
        )
        for key, value in meta.extra:
            assert meta.extra_value(key) == value
        assert meta.extra_value("no such key", "dflt") == "dflt"
        # The caches live outside the dataclass fields: a record stays
        # hashable, equal to a freshly built copy, and keeps its repr,
        # which the plan cache hashes for custom tables.
        fresh = dataclasses.replace(meta)  # built anew from the fields
        assert fresh == meta
        assert hash(fresh) == hash(meta)
        assert repr(fresh) == repr(meta)

    def test_variadic_triples_share_semantics(self):
        for base in ("CallVoidMethod", "CallStaticObjectMethod"):
            plain = FUNCTIONS[base]
            for suffix in ("V", "A"):
                variant = FUNCTIONS[base + suffix]
                assert variant.returns == plain.returns
                assert variant.takes_entity_id == plain.takes_entity_id
                assert (
                    variant.reference_param_indices
                    == plain.reference_param_indices
                )

    def test_acquire_release_pairing(self):
        acquirers = sum(
            1 for m in FUNCTIONS.values() if m.acquires in ("pinned", "critical")
        )
        releasers = sum(
            1 for m in FUNCTIONS.values() if m.releases in ("pinned", "critical")
        )
        assert acquirers == releasers == 12
