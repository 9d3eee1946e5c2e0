"""Unit tests for JVM descriptor parsing and conformance."""

import pytest

from repro.jvm import JavaVM, descriptors
from repro.jvm.descriptors import (
    DescriptorError,
    default_value,
    descriptor_to_class_name,
    is_reference_descriptor,
    parse_field_descriptor,
    parse_method_descriptor,
    value_conforms,
)


class TestFieldDescriptors:
    @pytest.mark.parametrize("code", list("ZBCSIJFD"))
    def test_primitives(self, code):
        assert parse_field_descriptor(code) == code

    def test_class_type(self):
        assert (
            parse_field_descriptor("Ljava/lang/String;") == "Ljava/lang/String;"
        )

    def test_array_of_primitive(self):
        assert parse_field_descriptor("[I") == "[I"

    def test_array_of_arrays(self):
        assert parse_field_descriptor("[[D") == "[[D"

    def test_array_of_classes(self):
        assert parse_field_descriptor("[Ljava/util/List;") == "[Ljava/util/List;"

    def test_unterminated_class_rejected(self):
        with pytest.raises(DescriptorError):
            parse_field_descriptor("Ljava/lang/String")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(DescriptorError):
            parse_field_descriptor("II")

    def test_unknown_code_rejected(self):
        with pytest.raises(DescriptorError):
            parse_field_descriptor("Q")

    def test_empty_rejected(self):
        with pytest.raises(DescriptorError):
            parse_field_descriptor("")


class TestMethodDescriptors:
    def test_no_args_void(self):
        assert parse_method_descriptor("()V") == ((), "V")

    def test_paper_example(self):
        params, ret = parse_method_descriptor(
            "(Ljava/lang/List;Ljava/util/Comparator;)V"
        )
        assert params == ("Ljava/lang/List;", "Ljava/util/Comparator;")
        assert ret == "V"

    def test_mixed_params(self):
        params, ret = parse_method_descriptor("(I[JLjava/lang/String;)I")
        assert params == ("I", "[J", "Ljava/lang/String;")
        assert ret == "I"

    def test_reference_return(self):
        assert parse_method_descriptor("()Ljava/lang/String;")[1] == (
            "Ljava/lang/String;"
        )

    def test_array_return(self):
        assert parse_method_descriptor("()[B")[1] == "[B"

    def test_missing_paren_rejected(self):
        with pytest.raises(DescriptorError):
            parse_method_descriptor("IV")

    def test_unclosed_paren_rejected(self):
        with pytest.raises(DescriptorError):
            parse_method_descriptor("(I")

    def test_bad_return_rejected(self):
        with pytest.raises(DescriptorError):
            parse_method_descriptor("()Q")


class TestHelpers:
    def test_is_reference(self):
        assert is_reference_descriptor("Ljava/lang/Object;")
        assert is_reference_descriptor("[I")
        assert not is_reference_descriptor("I")

    def test_class_name_extraction(self):
        assert (
            descriptor_to_class_name("Ljava/lang/String;") == "java/lang/String"
        )

    def test_array_class_name_unchanged(self):
        assert descriptor_to_class_name("[I") == "[I"

    def test_class_name_of_primitive_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor_to_class_name("I")

    @pytest.mark.parametrize(
        "desc,expected",
        [("Z", False), ("I", 0), ("D", 0.0), ("V", None), ("C", "\0")],
    )
    def test_defaults(self, desc, expected):
        assert default_value(desc) == expected

    def test_reference_default_is_none(self):
        assert default_value("Ljava/lang/Object;") is None

    def test_unknown_default_rejected(self):
        with pytest.raises(DescriptorError):
            default_value("Q")


class TestValueConformance:
    @pytest.fixture
    def vm(self):
        machine = JavaVM()
        yield machine
        machine.shutdown()

    def test_bool_conforms_to_Z(self, vm):
        assert value_conforms(vm, True, "Z")
        assert not value_conforms(vm, 1, "Z")

    def test_int_conforms_to_I(self, vm):
        assert value_conforms(vm, 42, "I")
        assert not value_conforms(vm, True, "I")
        assert not value_conforms(vm, 1.5, "I")

    def test_char_conforms_to_C(self, vm):
        assert value_conforms(vm, "x", "C")
        assert not value_conforms(vm, "xy", "C")

    def test_float_accepts_int_widening(self, vm):
        assert value_conforms(vm, 1, "D")
        assert value_conforms(vm, 1.5, "F")

    def test_null_conforms_to_any_reference(self, vm):
        assert value_conforms(vm, None, "Ljava/lang/String;")
        assert value_conforms(vm, None, "[I")

    def test_null_not_void(self, vm):
        assert value_conforms(vm, None, "V")

    def test_object_conforms_to_its_class(self, vm):
        obj = vm.new_object("java/lang/Object")
        assert value_conforms(vm, obj, "Ljava/lang/Object;")

    def test_subclass_conforms_to_superclass(self, vm):
        npe = vm.new_throwable("java/lang/NullPointerException")
        assert value_conforms(vm, npe, "Ljava/lang/RuntimeException;")
        assert value_conforms(vm, npe, "Ljava/lang/Throwable;")

    def test_superclass_does_not_conform_to_subclass(self, vm):
        t = vm.new_throwable("java/lang/Exception")
        assert not value_conforms(vm, t, "Ljava/lang/RuntimeException;")

    def test_string_conforms_to_object(self, vm):
        s = vm.new_string("hi")
        assert value_conforms(vm, s, "Ljava/lang/Object;")
        assert value_conforms(vm, s, "Ljava/lang/String;")

    def test_primitive_array_conformance(self, vm):
        arr = vm.new_array("I", 3)
        assert value_conforms(vm, arr, "[I")
        assert not value_conforms(vm, arr, "[J")

    def test_object_array_covariance(self, vm):
        arr = vm.new_array("Ljava/lang/String;", 2)
        assert value_conforms(vm, arr, "[Ljava/lang/Object;")

    def test_non_object_fails_reference(self, vm):
        assert not value_conforms(vm, 42, "Ljava/lang/Object;")

    def test_unknown_class_fails(self, vm):
        obj = vm.new_object("java/lang/Object")
        assert not value_conforms(vm, obj, "Lcom/nowhere/Thing;")
