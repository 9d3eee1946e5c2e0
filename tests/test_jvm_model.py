"""Unit tests for the JVM object model and the JavaVM itself."""

import pytest

from repro.jvm import (
    JavaException,
    JavaVM,
    Monitor,
    SimulatedCrash,
    VMShutdownError,
)
from repro.jvm.model import JArray, JObject, JString


class TestClassModel:
    def test_define_and_find(self, vm):
        jclass = vm.define_class("demo/Widget")
        assert vm.find_class("demo/Widget") is jclass

    def test_default_superclass_is_object(self, vm):
        jclass = vm.define_class("demo/Widget")
        assert jclass.superclass.name == "java/lang/Object"

    def test_duplicate_definition_rejected(self, vm):
        vm.define_class("demo/Widget")
        with pytest.raises(ValueError):
            vm.define_class("demo/Widget")

    def test_array_classes_spring_into_existence(self, vm):
        jclass = vm.find_class("[I")
        assert jclass is not None
        assert vm.find_class("[I") is jclass

    def test_require_class_raises_for_unknown(self, vm):
        with pytest.raises(KeyError):
            vm.require_class("no/Such")

    def test_subtyping_chain(self, vm):
        npe = vm.require_class("java/lang/NullPointerException")
        runtime = vm.require_class("java/lang/RuntimeException")
        throwable = vm.require_class("java/lang/Throwable")
        assert npe.is_subclass_of(runtime)
        assert npe.is_subclass_of(throwable)
        assert not throwable.is_subclass_of(npe)

    def test_class_object_identity_and_class(self, vm):
        jclass = vm.define_class("demo/Widget")
        class_obj = vm.class_object_of(jclass)
        assert class_obj is vm.class_object_of(jclass)
        assert class_obj.jclass.name == "java/lang/Class"
        assert vm.class_of_class_object(class_obj) is jclass

    def test_class_of_non_class_object(self, vm):
        obj = vm.new_object("java/lang/Object")
        assert vm.class_of_class_object(obj) is None

    def test_class_of_class_object_round_trips_every_class(self, vm):
        vm.define_class("demo/Widget")
        vm.new_array("I", 2)  # creates the "[I" class lazily
        vm.find_class("[Ljava/lang/String;")
        assert "[I" in vm.classes
        for jclass in list(vm.classes.values()):
            assert vm.class_of_class_object(vm.class_object_of(jclass)) is jclass

    def test_unowned_class_instance_is_not_a_class_object(self, vm):
        # A java/lang/Class instance no class owns, created after every
        # class object exists, is still not a class object.
        for jclass in list(vm.classes.values()):
            vm.class_object_of(jclass)
        stray = vm.new_object("java/lang/Class")
        assert vm.class_of_class_object(stray) is None


class TestMethodsAndFields:
    def test_find_method_walks_superclasses(self, vm):
        vm.define_class("demo/Base")
        vm.define_class("demo/Derived", superclass="demo/Base")
        method = vm.add_method(
            "demo/Base", "run", "()V", body=lambda *a: None
        )
        derived = vm.require_class("demo/Derived")
        assert derived.find_method("run", "()V") is method

    def test_declares_method_is_strict(self, vm):
        vm.define_class("demo/Base")
        vm.define_class("demo/Derived", superclass="demo/Base")
        method = vm.add_method("demo/Base", "run", "()V", body=lambda *a: None)
        assert vm.require_class("demo/Base").declares_method(method)
        assert not vm.require_class("demo/Derived").declares_method(method)

    def test_overload_resolution_by_descriptor(self, vm):
        vm.define_class("demo/C")
        m1 = vm.add_method("demo/C", "f", "(I)V", body=lambda *a: None)
        m2 = vm.add_method("demo/C", "f", "(J)V", body=lambda *a: None)
        cls = vm.require_class("demo/C")
        assert cls.find_method("f", "(I)V") is m1
        assert cls.find_method("f", "(J)V") is m2

    def test_find_field_walks_superclasses(self, vm):
        vm.define_class("demo/Base")
        vm.define_class("demo/Derived", superclass="demo/Base")
        field = vm.add_field("demo/Base", "x", "I")
        assert vm.require_class("demo/Derived").find_field("x", "I") is field

    def test_static_field_default(self, vm):
        vm.define_class("demo/C")
        field = vm.add_field("demo/C", "n", "I", is_static=True)
        assert field.static_value == 0

    def test_instance_field_default_read(self, vm):
        vm.define_class("demo/C")
        field = vm.add_field("demo/C", "flag", "Z")
        obj = vm.new_object("demo/C")
        assert obj.get_field(field) is False

    def test_instance_field_roundtrip(self, vm):
        vm.define_class("demo/C")
        field = vm.add_field("demo/C", "n", "I")
        obj = vm.new_object("demo/C")
        obj.set_field(field, 7)
        assert obj.get_field(field) == 7

    def test_mangled_native_name(self, vm):
        vm.define_class("org/gnome/Callback")
        method = vm.add_method(
            "org/gnome/Callback", "bind", "()V", is_native=True, is_static=True
        )
        assert method.mangled_name() == "Java_org_gnome_Callback_bind"


class TestInvocation:
    def test_static_call(self, vm):
        vm.define_class("demo/C")
        vm.add_method(
            "demo/C",
            "twice",
            "(I)I",
            is_static=True,
            body=lambda vmach, thread, cls, x: 2 * x,
        )
        assert vm.call_static("demo/C", "twice", "(I)I", 21) == 42

    def test_instance_call_receives_receiver(self, vm):
        vm.define_class("demo/C")
        vm.add_method(
            "demo/C",
            "me",
            "()Ljava/lang/Object;",
            body=lambda vmach, thread, receiver: receiver,
        )
        obj = vm.new_object("demo/C")
        assert vm.call_instance(obj, "me", "()Ljava/lang/Object;") is obj

    def test_missing_method_raises_keyerror(self, vm):
        vm.define_class("demo/C")
        with pytest.raises(KeyError):
            vm.call_static("demo/C", "ghost", "()V")

    def test_java_exception_propagates_to_harness(self, vm):
        vm.define_class("demo/C")

        def body(vmach, thread, cls):
            vmach.throw_new(thread, "java/lang/ArithmeticException", "/ by zero")

        vm.add_method("demo/C", "boom", "()V", is_static=True, body=body)
        with pytest.raises(JavaException) as exc_info:
            vm.call_static("demo/C", "boom", "()V")
        assert "ArithmeticException" in str(exc_info.value)

    def test_stack_trace_records_call_chain(self, vm):
        vm.define_class("demo/C")

        def inner(vmach, thread, cls):
            vmach.throw_new(thread, "java/lang/RuntimeException", "x")

        def outer(vmach, thread, cls):
            vmach.call_static("demo/C", "inner", "()V")

        vm.add_method("demo/C", "inner", "()V", is_static=True, body=inner)
        vm.add_method("demo/C", "outer", "()V", is_static=True, body=outer)
        with pytest.raises(JavaException) as exc_info:
            vm.call_static("demo/C", "outer", "()V")
        rendered = exc_info.value.throwable.render_stack_trace()
        assert "demo.C.inner" in rendered
        assert "demo.C.outer" in rendered

    def test_unbound_native_method_raises(self, vm):
        vm.define_class("demo/C")
        vm.add_method("demo/C", "nat", "()V", is_static=True, is_native=True)
        with pytest.raises(JavaException) as exc_info:
            vm.call_static("demo/C", "nat", "()V")
        assert "UnsatisfiedLinkError" in str(exc_info.value)

    def test_register_native_on_undeclared_method_declares_it(self, vm):
        vm.define_class("demo/C")
        vm.register_native("demo/C", "nat", "()I", lambda env, this: 5)
        assert vm.call_static("demo/C", "nat", "()I") == 5

    def test_register_native_on_java_method_rejected(self, vm):
        vm.define_class("demo/C")
        vm.add_method("demo/C", "j", "()V", is_static=True, body=lambda *a: None)
        with pytest.raises(ValueError):
            vm.register_native("demo/C", "j", "()V", lambda env, this: None)

    def test_native_reference_return_converted(self, vm):
        vm.define_class("demo/C")

        def nat(env, this):
            return env.NewStringUTF("made in C")

        vm.register_native("demo/C", "make", "()Ljava/lang/String;", nat)
        result = vm.call_static("demo/C", "make", "()Ljava/lang/String;")
        assert isinstance(result, JString)
        assert result.value == "made in C"

    def test_transition_count_increments(self, vm):
        vm.define_class("demo/C")
        vm.register_native("demo/C", "nat", "()V", lambda env, this: None)
        before = vm.transition_count
        vm.call_static("demo/C", "nat", "()V")
        # one native call = entry + exit transitions at minimum
        assert vm.transition_count >= before + 2


class TestMonitors:
    def test_enter_exit(self):
        m = Monitor()
        assert m.enter("t1")
        assert m.exit("t1")
        assert m.owner is None

    def test_reentrancy(self):
        m = Monitor()
        assert m.enter("t1")
        assert m.enter("t1")
        assert m.entry_count == 2
        m.exit("t1")
        assert m.owner == "t1"

    def test_contention_blocks(self):
        m = Monitor()
        m.enter("t1")
        assert not m.enter("t2")

    def test_exit_by_non_owner_fails(self):
        m = Monitor()
        m.enter("t1")
        assert not m.exit("t2")

    def test_exit_without_enter_fails(self):
        assert not Monitor().exit("t1")


class TestLifecycle:
    def test_shutdown_reports_leaks_once(self, vm):
        vm.define_class("demo/C")

        def nat(env, this):
            s = env.NewStringUTF("pin me")
            env.GetStringUTFChars(s)

        vm.register_native("demo/C", "nat", "()V", nat)
        vm.call_static("demo/C", "nat", "()V")
        leaks = vm.shutdown()
        assert any("pinned" in leak for leak in leaks)
        assert vm.shutdown() == leaks  # idempotent

    def test_dead_vm_rejects_work(self, vm):
        vm.shutdown()
        with pytest.raises(VMShutdownError):
            vm.new_object("java/lang/Object")

    def test_reclaimed_object_access_crashes(self, vm):
        obj = vm.new_object("java/lang/Object")
        field = vm.add_field("java/lang/Object", "tmp", "I")
        obj.reclaimed = True
        with pytest.raises(SimulatedCrash):
            obj.get_field(field)

    def test_describe_formats(self, vm):
        assert vm.new_string("hi").describe() == '"hi"'
        arr = vm.new_array("I", 3)
        assert arr.describe() == "I[3]"
