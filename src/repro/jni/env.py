"""The raw (unchecked) JNI environment.

One :class:`JNIEnv` exists per attached thread, exactly as in the JNI
specification.  Native code (workload Python functions standing in for C)
calls the 229 interface functions as methods: ``env.FindClass("...")``,
``env.CallStaticVoidMethodA(clazz, mid, args)``, and so on.

Every call goes through a *function table*, which is how both Jinn and
the built-in ``-Xcheck:jni`` checkers interpose: an agent replaces table
entries with wrappers (``install_function_table``), and the bound method
attributes keep working because they indirect through the table on every
call — the JVMTI ``SetJNIFunctionTable`` mechanism.

This layer performs **no principled checking**.  Where the program breaks
a JNI rule, the env consults the VM's vendor personality
(:meth:`repro.jvm.machine.JavaVM.misuse`) and either crashes, raises an
NPE, deadlocks, or — most dangerously — keeps running on undefined state,
reproducing columns two and three of the paper's Table 1.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.jni import functions
from repro.jni.refs import RefTables
from repro.jni.types import JFieldID, JMethodID, JRef, NativeBuffer
from repro.jvm import descriptors
from repro.jvm.errors import DeadlockError, FatalJNIError
from repro.jvm.exceptions import JThrowable
from repro.jvm.model import JArray, JClass, JObject, JString

#: Release modes for Release<Type>ArrayElements.
JNI_COMMIT = 1
JNI_ABORT = 2

#: GetObjectRefType results.
JNIInvalidRefType = 0
JNILocalRefType = 1
JNIGlobalRefType = 2
JNIWeakGlobalRefType = 3

#: Default results per declared return kind, for vendors that keep
#: running after misuse ("garbage" results of the right shape).
_DEFAULT_RESULTS = {
    "void": None,
    "jboolean": False,
    "jint": 0,
    "jsize": 0,
    "jlong": 0,
    "jbyte": 0,
    "jchar": "\0",
    "jshort": 0,
    "jfloat": 0.0,
    "jdouble": 0.0,
    "jobjectRefType": JNIInvalidRefType,
}


class JNIEnv:
    """Per-thread JNI interface pointer."""

    def __init__(self, vm, thread):
        self.vm = vm
        self.thread = thread
        self.refs = RefTables(vm.local_frame_capacity)
        #: Live pinned/copied buffers (strings and array elements).
        self.pinned: List[NativeBuffer] = []
        #: Monitors entered through JNI and not yet exited (LIFO-ish).
        self.monitors_entered: List[JObject] = []
        #: Explicit local frames discarded at native-method return.
        self.leaked_frames = 0
        #: Misuse kinds a checker has just diagnosed (and defused): a
        #: warning from -Xcheck:jni intercedes, so the production hazard
        #: is consumed instead of fired (see JavaVM.misuse).
        self.suppressed_misuse = set()
        self._table: Dict[str, Callable] = dict(_RAW_TABLE)
        self._bind_api()

    # ------------------------------------------------------------------
    # Function-table plumbing (the JVMTI SetJNIFunctionTable analogue)
    # ------------------------------------------------------------------

    def _bind_api(self) -> None:
        for name in functions.FUNCTIONS:
            setattr(self, name, self._make_entry(name))

    def _make_entry(self, name: str):
        vm = self.vm
        table = self._table

        def entry(*args):
            vm.transition_count += 2  # Call:C->Java and Return:Java->C
            return table[name](self, *args)

        entry.__name__ = name
        entry.__doc__ = "JNI function {} (family {}).".format(
            name, functions.FUNCTIONS[name].family
        )
        return entry

    def function_table(self) -> Dict[str, Callable]:
        """A copy of the current table (what GetJNIFunctionTable returns)."""
        return dict(self._table)

    def install_function_table(self, table: Dict[str, Callable]) -> None:
        """Replace table entries (what SetJNIFunctionTable does)."""
        unknown = set(table) - set(functions.FUNCTIONS)
        if unknown:
            raise KeyError("not JNI functions: {}".format(sorted(unknown)))
        self._table.update(table)

    # ------------------------------------------------------------------
    # Handle resolution (raw semantics, vendor-defined failure)
    # ------------------------------------------------------------------

    def resolve_reference(
        self, handle, *, context: str = "", allow_null: bool = True
    ) -> Optional[JObject]:
        """Dereference a ``jobject`` handle to the underlying object.

        Vendor policy applies to dangling and mistyped handles.  When the
        vendor's reaction is to keep running, the *stale* target is
        returned — subsequent access may then crash on a reclaimed object
        or silently touch a moved one, as on a real JVM.
        """
        if handle is None:
            if allow_null:
                return None
            self.vm.misuse("null_argument", "null reference " + context, self.thread)
            return None
        if not isinstance(handle, JRef):
            self.vm.misuse(
                "fixed_type_confusion",
                "{!r} passed where jobject expected ({})".format(handle, context),
                self.thread,
            )
            return None
        if handle.kind == "weak":
            if not handle.alive:
                self.vm.misuse(
                    "global_dangling",
                    "deleted weak global reference used " + context,
                    self.thread,
                )
                return handle.target
            return handle.target  # None when cleared by the collector.
        if not handle.alive:
            kind = "local_dangling" if handle.kind == "local" else "global_dangling"
            self.vm.misuse(
                kind,
                "dangling {} reference used {}".format(handle.kind, context),
                self.thread,
            )
            return handle.target
        if handle.kind == "local" and handle.owner_thread is not self.thread:
            self.vm.misuse(
                "local_dangling",
                "local reference of {} used on {} {}".format(
                    handle.owner_thread.describe()
                    if handle.owner_thread
                    else "<unknown>",
                    self.thread.describe(),
                    context,
                ),
                self.thread,
            )
        return handle.target

    def resolve_class(self, handle, *, context: str = "") -> Optional[JClass]:
        obj = self.resolve_reference(handle, context=context)
        if obj is None:
            return None
        jclass = self.vm.class_of_class_object(obj)
        if jclass is None:
            self.vm.misuse(
                "fixed_type_confusion",
                "{} passed where jclass expected ({})".format(
                    obj.describe(), context
                ),
                self.thread,
            )
            return None
        return jclass

    def resolve_string(self, handle, *, context: str = "") -> Optional[JString]:
        obj = self.resolve_reference(handle, context=context)
        if obj is None:
            return None
        if not isinstance(obj, JString):
            self.vm.misuse(
                "fixed_type_confusion",
                "{} passed where jstring expected ({})".format(
                    obj.describe(), context
                ),
                self.thread,
            )
            return None
        return obj

    def resolve_array(self, handle, *, context: str = "") -> Optional[JArray]:
        obj = self.resolve_reference(handle, context=context)
        if obj is None:
            return None
        if not isinstance(obj, JArray):
            self.vm.misuse(
                "fixed_type_confusion",
                "{} passed where jarray expected ({})".format(
                    obj.describe(), context
                ),
                self.thread,
            )
            return None
        return obj

    def resolve_method_id(self, handle, *, context: str = ""):
        if isinstance(handle, JMethodID):
            return handle.method
        self.vm.misuse(
            "fixed_type_confusion",
            "{!r} passed where jmethodID expected ({})".format(handle, context),
            self.thread,
        )
        return None

    def resolve_field_id(self, handle, *, context: str = ""):
        if isinstance(handle, JFieldID):
            return handle.field
        self.vm.misuse(
            "fixed_type_confusion",
            "{!r} passed where jfieldID expected ({})".format(handle, context),
            self.thread,
        )
        return None

    def new_local(self, obj: Optional[JObject]) -> Optional[JRef]:
        return self.refs.new_local(obj, self.thread)

    # ------------------------------------------------------------------
    # Pending-exception helpers for the raw implementations
    # ------------------------------------------------------------------

    def _pend(self, class_name: str, message: str) -> None:
        throwable = self.vm.new_throwable(class_name, message)
        throwable.fill_in_stack_trace(self.thread.stack_snapshot())
        self.thread.pending_exception = throwable

    # ------------------------------------------------------------------
    # Leak accounting (consumed at VM death)
    # ------------------------------------------------------------------

    def leak_descriptions(self) -> List[str]:
        leaks: List[str] = []
        for buf in self.pinned:
            leaks.append("leaked pinned " + buf.describe())
        for obj in self.monitors_entered:
            leaks.append("monitor on {} never exited".format(obj.describe()))
        if self.leaked_frames:
            leaks.append(
                "{} local frame(s) pushed but never popped".format(
                    self.leaked_frames
                )
            )
        if self.refs.overflow_events:
            leaks.append(
                "local frame overflowed {} time(s)".format(
                    self.refs.overflow_events
                )
            )
        return leaks

    def gc_roots(self) -> List[JObject]:
        roots = self.refs.gc_roots()
        roots.extend(buf.source for buf in self.pinned)
        roots.extend(self.monitors_entered)
        return roots


# ======================================================================
# Raw implementations.  Each takes (env, *args) with args exactly as the
# metadata declares them (variadic families normalised by the helpers).
# ======================================================================


def _raw_GetVersion(env):
    return 0x00010006


def _raw_DefineClass(env, name, loader, buf):
    env.resolve_reference(loader, context="in DefineClass")
    if env.vm.find_class(name) is not None:
        env._pend("java/lang/Error", "duplicate class definition: " + name)
        return None
    jclass = env.vm.define_class(name)
    return env.new_local(env.vm.class_object_of(jclass))


def _raw_FindClass(env, name):
    jclass = env.vm.find_class(name)
    if jclass is None:
        env._pend("java/lang/ClassNotFoundException", name)
        return None
    return env.new_local(env.vm.class_object_of(jclass))


_REFLECT_SLOT = ("jni$entity", "X")


def _raw_FromReflectedMethod(env, method):
    obj = env.resolve_reference(method, context="in FromReflectedMethod")
    if obj is None:
        return None
    entity = obj.fields.get(_REFLECT_SLOT)
    if not isinstance(entity, JMethodID):
        env.vm.misuse(
            "fixed_type_confusion",
            "FromReflectedMethod on non-Method " + obj.describe(),
            env.thread,
        )
        return None
    return entity


def _raw_FromReflectedField(env, field):
    obj = env.resolve_reference(field, context="in FromReflectedField")
    if obj is None:
        return None
    entity = obj.fields.get(_REFLECT_SLOT)
    if not isinstance(entity, JFieldID):
        env.vm.misuse(
            "fixed_type_confusion",
            "FromReflectedField on non-Field " + obj.describe(),
            env.thread,
        )
        return None
    return entity


def _raw_ToReflectedMethod(env, cls, method_id, is_static):
    env.resolve_class(cls, context="in ToReflectedMethod")
    method = env.resolve_method_id(method_id, context="in ToReflectedMethod")
    if method is None:
        return None
    class_name = (
        "java/lang/reflect/Constructor"
        if method.name == "<init>"
        else "java/lang/reflect/Method"
    )
    reflected = env.vm.new_object(class_name)
    reflected.fields[_REFLECT_SLOT] = JMethodID(method)
    return env.new_local(reflected)


def _raw_ToReflectedField(env, cls, field_id, is_static):
    env.resolve_class(cls, context="in ToReflectedField")
    field = env.resolve_field_id(field_id, context="in ToReflectedField")
    if field is None:
        return None
    reflected = env.vm.new_object("java/lang/reflect/Field")
    reflected.fields[_REFLECT_SLOT] = JFieldID(field)
    return env.new_local(reflected)


def _raw_GetSuperclass(env, clazz):
    jclass = env.resolve_class(clazz, context="in GetSuperclass")
    if jclass is None or jclass.superclass is None:
        return None
    return env.new_local(env.vm.class_object_of(jclass.superclass))


def _raw_IsAssignableFrom(env, clazz1, clazz2):
    c1 = env.resolve_class(clazz1, context="in IsAssignableFrom")
    c2 = env.resolve_class(clazz2, context="in IsAssignableFrom")
    if c1 is None or c2 is None:
        return False
    return c1.is_subclass_of(c2)


def _raw_Throw(env, obj):
    throwable = env.resolve_reference(obj, context="in Throw")
    if not isinstance(throwable, JThrowable):
        env.vm.misuse(
            "fixed_type_confusion",
            "Throw on non-throwable",
            env.thread,
        )
        return -1
    env.thread.pending_exception = throwable
    return 0


def _raw_ThrowNew(env, clazz, message):
    jclass = env.resolve_class(clazz, context="in ThrowNew")
    if jclass is None:
        return -1
    throwable = env.vm.new_throwable(jclass.name, message)
    throwable.fill_in_stack_trace(env.thread.stack_snapshot())
    env.thread.pending_exception = throwable
    return 0


def _raw_ExceptionOccurred(env):
    pending = env.thread.pending_exception
    if pending is None:
        return None
    return env.new_local(pending)


def _raw_ExceptionDescribe(env):
    pending = env.thread.clear_exception()
    if pending is not None:
        env.vm.log(pending.render_stack_trace())


def _raw_ExceptionClear(env):
    env.thread.clear_exception()


def _raw_FatalError(env, msg):
    raise FatalJNIError("FatalError: " + str(msg))


def _raw_ExceptionCheck(env):
    return env.thread.pending_exception is not None


def _raw_PushLocalFrame(env, capacity):
    env.refs.push_frame(max(int(capacity), 1))
    return 0


def _raw_PopLocalFrame(env, result):
    survivor = env.resolve_reference(result, context="in PopLocalFrame")
    frame = env.refs.current_frame()
    if frame is None or frame.implicit:
        # Nothing the program pushed is left to pop.
        env.vm.misuse(
            "local_double_free",
            "PopLocalFrame with no explicit frame to pop",
            env.thread,
        )
        return None
    env.refs.pop_frame()
    if survivor is None:
        return None
    return env.new_local(survivor)


def _raw_NewGlobalRef(env, obj):
    target = env.resolve_reference(obj, context="in NewGlobalRef")
    return env.vm.global_refs.new_global(target)


def _raw_DeleteGlobalRef(env, global_ref):
    if global_ref is None:
        return None
    if not isinstance(global_ref, JRef) or global_ref.kind != "global":
        env.vm.misuse(
            "fixed_type_confusion",
            "DeleteGlobalRef on non-global reference",
            env.thread,
        )
        return None
    if env.vm.global_refs.delete_global(global_ref) != "ok":
        env.vm.misuse(
            "global_dangling",
            "DeleteGlobalRef on already-deleted reference",
            env.thread,
        )
    return None


def _raw_DeleteLocalRef(env, local_ref):
    if local_ref is None:
        return None
    if not isinstance(local_ref, JRef) or local_ref.kind != "local":
        env.vm.misuse(
            "fixed_type_confusion",
            "DeleteLocalRef on non-local reference",
            env.thread,
        )
        return None
    status = env.refs.delete_local(local_ref)
    if status == "double_free":
        env.vm.misuse(
            "local_double_free",
            "DeleteLocalRef called twice for " + local_ref.describe(),
            env.thread,
        )
    elif status == "foreign":
        env.vm.misuse(
            "local_dangling",
            "DeleteLocalRef on a reference of another thread",
            env.thread,
        )
    return None


def _raw_IsSameObject(env, ref1, ref2):
    a = env.resolve_reference(ref1, context="in IsSameObject")
    b = env.resolve_reference(ref2, context="in IsSameObject")
    return a is b


def _raw_NewLocalRef(env, ref):
    target = env.resolve_reference(ref, context="in NewLocalRef")
    return env.new_local(target)


def _raw_EnsureLocalCapacity(env, capacity):
    frame = env.refs.current_frame()
    if frame is None:
        frame = env.refs.push_frame(implicit=True)
    frame.capacity = max(frame.capacity, int(capacity))
    return 0


def _raw_NewWeakGlobalRef(env, obj):
    target = env.resolve_reference(obj, context="in NewWeakGlobalRef")
    return env.vm.global_refs.new_weak(target)


def _raw_DeleteWeakGlobalRef(env, ref):
    if ref is None:
        return None
    if not isinstance(ref, JRef) or ref.kind != "weak":
        env.vm.misuse(
            "fixed_type_confusion",
            "DeleteWeakGlobalRef on non-weak reference",
            env.thread,
        )
        return None
    if env.vm.global_refs.delete_weak(ref) != "ok":
        env.vm.misuse(
            "global_dangling",
            "DeleteWeakGlobalRef on already-deleted reference",
            env.thread,
        )
    return None


def _raw_GetObjectRefType(env, obj):
    if obj is None or not isinstance(obj, JRef) or not obj.alive:
        return JNIInvalidRefType
    return {
        "local": JNILocalRefType,
        "global": JNIGlobalRefType,
        "weak": JNIWeakGlobalRefType,
    }[obj.kind]


def _raw_AllocObject(env, clazz):
    jclass = env.resolve_class(clazz, context="in AllocObject")
    if jclass is None:
        return None
    return env.new_local(env.vm.new_object(jclass))


def _raw_GetObjectClass(env, obj):
    target = env.resolve_reference(obj, context="in GetObjectClass")
    if target is None:
        return None
    return env.new_local(env.vm.class_object_of(target.jclass))


def _raw_IsInstanceOf(env, obj, clazz):
    target = env.resolve_reference(obj, context="in IsInstanceOf")
    jclass = env.resolve_class(clazz, context="in IsInstanceOf")
    if jclass is None:
        return False
    if target is None:
        return True  # NULL can be cast to any reference type.
    return target.jclass.is_subclass_of(jclass)


def _raw_GetMethodID(env, clazz, name, sig, *, static=False):
    jclass = env.resolve_class(clazz, context="in GetMethodID")
    if jclass is None:
        return None
    try:
        descriptors.parse_method_descriptor(sig)
    except descriptors.DescriptorError as exc:
        env._pend("java/lang/NoSuchMethodError", "{} (bad signature: {})".format(name, exc))
        return None
    method = jclass.find_method(name, sig)
    if method is None or method.is_static != static:
        env._pend(
            "java/lang/NoSuchMethodError",
            "{}.{}{}".format(jclass.name, name, sig),
        )
        return None
    return JMethodID(method)


def _raw_GetStaticMethodID(env, clazz, name, sig):
    return _raw_GetMethodID(env, clazz, name, sig, static=True)


def _raw_GetFieldID(env, clazz, name, sig, *, static=False):
    jclass = env.resolve_class(clazz, context="in GetFieldID")
    if jclass is None:
        return None
    try:
        descriptors.parse_field_descriptor(sig)
    except descriptors.DescriptorError as exc:
        env._pend("java/lang/NoSuchFieldError", "{} (bad signature: {})".format(name, exc))
        return None
    field = jclass.find_field(name, sig)
    if field is None or field.is_static != static:
        env._pend(
            "java/lang/NoSuchFieldError",
            "{}.{}:{}".format(jclass.name, name, sig),
        )
        return None
    return JFieldID(field)


def _raw_GetStaticFieldID(env, clazz, name, sig):
    return _raw_GetFieldID(env, clazz, name, sig, static=True)


def _unwrap_jargs(env, jargs, context):
    """Convert handle-level call arguments to model-level values."""
    values = []
    for arg in jargs:
        if isinstance(arg, JRef):
            values.append(env.resolve_reference(arg, context=context))
        else:
            values.append(arg)
    return values


def _make_call_impl(meta: functions.FunctionMeta):
    mode = meta.extra_value("mode")
    result_kind = meta.extra_value("result_kind")
    variadic = meta.name.endswith(("V", "A"))

    def call_impl(env, *raw_args):
        context = "in " + meta.name
        pos = 0
        receiver = None
        jclass = None
        if mode in ("virtual", "nonvirtual"):
            receiver = env.resolve_reference(raw_args[pos], context=context)
            pos += 1
        if mode in ("nonvirtual", "static"):
            jclass = env.resolve_class(raw_args[pos], context=context)
            pos += 1
        method = env.resolve_method_id(raw_args[pos], context=context)
        pos += 1
        if variadic:
            jargs = list(raw_args[pos] or ())
        else:
            jargs = list(raw_args[pos:])
        if method is None:
            return _DEFAULT_RESULTS.get(meta.returns)
        values = _unwrap_jargs(env, jargs, context)

        # Raw entity sanity: a production JVM trusts the caller; the
        # simulator notices impossible combinations and lets the vendor
        # decide (J9 crashes, HotSpot barrels on).
        param_descs = method.signature[0]
        mismatch = None
        if len(values) != len(param_descs):
            mismatch = "argument count {} != {}".format(
                len(values), len(param_descs)
            )
        elif mode == "static" and not method.is_static:
            mismatch = "static call to instance method " + method.describe()
        elif mode != "static" and method.is_static:
            mismatch = "instance call to static method " + method.describe()
        elif mode == "static" and jclass is not None:
            if not jclass.is_subclass_of(method.declaring_class) and not (
                method.declaring_class.is_subclass_of(jclass)
            ):
                mismatch = "class {} unrelated to {}".format(
                    jclass.name, method.declaring_class.name
                )
        elif receiver is not None and not receiver.jclass.is_subclass_of(
            method.declaring_class
        ):
            mismatch = "receiver {} not an instance of {}".format(
                receiver.describe(), method.declaring_class.name
            )
        if mismatch is not None:
            env.vm.misuse("entity_type_mismatch", meta.name + ": " + mismatch)
            if len(values) != len(param_descs):
                # Keep running: pad/truncate to the formals.
                values = (values + [None] * len(param_descs))[: len(param_descs)]

        target_method = method
        if mode == "virtual" and receiver is not None:
            override = receiver.jclass.find_method(method.name, method.descriptor)
            if override is not None:
                target_method = override
        result = env.vm.invoke(
            env.thread, target_method, receiver, values, from_native=True
        )
        if result_kind == "L":
            return env.new_local(result)
        if result_kind == "V":
            return None
        return result

    call_impl.__name__ = "_raw_" + meta.name
    return call_impl


def _make_new_object_impl(meta: functions.FunctionMeta):
    variadic = meta.name.endswith(("V", "A"))

    def new_object_impl(env, clazz, method_id, *raw_args):
        context = "in " + meta.name
        jclass = env.resolve_class(clazz, context=context)
        ctor = env.resolve_method_id(method_id, context=context)
        if jclass is None:
            return None
        obj = env.vm.new_object(jclass)
        if ctor is not None and ctor.body is not None:
            jargs = list(raw_args[0] or ()) if variadic else list(raw_args)
            values = _unwrap_jargs(env, jargs, context)
            env.vm.invoke(env.thread, ctor, obj, values, from_native=True)
        return env.new_local(obj)

    new_object_impl.__name__ = "_raw_" + meta.name
    return new_object_impl


def _make_field_impl(meta: functions.FunctionMeta):
    is_static = meta.extra_value("static")
    is_write = meta.extra_value("write")
    result_kind = meta.extra_value("result_kind")

    def field_impl(env, *raw_args):
        context = "in " + meta.name
        pos = 0
        receiver = None
        if is_static:
            env.resolve_class(raw_args[pos], context=context)
        else:
            receiver = env.resolve_reference(raw_args[pos], context=context)
        pos += 1
        field = env.resolve_field_id(raw_args[pos], context=context)
        pos += 1
        if field is None:
            return _DEFAULT_RESULTS.get(meta.returns)
        if field.is_static != is_static:
            env.vm.misuse(
                "entity_type_mismatch",
                "{}: field {} static-ness mismatch".format(
                    meta.name, field.describe()
                ),
            )
        if is_write:
            value = raw_args[pos]
            if isinstance(value, JRef):
                value = env.resolve_reference(value, context=context)
            if field.is_final:
                env.vm.misuse(
                    "final_field_write",
                    "{}: assignment to final field {}".format(
                        meta.name, field.describe()
                    ),
                    env.thread,
                )
                return None
            if field.is_static:
                field.static_value = value
            elif receiver is not None:
                receiver.set_field(field, value)
            return None
        if field.is_static:
            value = field.static_value
        elif receiver is not None:
            value = receiver.get_field(field)
        else:
            value = None
        if result_kind == "L":
            return env.new_local(value)
        return value

    field_impl.__name__ = "_raw_" + meta.name
    return field_impl


def _raw_NewString(env, unicode_chars, length):
    text = "".join(unicode_chars[: int(length)])
    return env.new_local(env.vm.new_string(text))


def _raw_NewStringUTF(env, data):
    return env.new_local(env.vm.new_string(str(data)))


def _raw_GetStringLength(env, string):
    js = env.resolve_string(string, context="in GetStringLength")
    return len(js.value) if js is not None else 0


def _raw_GetStringUTFLength(env, string):
    js = env.resolve_string(string, context="in GetStringUTFLength")
    return len(js.value.encode("utf-8")) if js is not None else 0


def _get_string_buffer(env, string, context, critical=False):
    js = env.resolve_string(string, context=context)
    if js is None:
        return None
    buf = NativeBuffer(
        js,
        list(js.value),
        is_copy=True,
        critical=critical,
        nul_terminated=env.vm.vendor.nul_terminates_strings,
    )
    env.pinned.append(buf)
    if critical:
        env.thread.acquire_critical(js)
    return buf


def _raw_GetStringChars(env, string):
    return _get_string_buffer(env, string, "in GetStringChars")


def _raw_GetStringUTFChars(env, string):
    return _get_string_buffer(env, string, "in GetStringUTFChars")


def _release_buffer(env, buf, fn_name):
    if not isinstance(buf, NativeBuffer) or buf.freed or buf not in env.pinned:
        env.vm.misuse(
            "pinned_double_free",
            "{}: buffer already released or unknown".format(fn_name),
            env.thread,
        )
        return False
    buf.freed = True
    env.pinned.remove(buf)
    return True


def _raw_ReleaseStringChars(env, string, chars):
    env.resolve_string(string, context="in ReleaseStringChars")
    _release_buffer(env, chars, "ReleaseStringChars")


def _raw_ReleaseStringUTFChars(env, string, utf):
    env.resolve_string(string, context="in ReleaseStringUTFChars")
    _release_buffer(env, utf, "ReleaseStringUTFChars")


def _raw_GetStringCritical(env, string):
    return _get_string_buffer(env, string, "in GetStringCritical", critical=True)


def _raw_ReleaseStringCritical(env, string, carray):
    js = env.resolve_string(string, context="in ReleaseStringCritical")
    if _release_buffer(env, carray, "ReleaseStringCritical") and js is not None:
        if not env.thread.release_critical(js):
            env.vm.misuse(
                "critical_violation",
                "ReleaseStringCritical without matching acquire",
                env.thread,
            )


def _raw_GetStringRegion(env, string, start, length, buf):
    js = env.resolve_string(string, context="in GetStringRegion")
    if js is None:
        return None
    if start < 0 or start + length > len(js.value):
        env._pend(
            "java/lang/ArrayIndexOutOfBoundsException",
            "GetStringRegion [{}, {})".format(start, start + length),
        )
        return None
    for i in range(length):
        buf[i] = js.value[start + i]
    return None


def _raw_GetStringUTFRegion(env, string, start, length, buf):
    return _raw_GetStringRegion(env, string, start, length, buf)


def _raw_GetArrayLength(env, array):
    arr = env.resolve_array(array, context="in GetArrayLength")
    return arr.length if arr is not None else 0


def _raw_NewObjectArray(env, length, element_class, initial_element):
    jclass = env.resolve_class(element_class, context="in NewObjectArray")
    if jclass is None:
        return None
    init = env.resolve_reference(initial_element, context="in NewObjectArray")
    array = env.vm.new_array("L{};".format(jclass.name), int(length))
    if init is not None:
        array.elements = [init] * int(length)
    return env.new_local(array)


def _raw_GetObjectArrayElement(env, array, index):
    arr = env.resolve_array(array, context="in GetObjectArrayElement")
    if arr is None:
        return None
    if not 0 <= index < arr.length:
        env._pend(
            "java/lang/ArrayIndexOutOfBoundsException", "index " + str(index)
        )
        return None
    return env.new_local(arr.elements[index])


def _raw_SetObjectArrayElement(env, array, index, value):
    arr = env.resolve_array(array, context="in SetObjectArrayElement")
    if arr is None:
        return None
    if not 0 <= index < arr.length:
        env._pend(
            "java/lang/ArrayIndexOutOfBoundsException", "index " + str(index)
        )
        return None
    arr.elements[index] = env.resolve_reference(
        value, context="in SetObjectArrayElement"
    )
    return None


def _make_new_array_impl(meta: functions.FunctionMeta):
    element = meta.extra_value("element")

    def new_array_impl(env, length):
        return env.new_local(env.vm.new_array(element, int(length)))

    new_array_impl.__name__ = "_raw_" + meta.name
    return new_array_impl


def _make_get_elements_impl(meta: functions.FunctionMeta):
    def get_elements_impl(env, array):
        arr = env.resolve_array(array, context="in " + meta.name)
        if arr is None:
            return None
        buf = NativeBuffer(arr, list(arr.elements), is_copy=True)
        env.pinned.append(buf)
        return buf

    get_elements_impl.__name__ = "_raw_" + meta.name
    return get_elements_impl


def _make_release_elements_impl(meta: functions.FunctionMeta):
    def release_elements_impl(env, array, elems, mode):
        arr = env.resolve_array(array, context="in " + meta.name)
        if not isinstance(elems, NativeBuffer) or elems.freed:
            env.vm.misuse(
                "pinned_double_free",
                meta.name + ": buffer already released",
                env.thread,
            )
            return None
        if mode in (0, JNI_COMMIT) and arr is not None:
            arr.elements[: len(elems.data)] = elems.data
        if mode != JNI_COMMIT:
            _release_buffer(env, elems, meta.name)
        return None

    release_elements_impl.__name__ = "_raw_" + meta.name
    return release_elements_impl


def _make_get_region_impl(meta: functions.FunctionMeta):
    def get_region_impl(env, array, start, length, buf):
        arr = env.resolve_array(array, context="in " + meta.name)
        if arr is None:
            return None
        if start < 0 or start + length > arr.length:
            env._pend(
                "java/lang/ArrayIndexOutOfBoundsException",
                "{} [{}, {})".format(meta.name, start, start + length),
            )
            return None
        for i in range(length):
            buf[i] = arr.elements[start + i]
        return None

    get_region_impl.__name__ = "_raw_" + meta.name
    return get_region_impl


def _make_set_region_impl(meta: functions.FunctionMeta):
    def set_region_impl(env, array, start, length, buf):
        arr = env.resolve_array(array, context="in " + meta.name)
        if arr is None:
            return None
        if start < 0 or start + length > arr.length:
            env._pend(
                "java/lang/ArrayIndexOutOfBoundsException",
                "{} [{}, {})".format(meta.name, start, start + length),
            )
            return None
        for i in range(length):
            arr.elements[start + i] = buf[i]
        return None

    set_region_impl.__name__ = "_raw_" + meta.name
    return set_region_impl


def _raw_GetPrimitiveArrayCritical(env, array):
    arr = env.resolve_array(array, context="in GetPrimitiveArrayCritical")
    if arr is None:
        return None
    buf = NativeBuffer(arr, list(arr.elements), is_copy=False, critical=True)
    env.pinned.append(buf)
    env.thread.acquire_critical(arr)
    return buf


def _raw_ReleasePrimitiveArrayCritical(env, array, carray, mode):
    arr = env.resolve_array(array, context="in ReleasePrimitiveArrayCritical")
    if not isinstance(carray, NativeBuffer) or carray.freed:
        env.vm.misuse(
            "pinned_double_free",
            "ReleasePrimitiveArrayCritical: buffer already released",
            env.thread,
        )
        return None
    if arr is not None:
        if mode in (0, JNI_COMMIT):
            arr.elements[: len(carray.data)] = carray.data
        if mode != JNI_COMMIT:
            if not env.thread.release_critical(arr):
                env.vm.misuse(
                    "critical_violation",
                    "ReleasePrimitiveArrayCritical without matching acquire",
                    env.thread,
                )
    if mode != JNI_COMMIT:
        _release_buffer(env, carray, "ReleasePrimitiveArrayCritical")
    return None


def _raw_RegisterNatives(env, clazz, methods, n_methods):
    jclass = env.resolve_class(clazz, context="in RegisterNatives")
    if jclass is None:
        return -1
    for name, sig, impl in list(methods)[: int(n_methods)]:
        method = jclass.find_method(name, sig)
        if method is None or not method.is_native:
            env._pend(
                "java/lang/NoSuchMethodError",
                "{}.{}{}".format(jclass.name, name, sig),
            )
            return -1
        env.vm.register_native(jclass.name, name, sig, impl)
    return 0


def _raw_UnregisterNatives(env, clazz):
    jclass = env.resolve_class(clazz, context="in UnregisterNatives")
    if jclass is None:
        return -1
    for method in jclass.methods.values():
        if method.is_native:
            method.native_impl = None
    return 0


def _raw_MonitorEnter(env, obj):
    target = env.resolve_reference(obj, context="in MonitorEnter")
    if target is None:
        return -1
    if not target.monitor.enter(env.thread):
        raise DeadlockError(
            "MonitorEnter would block forever on " + target.describe()
        )
    env.monitors_entered.append(target)
    return 0


def _raw_MonitorExit(env, obj):
    target = env.resolve_reference(obj, context="in MonitorExit")
    if target is None:
        return -1
    if not target.monitor.exit(env.thread):
        env._pend(
            "java/lang/IllegalStateException",
            "MonitorExit by non-owner on " + target.describe(),
        )
        return -1
    if target in env.monitors_entered:
        env.monitors_entered.remove(target)
    return 0


def _raw_GetJavaVM(env):
    return env.vm


_DIRECT_SLOT = ("jni$direct", "X")


def _raw_NewDirectByteBuffer(env, address, capacity):
    buf_obj = env.vm.new_object("java/nio/ByteBuffer")
    buf_obj.fields[_DIRECT_SLOT] = (address, int(capacity))
    return env.new_local(buf_obj)


def _raw_GetDirectBufferAddress(env, buf):
    obj = env.resolve_reference(buf, context="in GetDirectBufferAddress")
    if obj is None:
        return None
    payload = obj.fields.get(_DIRECT_SLOT)
    return payload[0] if payload else None


def _raw_GetDirectBufferCapacity(env, buf):
    obj = env.resolve_reference(buf, context="in GetDirectBufferCapacity")
    if obj is None:
        return -1
    payload = obj.fields.get(_DIRECT_SLOT)
    return payload[1] if payload else -1


def _with_hazards(meta: functions.FunctionMeta, raw_fn: Callable) -> Callable:
    """Wrap a raw implementation with the vendor-defined hazards.

    The undefined-behaviour consequences live on the *inside* of the
    function table so that interposed checkers (xcheck, Jinn) observe the
    call — and may warn or abort — *before* the production hazard fires,
    as on a real JVM.
    """
    name = meta.name
    exception_oblivious = meta.exception_oblivious
    critical_safe = meta.critical_safe
    nonnull = tuple((i, meta.params[i].name) for i in meta.nonnull_param_indices)
    default = _DEFAULT_RESULTS.get(meta.returns)

    def hazardous(env, *args):
        vm = env.vm
        thread = env.thread
        if vm.current_thread is not thread:
            vm.misuse(
                "env_mismatch",
                "JNIEnv of {} used on {} in {}".format(
                    thread.describe(), vm.current_thread.describe(), name
                ),
                vm.current_thread,
            )
        if thread.pending_exception is not None and not exception_oblivious:
            vm.misuse(
                "pending_exception_ignored",
                "{} called with {} pending".format(
                    name, thread.pending_exception.describe()
                ),
                thread,
            )
        # Released critical resources leave no zero counts behind, so a
        # non-empty tally means the thread is inside a critical section.
        if thread.critical_tally and not critical_safe:
            vm.misuse(
                "critical_violation",
                "{} called inside a JNI critical section".format(name),
                thread,
            )
        for index, param in nonnull:
            try:
                value = args[index]
            except IndexError:  # a short call; later indices are larger
                break
            if value is None:
                vm.misuse(
                    "null_argument",
                    "{}: parameter '{}' is null".format(name, param),
                    thread,
                )
                return default
        return raw_fn(env, *args)

    hazardous.__name__ = "raw_" + meta.name
    hazardous.__wrapped__ = raw_fn
    return hazardous


def _build_raw_table() -> Dict[str, Callable]:
    table: Dict[str, Callable] = {}
    module = globals()
    for name, meta in functions.FUNCTIONS.items():
        explicit = module.get("_raw_" + name)
        if explicit is not None:
            impl = explicit
        elif meta.family == "calls":
            impl = _make_call_impl(meta)
        elif meta.family == "new_object":
            impl = _make_new_object_impl(meta)
        elif meta.family == "field_access":
            impl = _make_field_impl(meta)
        elif meta.name.startswith("New") and meta.name.endswith("Array"):
            impl = _make_new_array_impl(meta)
        elif meta.name.endswith("ArrayElements") and meta.name.startswith("Get"):
            impl = _make_get_elements_impl(meta)
        elif meta.name.endswith("ArrayElements") and meta.name.startswith("Release"):
            impl = _make_release_elements_impl(meta)
        elif meta.name.endswith("ArrayRegion") and meta.name.startswith("Get"):
            impl = _make_get_region_impl(meta)
        elif meta.name.endswith("ArrayRegion") and meta.name.startswith("Set"):
            impl = _make_set_region_impl(meta)
        else:
            raise AssertionError("no raw implementation for " + name)
        table[name] = _with_hazards(meta, impl)
    return table


_RAW_TABLE = _build_raw_table()
