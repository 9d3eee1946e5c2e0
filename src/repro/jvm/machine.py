"""The simulated Java virtual machine.

:class:`JavaVM` owns the heap, the loaded classes, the threads, and the
agent host.  It implements the two control transfers that matter to FFI
checking: invoking a Java method (possibly *from* native code through a
JNI ``Call*`` function) and invoking a native method (crossing from Java
into C through the native bridge, which creates the implicit local
reference frame).

A VM is constructed with a vendor personality (HotSpot or J9) that decides
what happens on undefined behaviour, and optionally with JVMTI agents —
Jinn or the built-in ``-Xcheck:jni`` checker.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.jvm import descriptors
from repro.jvm.classes import bootstrap
from repro.jvm.errors import JavaException, SimulatedCrash, VMShutdownError
from repro.jvm.exceptions import JThrowable
from repro.jvm.heap import Heap
from repro.jvm.jvmti import AgentHost, JVMTIAgent
from repro.jvm.model import JArray, JClass, JField, JMethod, JObject, JString
from repro.jvm.threads import JThread
from repro.jvm.vendors import HOTSPOT, VendorSpec


class JavaVM:
    """A Java virtual machine instance.

    Args:
        vendor: undefined-behaviour personality (default HotSpot).
        agents: JVMTI agents to load (e.g. a ``JinnAgent``).
        check_jni: load the vendor's built-in ``-Xcheck:jni`` checker,
            like passing ``-Xcheck:jni`` on a real JVM command line.
        local_frame_capacity: slots the JNI spec guarantees per native
            frame (16 in the specification and in this default).
        gc_stress: run a full collection at every allocation, making
            dangling-reference bugs deterministic instead of latent.
    """

    def __init__(
        self,
        vendor: VendorSpec = HOTSPOT,
        agents: Sequence[JVMTIAgent] = (),
        *,
        check_jni: bool = False,
        local_frame_capacity: int = 16,
        gc_stress: bool = False,
    ):
        from repro.jni.types import reset_ref_serials
        from repro.jvm.model import reset_object_ids
        from repro.jvm.threads import reset_thread_ids

        # Fresh per-VM counters: reports mention ref serials and tids,
        # and a new VM is a new world — text must not depend on how many
        # VMs the process created before this one.
        reset_ref_serials()
        reset_object_ids()
        reset_thread_ids()
        self.vendor = vendor
        self.heap = Heap()
        self.classes: Dict[str, JClass] = {}
        #: Inverse of each class's ``class_object``, by object id.
        self._class_by_object_id: Dict[int, JClass] = {}
        self.threads: List[JThread] = []
        self.local_frame_capacity = local_frame_capacity
        self.gc_stress = gc_stress
        self.alive = True
        #: Diagnostics printed by agents (xcheck warnings, Jinn reports).
        self.diagnostics: List[str] = []
        #: Filled by shutdown(): leak descriptions from agents and the VM.
        self.leak_report: List[str] = []
        #: Count of Java<->C boundary crossings (Table 3's transition counts).
        self.transition_count = 0

        # Global/weak JNI references are VM-wide, not per thread.
        from repro.jni.refs import GlobalRefRegistry

        self.global_refs = GlobalRefRegistry()

        loaded: List[JVMTIAgent] = list(agents)
        if check_jni:
            from repro.jni.xcheck import XCheckAgent

            loaded.insert(0, XCheckAgent(vendor))
        self.agent_host = AgentHost(loaded)

        bootstrap(self)
        self.agent_host.dispatch("on_load", self)

        self.main_thread = self.attach_thread("main")
        self.current_thread = self.main_thread
        self.agent_host.dispatch("on_vm_init", self)

    # ------------------------------------------------------------------
    # Classes
    # ------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        superclass: Union[JClass, str, None] = "java/lang/Object",
    ) -> JClass:
        """Define and register a class; returns the :class:`JClass`."""
        self._require_alive()
        if name in self.classes:
            raise ValueError("class already defined: " + name)
        if isinstance(superclass, str):
            superclass = self.require_class(superclass)
        jclass = JClass(name, superclass)
        self.classes[name] = jclass
        return jclass

    def find_class(self, name: str) -> Optional[JClass]:
        jclass = self.classes.get(name)
        if jclass is None and name.startswith("["):
            # Array classes spring into existence on first use.
            jclass = JClass(name, self.classes.get("java/lang/Object"))
            self.classes[name] = jclass
        return jclass

    def require_class(self, name: str) -> JClass:
        jclass = self.find_class(name)
        if jclass is None:
            raise KeyError("no such class: " + name)
        return jclass

    def class_object_of(self, jclass: JClass) -> JObject:
        """The ``java/lang/Class`` instance for a class (created lazily)."""
        if jclass.class_object is None:
            class_object = self.new_object(self.require_class("java/lang/Class"))
            jclass.class_object = class_object
            self._class_by_object_id[class_object.object_id] = jclass
        return jclass.class_object

    def class_of_class_object(self, class_object: JObject) -> Optional[JClass]:
        """Inverse of :meth:`class_object_of`; None if not a class object."""
        jclass = self._class_by_object_id.get(class_object.object_id)
        # Object ids restart with every VM: only this VM's own class
        # object for the class counts.
        if jclass is not None and jclass.class_object is class_object:
            return jclass
        return None

    # -- declaration helpers ----------------------------------------------

    def add_method(
        self,
        class_name: str,
        name: str,
        descriptor: str,
        *,
        is_static: bool = False,
        is_native: bool = False,
        body: Optional[Callable] = None,
    ) -> JMethod:
        """Declare a method on an already-defined class."""
        jclass = self.require_class(class_name)
        method = JMethod(
            jclass,
            name,
            descriptor,
            is_static=is_static,
            is_native=is_native,
            body=body,
        )
        return jclass.add_method(method)

    def add_field(
        self,
        class_name: str,
        name: str,
        descriptor: str,
        *,
        is_static: bool = False,
        is_final: bool = False,
        visibility: str = "public",
    ) -> JField:
        jclass = self.require_class(class_name)
        field = JField(
            jclass,
            name,
            descriptor,
            is_static=is_static,
            is_final=is_final,
            visibility=visibility,
        )
        return jclass.add_field(field)

    def register_native(
        self, class_name: str, name: str, descriptor: str, impl: Callable
    ) -> JMethod:
        """Bind a native method implementation (the JNI "bind" moment).

        The implementation is threaded through every agent's
        ``on_native_method_bind`` hook, which is where Jinn substitutes
        its generated wrapper.
        """
        jclass = self.require_class(class_name)
        method = jclass.find_method(name, descriptor)
        if method is None:
            method = self.add_method(
                class_name, name, descriptor, is_static=True, is_native=True
            )
        if not method.is_native:
            raise ValueError("not a native method: " + method.describe())
        method.native_impl = self.agent_host.bind_native(self, method, impl)
        return method

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def new_object(self, jclass: Union[JClass, str]) -> JObject:
        self._require_alive()
        if isinstance(jclass, str):
            jclass = self.require_class(jclass)
        obj = JObject(jclass)
        self._allocated(obj)
        return obj

    def new_string(self, value: str) -> JString:
        self._require_alive()
        string = JString(self.require_class("java/lang/String"), value)
        self._allocated(string)
        return string

    def new_array(self, element_descriptor: str, length: int) -> JArray:
        self._require_alive()
        jclass = self.find_class("[" + element_descriptor)
        array = JArray(jclass, element_descriptor, length)
        self._allocated(array)
        return array

    def new_throwable(
        self,
        class_name: str,
        message: Optional[str] = None,
        cause: Optional[JThrowable] = None,
    ) -> JThrowable:
        throwable = JThrowable(self.require_class(class_name), message, cause)
        self._allocated(throwable)
        return throwable

    def _allocated(self, obj: JObject) -> None:
        self.heap.allocate(obj)
        if self.gc_stress:
            # Pin the newborn so stress collections cannot reclaim it
            # before the caller has stored it anywhere.
            self.current_thread.java_stack.append(obj)
            try:
                self.gc()
            finally:
                self.current_thread.java_stack.pop()

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def attach_thread(self, name: str) -> JThread:
        """Attach a (native) thread; creates its JNIEnv and fires JVMTI."""
        self._require_alive()
        from repro.jni.env import JNIEnv

        thread = JThread(name)
        thread.env = JNIEnv(self, thread)
        self.threads.append(thread)
        self.agent_host.dispatch("on_thread_start", self, thread)
        return thread

    def detach_thread(self, thread: JThread) -> None:
        self.agent_host.dispatch("on_thread_end", self, thread)
        thread.alive = False

    @contextlib.contextmanager
    def run_on_thread(self, thread: JThread):
        """Execute the with-body as if scheduled on ``thread``."""
        previous = self.current_thread
        self.current_thread = thread
        try:
            yield thread
        finally:
            self.current_thread = previous

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def call_static(self, class_name: str, name: str, descriptor: str, *args):
        """Harness entry point: invoke a static Java method ("from Java")."""
        jclass = self.require_class(class_name)
        method = jclass.find_method(name, descriptor)
        if method is None:
            raise KeyError("no method {}.{}{}".format(class_name, name, descriptor))
        return self.invoke(self.current_thread, method, None, args)

    def call_instance(self, receiver: JObject, name: str, descriptor: str, *args):
        method = receiver.jclass.find_method(name, descriptor)
        if method is None:
            raise KeyError(
                "no method {}.{}{}".format(receiver.jclass.name, name, descriptor)
            )
        return self.invoke(self.current_thread, method, receiver, args)

    def invoke(
        self,
        thread: JThread,
        method: JMethod,
        receiver: Optional[JObject],
        args: Sequence,
        *,
        from_native: bool = False,
    ):
        """Invoke ``method`` on ``thread``.

        ``from_native`` marks calls arriving through JNI ``Call*``
        functions: a Java exception is then *recorded* as the thread's
        pending exception (and the type's zero value returned) instead of
        propagating — the C caller must check for it, which is exactly
        the behaviour the exception-state machine polices.
        """
        self._require_alive()
        thread.push_frame(method.frame)
        pinned = [a for a in args if isinstance(a, JObject)]
        if receiver is not None:
            pinned.append(receiver)
        thread.java_stack.extend(pinned)
        try:
            if method.is_native:
                result = self._invoke_native(thread, method, receiver, args)
            else:
                if method.body is None:
                    raise NotImplementedError("abstract " + method.describe())
                target = receiver if not method.is_static else method.declaring_class
                result = method.body(self, thread, target, *args)
        except JavaException as je:
            if from_native:
                thread.pending_exception = je.throwable
                return descriptors.default_value(method.signature[1])
            raise
        finally:
            del thread.java_stack[len(thread.java_stack) - len(pinned) :]
            thread.pop_frame()
        return result

    def _invoke_native(self, thread: JThread, method: JMethod, receiver, args):
        """The native bridge: Java -> C crossing with an implicit frame."""
        if method.native_impl is None:
            self.throw_new(
                thread,
                "java/lang/Error",
                "UnsatisfiedLinkError: " + method.describe(),
            )
        env = thread.env
        self.transition_count += 1
        thread.native_depth += 1
        env.refs.push_frame(self.local_frame_capacity, implicit=True)
        result = None
        try:
            if method.is_static:
                this = env.refs.new_local(
                    self.class_object_of(method.declaring_class), thread
                )
            else:
                this = env.refs.new_local(receiver, thread) if receiver else None
            handles = [
                env.refs.new_local(a, thread) if isinstance(a, JObject) else a
                for a in args
            ]
            result = method.native_impl(env, this, *handles)
            if descriptors.is_reference_descriptor(method.signature[1]):
                # The handle must be resolved while the frame is alive.
                result = env.resolve_reference(
                    result, context="return of " + method.describe()
                )
        finally:
            leaked = env.refs.pop_frame(implicit=True)
            if leaked:
                env.leaked_frames += leaked
            thread.native_depth -= 1
            self.transition_count += 1
        if thread.pending_exception is not None:
            raise JavaException(thread.clear_exception())
        return result

    # ------------------------------------------------------------------
    # Exceptions
    # ------------------------------------------------------------------

    def throw_new(
        self,
        thread: JThread,
        class_name: str,
        message: Optional[str] = None,
        cause: Optional[JThrowable] = None,
    ):
        """Construct and raise a Java exception on ``thread`` (Java-side)."""
        throwable = self.new_throwable(class_name, message, cause)
        throwable.fill_in_stack_trace(thread.stack_snapshot())
        raise JavaException(throwable)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(self) -> int:
        """Run a full moving collection; returns objects reclaimed."""
        roots: List[JObject] = []
        for jclass in self.classes.values():
            if jclass.class_object is not None:
                roots.append(jclass.class_object)
            for field in jclass.fields.values():
                if field.is_static and isinstance(field.static_value, JObject):
                    roots.append(field.static_value)
        roots.extend(self.global_refs.gc_roots())
        for thread in self.threads:
            roots.extend(thread.gc_roots())
            if thread.env is not None:
                roots.extend(thread.env.gc_roots())
        return self.heap.collect(roots, self.global_refs.weak_slots())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def log(self, message: str) -> None:
        self.diagnostics.append(message)

    def shutdown(self) -> List[str]:
        """Terminate the VM: fire VM-death, gather leaks, mark dead."""
        if not self.alive:
            return self.leak_report
        self.agent_host.dispatch("on_vm_death", self)
        self.leak_report.extend(self.global_refs.leak_descriptions())
        for thread in self.threads:
            if thread.env is not None:
                self.leak_report.extend(thread.env.leak_descriptions())
            if thread.in_critical_section():
                self.leak_report.append(
                    "{} still holds a critical resource".format(thread.describe())
                )
        self.alive = False
        return self.leak_report

    def _require_alive(self) -> None:
        if not self.alive:
            raise VMShutdownError("the VM has shut down")

    # ------------------------------------------------------------------
    # Vendor policy
    # ------------------------------------------------------------------

    def misuse(self, kind: str, message: str, thread: Optional[JThread] = None):
        """React to undefined behaviour according to the vendor profile.

        Returns normally (after recording) when the vendor's production
        reaction is to keep running or leak; raises otherwise.  A misuse
        kind a checker has just diagnosed-and-defused (``-Xcheck:jni``
        warnings intercede on the condition they detect) is consumed
        without consequence.
        """
        env = (thread or self.current_thread).env or self.current_thread.env
        if env is not None and kind in env.suppressed_misuse:
            env.suppressed_misuse.discard(kind)
            return None
        reaction = self.vendor.reaction(kind)
        if reaction == "crash":
            raise SimulatedCrash(
                "{} aborted: {} ({})".format(self.vendor.name, message, kind)
            )
        if reaction == "npe":
            thread = thread or self.current_thread
            throwable = self.new_throwable("java/lang/NullPointerException", message)
            throwable.fill_in_stack_trace(thread.stack_snapshot())
            thread.pending_exception = throwable
            return None
        if reaction == "deadlock":
            from repro.jvm.errors import DeadlockError

            raise DeadlockError(message)
        # "running" / "leak": continue on undefined state.
        return None
