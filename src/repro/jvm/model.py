"""Object model of the simulated JVM.

Classes, methods, fields, objects, arrays, and strings.  The model follows
the JVM specification's naming: class names use internal form
(``java/lang/String``), and method/field types use descriptor syntax
(``(Ljava/lang/String;I)V``).  Java method bodies are Python callables so
workloads can define "Java code" that calls back into native code.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.jvm.errors import SimulatedCrash

#: Descriptor characters of the eight primitive types, in JNI order.
PRIMITIVE_DESCRIPTORS = {
    "boolean": "Z",
    "byte": "B",
    "char": "C",
    "short": "S",
    "int": "I",
    "long": "J",
    "float": "F",
    "double": "D",
}

#: Default (zero) values used for uninitialised fields and array elements.
PRIMITIVE_DEFAULTS = {
    "Z": False,
    "B": 0,
    "C": "\0",
    "S": 0,
    "I": 0,
    "J": 0,
    "F": 0.0,
    "D": 0.0,
}

_object_ids = itertools.count(1)


def reset_object_ids() -> None:
    """Restart the heap object-id counter (called at JavaVM creation)
    so addresses and trace class records are deterministic per run."""
    global _object_ids
    _object_ids = itertools.count(1)


class Monitor:
    """A Java monitor: re-entrant, owned by at most one thread."""

    def __init__(self):
        self.owner = None
        self.entry_count = 0

    def enter(self, thread) -> bool:
        """Acquire for ``thread``; returns False if it would block."""
        if self.owner is None or self.owner is thread:
            self.owner = thread
            self.entry_count += 1
            return True
        return False

    def exit(self, thread) -> bool:
        """Release one entry; returns False if ``thread`` is not the owner."""
        if self.owner is not thread or self.entry_count == 0:
            return False
        self.entry_count -= 1
        if self.entry_count == 0:
            self.owner = None
        return True


class JObject:
    """A heap object.

    Attributes:
        jclass: the object's class.
        fields: instance field storage, keyed by (name, descriptor).
        address: the simulated heap address; a moving GC rewrites it.
        reclaimed: True once the GC has freed the object — any subsequent
            access through the simulator is use-after-free.
    """

    __slots__ = (
        "jclass",
        "fields",
        "object_id",
        "address",
        "reclaimed",
        "monitor",
    )

    def __init__(self, jclass: "JClass"):
        self.jclass = jclass
        self.fields: Dict[Tuple[str, str], object] = {}
        self.object_id = next(_object_ids)
        self.address = 0
        self.reclaimed = False
        self.monitor = Monitor()

    def get_field(self, field: "JField"):
        self._guard()
        return self.fields.get(field.key, field.default_value())

    def set_field(self, field: "JField", value):
        self._guard()
        self.fields[field.key] = value

    def _guard(self):
        if self.reclaimed:
            raise SimulatedCrash(
                "access to reclaimed object #{} (was {})".format(
                    self.object_id, self.jclass.name
                )
            )

    def describe(self) -> str:
        return "{}@{:x}".format(self.jclass.name, self.address or self.object_id)

    def references(self) -> List["JObject"]:
        """Outgoing object references, for the collector's trace."""
        return [v for v in self.fields.values() if isinstance(v, JObject)]


class JString(JObject):
    """A ``java/lang/String`` with its character payload.

    ``nul_terminated`` records whether a vendor's ``GetStringChars``
    buffer carries a trailing NUL; per pitfall 8 of the paper, JNI does
    *not* guarantee one, and vendors differ.
    """

    __slots__ = ("value",)

    def __init__(self, jclass: "JClass", value: str):
        super().__init__(jclass)
        self.value = value

    def describe(self) -> str:
        return "\"{}\"".format(self.value)


class JArray(JObject):
    """A Java array; ``element_descriptor`` is the component type."""

    __slots__ = ("element_descriptor", "elements")

    def __init__(self, jclass: "JClass", element_descriptor: str, length: int):
        super().__init__(jclass)
        self.element_descriptor = element_descriptor
        default = PRIMITIVE_DEFAULTS.get(element_descriptor)
        self.elements: List[object] = [default] * length

    @property
    def length(self) -> int:
        return len(self.elements)

    def references(self) -> List[JObject]:
        refs = [v for v in self.elements if isinstance(v, JObject)]
        refs.extend(super().references())
        return refs

    def describe(self) -> str:
        return "{}[{}]".format(self.element_descriptor, self.length)


class JField:
    """A declared field.

    ``is_final`` matters to the access-control constraint: JNI in practice
    ignores visibility but honours ``final`` (paper Section 5.2).
    """

    def __init__(
        self,
        declaring_class: "JClass",
        name: str,
        descriptor: str,
        *,
        is_static: bool = False,
        is_final: bool = False,
        visibility: str = "public",
    ):
        self.declaring_class = declaring_class
        self.name = name
        self.descriptor = descriptor
        self.is_static = is_static
        self.is_final = is_final
        self.visibility = visibility
        self.static_value = None
        if is_static:
            self.static_value = PRIMITIVE_DEFAULTS.get(descriptor)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.name, self.descriptor)

    def default_value(self):
        return PRIMITIVE_DEFAULTS.get(self.descriptor)

    def describe(self) -> str:
        kind = "static " if self.is_static else ""
        return "{}{} {}.{}".format(
            kind, self.descriptor, self.declaring_class.name, self.name
        )


class JMethod:
    """A declared method.

    A non-native method's body is a Python callable
    ``body(vm, thread, receiver, *args)`` operating directly on model
    objects (it plays the role of bytecode).  A native method has no body
    until the program binds one through the native bridge; the bound
    implementation receives JNI handles, not model objects.
    """

    def __init__(
        self,
        declaring_class: "JClass",
        name: str,
        descriptor: str,
        *,
        is_static: bool = False,
        is_native: bool = False,
        body: Optional[Callable] = None,
    ):
        self.declaring_class = declaring_class
        self.name = name
        self.descriptor = descriptor
        self.is_static = is_static
        self.is_native = is_native
        self.body = body
        self.native_impl: Optional[Callable] = None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.name, self.descriptor)

    @cached_property
    def signature(self) -> Tuple[Tuple[str, ...], str]:
        """``(parameter descriptors, return descriptor)``, parsed on first use."""
        from repro.jvm.descriptors import parse_method_descriptor

        return parse_method_descriptor(self.descriptor)

    @cached_property
    def frame(self):
        """The immutable ``StackFrame`` every invocation of the method pushes."""
        from repro.jvm.exceptions import StackFrame

        return StackFrame(
            self.declaring_class.name,
            self.name,
            location="{}.java".format(self.declaring_class.name.split("/")[-1]),
            is_native=self.is_native,
        )

    def describe(self) -> str:
        return "{}.{}{}".format(self.declaring_class.name, self.name, self.descriptor)

    def mangled_name(self) -> str:
        """JNI-style short mangled name, e.g. ``Java_Callback_bind``."""
        return "Java_{}_{}".format(
            self.declaring_class.name.replace("/", "_"), self.name
        )


class JClass:
    """A loaded class.

    Each class owns a ``class_object`` — the ``java/lang/Class`` instance
    that JNI's ``jclass`` handles actually refer to.
    """

    def __init__(self, name: str, superclass: Optional["JClass"] = None):
        self.name = name
        self.superclass = superclass
        self.methods: Dict[Tuple[str, str], JMethod] = {}
        self.fields: Dict[Tuple[str, str], JField] = {}
        self.class_object: Optional[JObject] = None
        self.interfaces: List["JClass"] = []

    # -- membership -------------------------------------------------------

    def add_method(self, method: JMethod) -> JMethod:
        self.methods[method.key] = method
        return method

    def add_field(self, field: JField) -> JField:
        self.fields[field.key] = field
        return field

    def find_method(self, name: str, descriptor: str) -> Optional[JMethod]:
        """Resolve a method by signature, walking up the superclass chain."""
        cls: Optional[JClass] = self
        while cls is not None:
            method = cls.methods.get((name, descriptor))
            if method is not None:
                return method
            cls = cls.superclass
        return None

    def find_field(self, name: str, descriptor: str) -> Optional[JField]:
        cls: Optional[JClass] = self
        while cls is not None:
            field = cls.fields.get((name, descriptor))
            if field is not None:
                return field
            cls = cls.superclass
        return None

    def declares_method(self, method: JMethod) -> bool:
        """True when this class (not a superclass) declares ``method``."""
        return self.methods.get(method.key) is method

    # -- subtyping --------------------------------------------------------

    def is_subclass_of(self, other: "JClass") -> bool:
        cls: Optional[JClass] = self
        while cls is not None:
            if cls is other:
                return True
            if other in cls.interfaces:
                return True
            cls = cls.superclass
        return False

    def describe(self) -> str:
        return self.name

    def __repr__(self):
        return "JClass({!r})".format(self.name)
