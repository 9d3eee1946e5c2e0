"""JVM type-descriptor syntax: parsing and conformance.

Descriptors are the string type language JNI leans on — method signatures
like ``(Ljava/util/List;I)V`` — and exactly the reason standard static
type checking cannot see through JNI (paper, Section 5.2).  The dynamic
type constraints need to parse them at run time; this module is that
parser plus value-conformance checks.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.jvm.model import JArray, JObject, JString

PRIMITIVE_CODES = "ZBCSIJFD"

#: Default values returned on the error paths of JNI calls (a JNI function
#: that fails with a pending exception returns the type's zero value).
_DEFAULTS = {
    "Z": False,
    "B": 0,
    "C": "\0",
    "S": 0,
    "I": 0,
    "J": 0,
    "F": 0.0,
    "D": 0.0,
    "V": None,
}


class DescriptorError(ValueError):
    """A malformed type or method descriptor."""


def _parse_one(descriptor: str, pos: int) -> Tuple[str, int]:
    """Parse one field descriptor starting at ``pos``; returns (type, next)."""
    if pos >= len(descriptor):
        raise DescriptorError("truncated descriptor: " + descriptor)
    ch = descriptor[pos]
    if ch in PRIMITIVE_CODES:
        return ch, pos + 1
    if ch == "L":
        end = descriptor.find(";", pos)
        if end < 0:
            raise DescriptorError("unterminated class type in " + descriptor)
        return descriptor[pos : end + 1], end + 1
    if ch == "[":
        element, nxt = _parse_one(descriptor, pos + 1)
        return "[" + element, nxt
    raise DescriptorError(
        "bad descriptor character {!r} in {!r}".format(ch, descriptor)
    )


def parse_field_descriptor(descriptor: str) -> str:
    """Validate a single field descriptor and return it normalised."""
    parsed, end = _parse_one(descriptor, 0)
    if end != len(descriptor):
        raise DescriptorError("trailing characters in " + descriptor)
    return parsed


@functools.lru_cache(maxsize=4096)
def parse_method_descriptor(descriptor: str) -> Tuple[Tuple[str, ...], str]:
    """Split ``(...)R`` into parameter descriptors and return descriptor.

    Results are immutable tuples, cached per descriptor string.  The
    crossings themselves read :attr:`repro.jvm.model.JMethod.signature`,
    which holds this parse for each method from its first use on, as
    real Jinn records a signature once, when the method ID is created.
    """
    if not descriptor.startswith("("):
        raise DescriptorError("method descriptor must start with '(': " + descriptor)
    close = descriptor.find(")")
    if close < 0:
        raise DescriptorError("missing ')' in " + descriptor)
    params: List[str] = []
    pos = 1
    while pos < close:
        param, pos = _parse_one(descriptor, pos)
        params.append(param)
    if pos != close:
        raise DescriptorError("malformed parameter list in " + descriptor)
    ret = descriptor[close + 1 :]
    if ret == "V":
        return tuple(params), "V"
    return tuple(params), parse_field_descriptor(ret)


def is_reference_descriptor(descriptor: str) -> bool:
    return descriptor.startswith(("L", "["))


def descriptor_to_class_name(descriptor: str) -> str:
    """``Ljava/lang/String;`` -> ``java/lang/String``; arrays unchanged."""
    if descriptor.startswith("L") and descriptor.endswith(";"):
        return descriptor[1:-1]
    if descriptor.startswith("["):
        return descriptor
    raise DescriptorError("not a reference descriptor: " + descriptor)


def default_value(descriptor: str):
    """The zero value of a descriptor's type (None for references)."""
    if is_reference_descriptor(descriptor):
        return None
    try:
        return _DEFAULTS[descriptor]
    except KeyError:
        raise DescriptorError("unknown descriptor " + descriptor) from None


def value_conforms(vm, value, descriptor: str) -> bool:
    """Dynamic conformance of a model-level value to a descriptor.

    Primitives accept Python bools/ints/floats of the right shape; null
    (None) conforms to any reference type; objects must be instances of
    the named class or a subclass.
    """
    if descriptor == "V":
        return value is None
    if not is_reference_descriptor(descriptor):
        if descriptor == "Z":
            return isinstance(value, bool)
        if descriptor in "BSIJ":
            return isinstance(value, int) and not isinstance(value, bool)
        if descriptor == "C":
            return isinstance(value, str) and len(value) == 1
        if descriptor in "FD":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return False
    if value is None:
        return True
    if not isinstance(value, JObject):
        return False
    if descriptor.startswith("["):
        if not isinstance(value, JArray):
            return False
        element = descriptor[1:]
        if is_reference_descriptor(element):
            # Covariant object arrays: accept any reference element type.
            return is_reference_descriptor(value.element_descriptor)
        return value.element_descriptor == element
    wanted = vm.find_class(descriptor_to_class_name(descriptor))
    if wanted is None:
        return False
    if isinstance(value, JString) and wanted.name == "java/lang/Object":
        return True
    return value.jclass.is_subclass_of(wanted)
