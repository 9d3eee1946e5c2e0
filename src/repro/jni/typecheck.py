"""Dynamic Java-type conformance for JNI handles.

Shared by the built-in ``-Xcheck:jni`` baselines and Jinn's typing
machines.  ``conforms`` answers the question real checkers ask through
``GetObjectType`` + ``IsAssignableFrom``: does this object satisfy the
Java type a JNI function fixes for one of its parameters?
"""

from __future__ import annotations

from repro.jvm.model import JArray, JObject, JString


def conforms(vm, target: JObject, fixed_type) -> bool:
    """Does ``target`` satisfy a metadata ``fixed_type`` annotation?

    ``fixed_type`` is an internal class name, an array descriptor
    (``[I``; ``[L`` for any object array; ``[*`` for any array), or a
    tuple of alternatives.
    """
    # Both hosts register every class under its name, so an exact name
    # match is the wanted class itself.  Array descriptors still take
    # the checks below: a class name says nothing of the object's shape.
    if target.jclass.name == fixed_type and fixed_type[0] != "[":
        return True
    if isinstance(fixed_type, tuple):
        return any(conforms(vm, target, ft) for ft in fixed_type)
    if fixed_type == "[*":
        return isinstance(target, JArray)
    if fixed_type.startswith("["):
        if not isinstance(target, JArray):
            return False
        if fixed_type == "[L":
            return target.element_descriptor.startswith(("L", "["))
        return target.element_descriptor == fixed_type[1:]
    wanted = vm.find_class(fixed_type)
    if wanted is None:
        return False
    if isinstance(target, JString) and fixed_type == "java/lang/String":
        return True
    return target.jclass.is_subclass_of(wanted)


def describe_fixed_type(fixed_type) -> str:
    if isinstance(fixed_type, tuple):
        return " or ".join(describe_fixed_type(ft) for ft in fixed_type)
    if fixed_type == "[*":
        return "an array"
    if fixed_type == "[L":
        return "an object array"
    if fixed_type.startswith("["):
        return "a {}[] array".format(fixed_type[1:])
    return fixed_type.replace("/", ".")
