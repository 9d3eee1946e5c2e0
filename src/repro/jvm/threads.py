"""Threads of the simulated JVM.

The simulator is single-threaded Python, but multilingual bugs like
"using the JNIEnv across threads" need distinct thread identities.  A
:class:`JThread` carries everything the JVM keeps per thread: its JNI
environment, its pending exception, its Java call stack (used for stack
traces and as GC roots), and the tally of critical resources it holds.
``JavaVM.run_on_thread`` switches the VM's notion of the current thread,
which is how workloads simulate code running "on" another thread.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.jvm.exceptions import JThrowable, StackFrame
from repro.jvm.model import JObject

_thread_ids = itertools.count(100)


def reset_thread_ids() -> None:
    """Restart the tid counter (called at JavaVM creation) so thread
    names in reports are deterministic run over run."""
    global _thread_ids
    _thread_ids = itertools.count(100)


class JThread:
    """One JVM thread (attached native threads included)."""

    def __init__(self, name: str, *, daemon: bool = False):
        self.name = name
        self.thread_id = next(_thread_ids)
        self.daemon = daemon
        #: The thread's JNIEnv; assigned when the VM attaches the thread.
        self.env = None
        #: The JVM-internal pending-exception slot (paper: the exception
        #: state machine's encoding *is* this JVM structure).
        self.pending_exception: Optional[JThrowable] = None
        #: Java frames currently on this thread's stack (innermost last).
        self.frames: List[StackFrame] = []
        #: Objects pinned live by running Java code (GC roots).
        self.java_stack: List[JObject] = []
        #: Critical resources held: object id -> acquisition count.
        self.critical_tally: Dict[int, int] = {}
        #: Depth of native code on the stack (0 = pure Java).
        self.native_depth = 0
        self.alive = True

    # -- exceptions -------------------------------------------------------

    def throw(self, throwable: JThrowable) -> None:
        throwable.fill_in_stack_trace(self.frames)
        self.pending_exception = throwable

    def clear_exception(self) -> Optional[JThrowable]:
        pending = self.pending_exception
        self.pending_exception = None
        return pending

    # -- critical sections --------------------------------------------------

    def in_critical_section(self) -> bool:
        # release_critical deletes a count when it reaches zero.
        return bool(self.critical_tally)

    def acquire_critical(self, resource: JObject) -> None:
        self.critical_tally[resource.object_id] = (
            self.critical_tally.get(resource.object_id, 0) + 1
        )

    def release_critical(self, resource: JObject) -> bool:
        """Release one acquisition; returns False when not held."""
        count = self.critical_tally.get(resource.object_id, 0)
        if count == 0:
            return False
        if count == 1:
            del self.critical_tally[resource.object_id]
        else:
            self.critical_tally[resource.object_id] = count - 1
        return True

    # -- stack bookkeeping ---------------------------------------------------

    def push_frame(self, frame: StackFrame) -> None:
        self.frames.append(frame)

    def pop_frame(self) -> None:
        self.frames.pop()

    def stack_snapshot(self) -> List[StackFrame]:
        """Innermost-first copy, the order stack traces are printed in."""
        return list(reversed(self.frames))

    def gc_roots(self) -> List[JObject]:
        roots: List[JObject] = list(self.java_stack)
        if self.pending_exception is not None:
            roots.append(self.pending_exception)
        return roots

    def describe(self) -> str:
        return "Thread[{},tid={}]".format(self.name, self.thread_id)
