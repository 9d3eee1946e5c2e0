"""The Jinn synthesizer: Algorithm 1 of the paper, with code generation.

The synthesizer consumes state machine specifications — state
transitions, the mapping from state transitions to language transitions,
and the state machine encodings — and computes the cross product of state
transitions and FFI functions (Algorithm 1).  For every FFI function it
then *generates source code* for a wrapper that performs exactly the
checks that apply to that function, at the right site (start of the
wrapper for Call transitions, end for Return transitions), plus one
parametric wrapper factory for native methods, which are not known until
the program binds them.

The generated module is real Python source: it can be written to disk for
inspection (and for the spec-vs-generated line-count experiment, E8) or
compiled in memory and bound by a :class:`repro.pipeline.PipelinePlan`,
the call path of both the Jinn agent and the Python/C checker.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.defaults import default_literal
# NATIVE_KEY moved to the language-neutral core with the dispatch index;
# re-imported here so existing ``synthesizer.NATIVE_KEY`` users keep
# working.
from repro.core.dispatch import NATIVE_KEY, DispatchIndex
from repro.fsm.events import Direction, Site
from repro.fsm.registry import SpecRegistry
from repro.jni import functions

_SITE_FOR_DIRECTION = {
    Direction.CALL_NATIVE_TO_MANAGED: Site.PRE,
    Direction.RETURN_MANAGED_TO_NATIVE: Site.POST,
    Direction.CALL_MANAGED_TO_NATIVE: Site.PRE,
    Direction.RETURN_NATIVE_TO_MANAGED: Site.POST,
}


class Synthesizer:
    """Algorithm 1: specifications in, instrumented wrapper module out."""

    def __init__(
        self,
        registry: SpecRegistry,
        function_table: Optional[Dict[str, functions.FunctionMeta]] = None,
    ):
        self.registry = registry
        self.function_table = function_table or functions.FUNCTIONS

    # ------------------------------------------------------------------
    # Algorithm 1: compute the instrumentation plan
    # ------------------------------------------------------------------

    def plan(self) -> Dict[str, Dict[Site, List[str]]]:
        """Instrumentation lines per wrapper and site.

        Keys are JNI function names plus :data:`NATIVE_KEY`; values map
        each site to the source lines the machines contribute there, in
        machine registration order.
        """
        grouped = self.machine_plan()
        return {
            key: {
                site: [line for _, lines in groups for line in lines]
                for site, groups in sites.items()
            }
            for key, sites in grouped.items()
        }

    def machine_plan(self) -> Dict[str, Dict[Site, List[tuple]]]:
        """:meth:`plan` with machine attribution preserved.

        Values map each site to ``(machine name, lines)`` groups in
        machine registration order — what the code generator needs to
        emit one containment boundary per contributing machine.
        """
        plan: Dict[str, Dict[Site, List[tuple]]] = {
            name: {Site.PRE: [], Site.POST: []} for name in self.function_table
        }
        plan[NATIVE_KEY] = {Site.PRE: [], Site.POST: []}
        emitted = set()

        for spec in self.registry:  # Algorithm 1, line 1
            for st in spec.state_transitions():  # line 2
                for lt in spec.language_transitions_for(st):  # lines 3-4
                    site = _SITE_FOR_DIRECTION[lt.direction]
                    if lt.functions.matches(None):
                        targets: List[Optional[functions.FunctionMeta]] = [None]
                    else:
                        targets = [
                            meta
                            for meta in self.function_table.values()
                            if lt.functions.matches(meta)
                        ]
                    for meta in targets:  # line 5: the wrapper for e.function
                        key = NATIVE_KEY if meta is None else meta.name
                        dedup = (spec.name, key, lt.direction)
                        if dedup in emitted:
                            continue
                        emitted.add(dedup)
                        lines = spec.emit(meta, lt.direction)  # lines 6-9
                        if lines:
                            plan[key][site].append((spec.name, lines))
        return plan

    def dispatch_index(self) -> DispatchIndex:
        """The (function, direction) -> machines index of Algorithm 1.

        The same cross product :meth:`plan` computes, but keyed for
        event dispatch instead of code emission: the interpretive engine
        (and any event-driven backend) uses it so each boundary crossing
        reaches only the machines whose language transitions match.
        """
        return DispatchIndex.build(self.registry, self.function_table)

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------

    def generate_source(
        self,
        *,
        checking: bool = True,
        record: bool = False,
        govern: bool = False,
        telemetry: bool = False,
    ) -> str:
        """The generated wrapper module: one flat wrapper per FFI function.

        Each ``wrapped_<fn>`` holds the machine checks that apply to the
        function with their containment arms, around the raw call.  With
        ``checking=False`` the wrappers contain no instrumentation —
        pure interposition, the "Interposing" configuration of Table 3
        that isolates framework overhead from analysis cost.

        The other stage flags fuse more of the call path into the same
        wrapper body: the telemetry tap's span hooks, the trace
        recorder's call/return hooks, and the overhead governor's
        counters and sampling branch.  Stage order, outermost first, is
        telemetry, recorder, governor, checks; a governor-sampled-out
        call skips the checks but is still recorded.  The telemetry
        hooks only observe: they never branch the wrapper's control
        flow.
        """
        plan = self.machine_plan() if checking else None
        stages = [s for s, on in (
            ("telemetry", telemetry), ("record", record), ("govern", govern),
            ("check", checking), ("contain", checking),
        ) if on]
        out: List[str] = [
            '"""Code generated by the Jinn synthesizer (Algorithm 1).',
            "",
            "Machines: {}.".format(", ".join(self.registry.names())),
            "Stages: {}.".format(", ".join(stages) or "interpose only"),
            "DO NOT EDIT: regenerate from the state machine specifications.",
            '"""',
            "",
            "from repro.fsm.errors import FFIViolation",
            "",
            "",
            "def build_wrappers(rt, raw, recorder=None, governor=None,"
            " telemetry=None):",
            '    """Bind generated wrappers to a runtime, a raw table, and stages.',
            "",
            "    Returns (wrappers, make_native_wrapper).",
            '    """',
        ]
        if govern:
            out.append(
                "    gov_clock, gov_tick, gov_window, gov_rebalance"
                " = governor.fused_shared()"
            )
        if telemetry:
            out.append(
                "    (tel_clock, tel_vc, tel_vs, tel_ring, tel_cap, tel_sc,"
                " tel_mask) = telemetry.fused_shared()"
            )
            out.append("    tel_smp = 1 & tel_mask")
        out.append("    wrappers = {}")
        for name, meta in self.function_table.items():
            pre = plan[name][Site.PRE] if plan else []
            post = plan[name][Site.POST] if plan else []
            out.extend(
                self._emit_wrapper(
                    name, meta, pre, post, record, govern, telemetry
                )
            )
        native_pre = plan[NATIVE_KEY][Site.PRE] if plan else []
        native_post = plan[NATIVE_KEY][Site.POST] if plan else []
        out.extend(
            self._emit_native_factory(
                native_pre, native_post, record, govern, telemetry
            )
        )
        out.append("    return wrappers, make_native_wrapper")
        out.append("")
        return "\n".join(out)

    @staticmethod
    def _emit_contained_groups(
        groups: List[tuple], indent: str, function_expr: str, site: str
    ) -> List[str]:
        """One containment arm per contributing machine.

        A check raising ``FFIViolation`` is a *detected* bug and
        propagates to the wrapper's failure policy; anything else is an
        *internal* checker fault and is routed to ``rt.contain`` so the
        degradation ladder quarantines only the offending machine while
        the remaining machines (and the host workload) keep running.
        """
        lines: List[str] = []
        for machine, checks in groups:
            lines.append(indent + "try:")
            lines.extend(indent + "    " + check for check in checks)
            lines.append(indent + "except FFIViolation:")
            lines.append(indent + "    raise")
            lines.append(indent + "except Exception as exc:")
            lines.append(
                indent
                + "    rt.contain({!r}, exc, {}, {!r})".format(
                    machine, function_expr, site
                )
            )
        return lines

    @staticmethod
    def _tel_prologue_lines(suffix: str) -> List[str]:
        """Count the call; open duration capture on sampled crossings."""
        return [
            "tel_n = tel_c{}[0] + 1".format(suffix),
            "tel_c{}[0] = tel_n".format(suffix),
            "tel_do = tel_n & tel_mask == tel_smp",
            "if tel_do:",
            "    tel_t0 = tel_clock()",
            "    tel_mark = tel_vc[0]",
        ]

    @staticmethod
    def _tel_epilogue_lines(suffix: str, label: str, native: str) -> List[str]:
        """Close a sampled checked crossing: histogram + span write."""
        return [
            "if tel_do:",
            "    tel_now = tel_clock()",
            "    tel_el = tel_now - tel_t0",
            "    tel_h{}[0] += 1".format(suffix),
            "    tel_h{}[1] += tel_el".format(suffix),
            "    tel_i = tel_el.bit_length()",
            "    tel_b{0}[tel_i if tel_i < tel_bc{0} else tel_bc{0}]"
            " += 1".format(suffix),
            "    tel_seq = tel_sc[0]",
            "    tel_ring[tel_seq % tel_cap] = (tel_seq, {}, {}, tel_t0, "
            "tel_now, tel_m{}, tel_vs(tel_mark) if tel_vc[0] != tel_mark "
            "else ())".format(label, native, suffix),
            "    tel_sc[0] = tel_seq + 1",
        ]

    def _emit_wrapper(
        self,
        name: str,
        meta: functions.FunctionMeta,
        pre: List[tuple],
        post: List[tuple],
        record: bool,
        govern: bool,
        telemetry: bool,
    ) -> List[str]:
        default = default_literal(meta.returns)
        lines = ["", "    raw_{} = raw[{!r}]".format(name, name)]
        if telemetry:
            lines.append(
                "    tel_c_{0}, tel_h_{0}, tel_b_{0}, tel_s_{0}, tel_m_{0}"
                " = telemetry.fused_site({1!r}, False)".format(name, name)
            )
            lines.append(
                "    tel_bc_{0} = len(tel_b_{0}) - 1".format(name)
            )
        if record:
            lines.append(
                "    rc_{} = recorder.call_hook({!r}, False)".format(name, name)
            )
            lines.append(
                "    rr_{} = recorder.return_hook({!r}, False)".format(name, name)
            )
        if govern:
            lines.append(
                "    st_{} = governor.fused_binding({!r})".format(name, name)
            )
        lines.append("    def wrapped_{}(env, *args):".format(name))
        body = "        "
        if telemetry:
            lines.extend(
                body + step for step in self._tel_prologue_lines("_" + name)
            )
        if record:
            lines.append(body + "callseq = rc_{}(env, args)".format(name))
        if govern:
            lines.extend([
                body + "st_{}.total_calls += 1".format(name),
                body + "st_{}.window_calls += 1".format(name),
                body + "gov_tick[0] += 1",
                body + "if gov_tick[0] >= gov_window:",
                body + "    gov_rebalance()",
                body + "if st_{}.period > 1:".format(name),
                body + "    st_{}.slot += 1".format(name),
                body + "    if st_{0}.slot % st_{0}.period:".format(name),
                body + "        st_{}.total_sampled_out += 1".format(name),
                body + "        t0 = gov_clock()",
                body + "        result = raw_{}(env, *args)".format(name),
                body + "        st_{}.raw_ns += gov_clock() - t0".format(name),
                body + "        st_{}.raw_calls += 1".format(name),
            ])
            if record:
                lines.append(
                    body + "        rr_{}(env, args, result, callseq)".format(name)
                )
            if telemetry:
                # Sampled-out: count it, never a span or a clock read.
                lines.append(body + "        tel_s_{}[0] += 1".format(name))
            lines.append(body + "        return result")
            lines.append(body + "t0 = gov_clock()")
        epilogue: List[str] = []
        if govern:
            epilogue.append("st_{}.checked_ns += gov_clock() - t0".format(name))
            epilogue.append("st_{}.checked_calls += 1".format(name))
        if record:
            epilogue.append("rr_{}(env, args, result, callseq)".format(name))
        if telemetry:
            epilogue.extend(
                self._tel_epilogue_lines("_" + name, repr(name), "False")
            )
        if pre:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(pre, body + "    ", repr(name), "pre")
            )
            lines.append(body + "except FFIViolation as v:")
            if epilogue:
                # The failure policy decides whether the epilogue runs:
                # JNI pends the exception and returns the default (so
                # the governor meters and the recorder logs the return);
                # pyc raises, leaving an unmatched call record and no
                # checked-time sample.
                lines.append(
                    body + "    result = rt.fail(env, v, {})".format(default)
                )
                lines.extend(body + "    " + step for step in epilogue)
                lines.append(body + "    return result")
            else:
                lines.append(
                    body + "    return rt.fail(env, v, {})".format(default)
                )
        lines.append(body + "result = raw_{}(env, *args)".format(name))
        if post:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(post, body + "    ", repr(name), "post")
            )
            lines.append(body + "except FFIViolation as v:")
            lines.append(body + "    rt.fail(env, v)")
        lines.extend(body + step for step in epilogue)
        lines.append(body + "return result")
        lines.append("    wrappers[{!r}] = wrapped_{}".format(name, name))
        return lines

    def _emit_native_factory(
        self,
        pre: List[tuple],
        post: List[tuple],
        record: bool,
        govern: bool,
        telemetry: bool,
    ) -> List[str]:
        lines = [
            "",
            "    def make_native_wrapper(method_name, impl):",
            '        """Wrapper factory applied at NativeMethodBind time."""',
        ]
        if telemetry:
            lines.append(
                "        tel_c, tel_h, tel_b, tel_s, tel_m"
                " = telemetry.fused_site(method_name, True)"
            )
            lines.append("        tel_bc = len(tel_b) - 1")
        if record:
            lines.append("        rc = recorder.call_hook(method_name, True)")
            lines.append("        rr = recorder.return_hook(method_name, True)")
        if govern:
            lines.append(
                "        st = governor.fused_binding('native:' + method_name)"
            )
        lines.append("        def wrapped_native(env, this, *args):")
        body = "            "
        if telemetry:
            lines.extend(
                body + step for step in self._tel_prologue_lines("")
            )
        lines.append(body + "handles = (this,) + args")
        if record:
            lines.append(body + "callseq = rc(env, handles)")
        if govern:
            lines.extend([
                body + "st.total_calls += 1",
                body + "st.window_calls += 1",
                body + "gov_tick[0] += 1",
                body + "if gov_tick[0] >= gov_window:",
                body + "    gov_rebalance()",
                body + "if st.period > 1:",
                body + "    st.slot += 1",
                body + "    if st.slot % st.period:",
                body + "        st.total_sampled_out += 1",
                body + "        t0 = gov_clock()",
                body + "        result = impl(env, this, *args)",
                body + "        st.raw_ns += gov_clock() - t0",
                body + "        st.raw_calls += 1",
            ])
            if record:
                lines.append(
                    body + "        rr(env, handles, result, callseq)"
                )
            if telemetry:
                lines.append(body + "        tel_s[0] += 1")
            lines.append(body + "        return result")
            lines.append(body + "t0 = gov_clock()")
        epilogue: List[str] = []
        if govern:
            epilogue.append("st.checked_ns += gov_clock() - t0")
            epilogue.append("st.checked_calls += 1")
        if record:
            epilogue.append("rr(env, handles, result, callseq)")
        if telemetry:
            epilogue.extend(
                self._tel_epilogue_lines("", "method_name", "True")
            )
        if pre:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(
                    pre, body + "    ", "method_name", "pre"
                )
            )
            lines.append(body + "except FFIViolation as v:")
            # No early return: a native pre-violation pends (JNI) and
            # the implementation still runs, or raises out (pyc).
            lines.append(body + "    rt.fail(env, v)")
        lines.append(body + "result = impl(env, this, *args)")
        if post:
            lines.append(body + "try:")
            lines.extend(
                self._emit_contained_groups(
                    post, body + "    ", "method_name", "post"
                )
            )
            lines.append(body + "except FFIViolation as v:")
            lines.append(body + "    rt.fail(env, v)")
        lines.extend(body + step for step in epilogue)
        lines.append(body + "return result")
        lines.append("        return wrapped_native")
        return lines

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def build(self, **flags):
        """Compile the generated module; returns its ``build_wrappers``.

        ``flags`` are the stage flags of :meth:`generate_source`.
        """
        return bind_wrappers(compile_source(self.generate_source(**flags)))

    def write_source(self, path: str, *, checking: bool = True) -> int:
        """Write the generated module to ``path``; returns its line count."""
        source = self.generate_source(checking=checking)
        with open(path, "w") as f:
            f.write(source)
        return source.count("\n") + 1


#: The co_filename every generated module compiles under — cached and
#: fresh modules must match so diagnostics and tracebacks are
#: byte-identical.
GENERATED_FILENAME = "<jinn-generated>"


def compile_source(source: str):
    """Compile generated source to a (marshalable) code object."""
    return compile(source, GENERATED_FILENAME, "exec")


def bind_wrappers(code):
    """Exec a compiled module and return its ``build_wrappers``.

    This is the warm-start half of :meth:`Synthesizer.build`: the disk
    cache hands back the code object and skips the generate + compile
    cost entirely.
    """
    namespace: Dict[str, object] = {"__name__": "repro.jinn._generated"}
    exec(code, namespace)
    return namespace["build_wrappers"]


def count_noncomment_lines(source: str) -> int:
    """Non-blank, non-comment physical lines (the paper's LoC metric)."""
    count = 0
    in_docstring = False
    for raw_line in source.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if in_docstring:
            if line.endswith('"""') or line.endswith("'''"):
                in_docstring = False
            continue
        if line.startswith(('"""', "'''")):
            quote = line[:3]
            if not (len(line) > 3 and line.endswith(quote)):
                in_docstring = True
            continue
        if line.startswith("#"):
            continue
        count += 1
    return count
