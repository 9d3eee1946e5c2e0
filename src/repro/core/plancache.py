"""The cross-process compiled-plan cache.

Synthesizing a fused pipeline is deterministic but not cheap: the
Algorithm-1 cross product emits a ~14k-line module and compiling it
dominates checker startup (~200ms on this class of machine, vs ~1ms to
``marshal.loads`` the compiled code object back).  A fleet worker pays
that cost per process, a CLI invocation per run — for the *same*
specification every time.

:class:`PlanDiskCache` persists the compiled plan per specification so
every process after the first warm-starts:

- **Key** (:func:`plan_digest`): the registry fingerprint (every
  spec's transitions, mappings, and emit-plan identity), the function
  table's full metadata, the stage flags (checking/record/govern/
  telemetry), the interpreter's ``cache_tag`` (compiled code is
  bytecode-version specific), and a *generator salt* hashing the
  source files behind the synthesis — the synthesizer module, the
  return-kind defaults, the function selectors and every spec class's
  defining file — so editing emit logic can never revive a stale plan.
- **Value**: one file ``<digest>.plan`` holding a JSON header line, a
  base64 ``marshal`` blob of the compiled code object, and the
  generated source appended for human inspection.  Writes are
  write-temp + ``os.replace``, so concurrent workers race benignly
  (identical content, last rename wins) and a crash never leaves a
  half-written entry under the final name.
- **Failure policy**: every storage or decode problem degrades to a
  cache miss (counted in ``errors``) — the disk cache can only ever
  cost a re-synthesis, never correctness.

The cache is wired up through :class:`repro.core.cache.WrapperCache`;
the process-wide instance enables it from the environment
(:func:`default_disk_cache`): ``REPRO_PLAN_CACHE`` names the directory,
``REPRO_PLAN_CACHE=off`` (or ``0``/``none``) disables it, unset uses
``$XDG_CACHE_HOME/repro/plans`` (``~/.cache/repro/plans``).  Fleet
worker processes inherit the environment, so a whole fleet pays one
cold synthesis instead of one per worker.
"""

from __future__ import annotations

import base64
import hashlib
import inspect
import json
import marshal
import os
import sys
import tempfile
from typing import Dict, Optional

_SCHEMA = 1

#: Per-path content digests, memoized for the process lifetime — the
#: generator salt re-hashes the same handful of source files for every
#: digest computation otherwise.
_FILE_DIGESTS: Dict[str, str] = {}


def _digest_file(path: str) -> str:
    cached = _FILE_DIGESTS.get(path)
    if cached is None:
        try:
            with open(path, "rb") as f:
                cached = hashlib.sha256(f.read()).hexdigest()
        except OSError:
            cached = "<unreadable>"
        _FILE_DIGESTS[path] = cached
    return cached


def _source_file(obj) -> Optional[str]:
    try:
        return inspect.getsourcefile(obj)
    except TypeError:
        return None


def plan_digest(registry, function_table, flags: Dict[str, bool]) -> str:
    """The on-disk cache key for one fused-pipeline specification."""
    hasher = hashlib.sha256()
    hasher.update("repro-plan-v{}\n".format(_SCHEMA).encode("utf-8"))
    hasher.update(sys.implementation.cache_tag.encode("utf-8") + b"\n")
    hasher.update(registry.fingerprint().encode("utf-8") + b"\n")
    if function_table is None:
        hasher.update(b"<jni>\n")
    else:
        for name in function_table:
            hasher.update(
                "{}={!r}\n".format(name, function_table[name]).encode("utf-8")
            )
    for flag in sorted(flags):
        hasher.update("{}={}\n".format(flag, bool(flags[flag])).encode("utf-8"))
    # The generator salt: the files whose code *produces* the plan.
    # The fingerprint names spec classes but does not hash their emit
    # bodies — a stale plan surviving an emit-logic edit would be a
    # silent wrong-checker bug, so hash the defining sources too: the
    # synthesizer, the return-kind defaults it bakes into every
    # ``rt.fail`` literal, and the function selectors (the native-method
    # wildcard, the shared JNI ones) that decide which wrapper gets
    # which checks.
    from repro.core import defaults as defaults_module
    from repro.fsm import machine as fsm_machine_module
    from repro.jinn import synthesizer as synthesizer_module
    from repro.jinn.machines import common as selectors_module

    salt_files = {
        _source_file(module)
        for module in (
            synthesizer_module,
            defaults_module,
            fsm_machine_module,
            selectors_module,
        )
    }
    for spec in registry:
        salt_files.add(_source_file(type(spec)))
    if function_table is None:
        from repro.jni import functions as functions_module

        salt_files.add(_source_file(functions_module))
    for path in sorted(path for path in salt_files if path):
        hasher.update(os.path.basename(path).encode("utf-8") + b"\n")
        hasher.update(_digest_file(path).encode("utf-8") + b"\n")
    return hasher.hexdigest()


class PlanDiskCache:
    """Compiled fused-pipeline plans persisted across processes."""

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest + ".plan")

    def load(self, digest: str):
        """The cached compiled code object, or None on any miss."""
        path = self._path(digest)
        try:
            with open(path, "rb") as f:
                header = json.loads(f.readline().decode("utf-8"))
                blob = f.readline().strip()
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.errors += 1
            self._drop(path)
            return None
        if (
            not isinstance(header, dict)
            or header.get("schema") != _SCHEMA
            or header.get("cache_tag") != sys.implementation.cache_tag
            or header.get("digest") != digest
        ):
            self.misses += 1
            self._drop(path)
            return None
        try:
            code = marshal.loads(base64.b64decode(blob))
        except Exception:
            self.errors += 1
            self._drop(path)
            return None
        self.hits += 1
        return code

    def store(self, digest: str, source: str, code) -> None:
        """Persist a freshly compiled plan; failures degrade silently."""
        try:
            os.makedirs(self.root, exist_ok=True)
            header = {
                "schema": _SCHEMA,
                "cache_tag": sys.implementation.cache_tag,
                "digest": digest,
            }
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".plan-")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(
                        json.dumps(header, sort_keys=True).encode("utf-8")
                    )
                    f.write(b"\n")
                    f.write(base64.b64encode(marshal.dumps(code)))
                    f.write(b"\n# ---- generated source ----\n")
                    f.write(source.encode("utf-8"))
                os.replace(tmp, self._path(digest))
            except BaseException:
                self._drop(tmp)
                raise
        except Exception:
            self.errors += 1
            return
        self.writes += 1

    @staticmethod
    def _drop(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
        }


def default_disk_cache() -> Optional[PlanDiskCache]:
    """The environment-configured cache for the process-wide instance."""
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env is not None and env.strip().lower() in (
        "", "0", "off", "none", "disabled",
    ):
        return None
    if env:
        root = env
    else:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = os.path.join(base, "repro", "plans")
    return PlanDiskCache(root)
