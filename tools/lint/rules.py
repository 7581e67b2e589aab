"""The repro-lint rule catalog.

Ten project-specific rules guarding the invariants the plan-cache era
rests on (see ``docs/LINT.md`` for the full catalog with examples):

=========  ====================  =============================================
RL001      cache-key             tuple-keyed cache stores must key every input read
RL002      mutable-plan          arrays stored in plans/caches must be frozen
RL003      random                no module-level ``np.random.*`` / bare ``random.*``
RL004      named-valueerror      ``ValueError`` messages must name the parameter
RL005      broad-except          broad ``except`` must re-record, never swallow
RL006      hot-loop              per-fab/per-rank Python loops in hot modules
RL007      worker-capture        pool workers must not capture shared-mutable state
RL008      api-docstring         ``__init__.py`` exports need docstrings
RL009      retryable-outcome     campaign/service excepts must yield an outcome
RL010      bounded-service-wait  service I/O loops must consult deadline/breaker
=========  ====================  =============================================

Every rule is syntactic and intentionally *narrow*: it matches the
idioms this codebase actually uses (``LRUCache.put``, ``ba.memo[key]``
stores into a layout's own memo, ``setflags(write=False)`` freezing)
rather than attempting whole-program dataflow.  What the static shapes cannot see —
aliasing through composite plan objects — is the runtime sanitizer's job
(``repro.sanitize``, enabled with ``REPRO_SANITIZE=1``).
"""

from __future__ import annotations

import ast
import builtins
import os
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .framework import (
    Finding,
    ParsedModule,
    Rule,
    dotted_name,
    module_level_names,
    walk_functions,
)

__all__ = ["ALL_RULES"]

# Names that mark a container as a cache in this codebase.
_CACHEY_RE = re.compile(r"cache|plan|memo|lru|key|prediction", re.I)

# numpy constructors / methods that produce a fresh array worth freezing.
_NP_ARRAY_CTORS = {
    "empty", "zeros", "ones", "full", "arange", "array", "asarray",
    "ascontiguousarray", "copy", "concatenate", "stack", "vstack",
    "hstack", "frombuffer", "fromiter", "cumsum", "linspace", "append",
}
_ARRAY_METHODS = {"astype", "copy"}
# Wrappers that freeze their argument (repro.sanitize.frozen and friends).
_FREEZE_WRAPPERS = {"frozen", "freeze", "_frozen", "_readonly", "freeze_array"}

_BUILTIN_NAMES = set(dir(builtins))


def _np_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the numpy module (``np``, ``numpy``)."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    out.add(alias.asname or "numpy")
    return out


def _fn_params(fn: ast.AST) -> Set[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def _cache_stores(fn: ast.AST) -> List[Tuple[ast.AST, str, ast.AST, ast.AST]]:
    """``(site, container, key_expr, value_expr)`` of cache insertions in
    ``fn``: ``<cachey>[key] = value`` subscript stores and
    ``<cachey>.put(key, value)`` calls, where the dotted container name
    matches :data:`_CACHEY_RE`."""
    out: List[Tuple[ast.AST, str, ast.AST, ast.AST]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Subscript):
                    container = dotted_name(tgt.value)
                    if container and _CACHEY_RE.search(container):
                        out.append((node, container, tgt.slice, node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "put"
            and len(node.args) >= 2
        ):
            container = dotted_name(node.func.value)
            if container and _CACHEY_RE.search(container):
                out.append((node, container, node.args[0], node.args[1]))
    return out


# ----------------------------------------------------------------------
class CacheKeyCompleteness(Rule):
    """RL001: a function that stores into a tuple-keyed cache must not
    read ``self``/parameter attributes, or bare parameters, absent from
    that key tuple.

    This is the invariant behind every plan cache in the tree: the
    level plan stored as ``ba.memo[(dm.ranks, nvars)]`` in its own
    layout's memo, the service's ``PlatformPlan`` keyed by
    ``(machine, nprocs)``.  An input the function reads but does not
    key means two different inputs can hit the same cache slot — silent
    wrong answers, not a crash.  A bare parameter passes when it owns
    the cache (``ba`` of ``ba.memo``, and ``self``), appears in the key
    expression, is only called, or has a keyed attribute (``dm`` when
    ``dm.ranks`` is keyed).
    """

    id = "RL001"
    slug = "cache-key"
    title = "cache key must cover every input read"

    def applies(self, relpath: str) -> bool:
        return not relpath.startswith("tests/")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for fn, _ in walk_functions(module.tree):
            yield from self._check_fn(module, fn)

    def _check_fn(self, module: ParsedModule, fn: ast.AST) -> Iterator[Finding]:
        # Resolve local ``key = (a, b)`` bindings so both literal-tuple
        # and named-tuple-variable keys are understood.
        tuple_locals: Dict[str, ast.Tuple] = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Tuple)
            ):
                tuple_locals[node.targets[0].id] = node.value

        key_names: Set[str] = set()
        owners = {"self"}
        n_tuple_stores = 0
        for _site, container, key, _value in _cache_stores(fn):
            kt: Optional[ast.Tuple] = None
            if isinstance(key, ast.Tuple):
                kt = key
            elif isinstance(key, ast.Name):
                kt = tuple_locals.get(key.id)
            if kt is None:
                continue
            n_tuple_stores += 1
            owners.add(container.partition(".")[0])
            for el in kt.elts:
                for sub in ast.walk(el):
                    dn = dotted_name(sub)
                    if dn is not None:
                        key_names.add(dn)
        if not n_tuple_stores:
            return

        params = _fn_params(fn)
        callee_ids = {
            id(node.func)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
        }
        attr_bases = {
            id(node.value) for node in ast.walk(fn) if isinstance(node, ast.Attribute)
        }
        seen: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                # a bare parameter: passed on whole, so it must be keyed
                if (
                    not isinstance(node.ctx, ast.Load)
                    or id(node) in callee_ids
                    or id(node) in attr_bases  # an attribute read, checked below
                    or node.id not in params
                    or node.id in owners
                ):
                    continue
                dn = rest = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) in callee_ids:
                    continue  # the method *name*; its receiver chain is still checked
                dn = dotted_name(node)
                if dn is None:
                    continue
                base, _, rest = dn.partition(".")
                if base not in params:
                    continue
            else:
                continue
            if dn in seen:
                continue
            if any(
                dn == k or k.startswith(dn + ".") or dn.startswith(k + ".")
                for k in key_names
            ):
                continue
            if _CACHEY_RE.search(rest):
                continue  # the cache slot / key bookkeeping itself
            seen.add(dn)
            yield self.finding(
                module,
                node,
                f"`{dn}` is read here but absent from the cache key tuple "
                f"({{{', '.join(sorted(key_names))}}}); key it or annotate "
                f"`# lint: allow-cache-key(reason)`",
            )


# ----------------------------------------------------------------------
class CachedBufferImmutability(Rule):
    """RL002: ndarrays stored into a cache, or onto a ``*Plan`` class,
    must be frozen with ``setflags(write=False)`` (or a freeze wrapper).

    Cached plans are replayed many times; a caller that mutates a cached
    buffer through an alias corrupts every later replay.  The
    ``BoxArray.corners()`` / ``IOTrace.columns()`` idiom — freeze at the
    cache boundary — makes that a loud ``ValueError`` instead.
    """

    id = "RL002"
    slug = "mutable-plan"
    title = "cached arrays must be read-only"

    def applies(self, relpath: str) -> bool:
        return not relpath.startswith("tests/")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        np_names = _np_aliases(module.tree) or {"np", "numpy"}
        for fn, _ in walk_functions(module.tree):
            yield from self._check_fn(module, fn, np_names)
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and "Plan" in node.name:
                yield from self._check_plan_class(module, node, np_names)

    # -- helpers -------------------------------------------------------
    def _is_array_expr(self, node: ast.AST, np_names: Set[str]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dn = dotted_name(node.func)
        if dn is None:
            return False
        parts = dn.split(".")
        if len(parts) >= 2 and parts[0] in np_names and parts[-1] in _NP_ARRAY_CTORS:
            return True
        return parts[-1] in _ARRAY_METHODS

    def _is_frozen_expr(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dn = dotted_name(node.func)
        return dn is not None and dn.split(".")[-1] in _FREEZE_WRAPPERS

    def _frozen_targets(self, scope: ast.AST) -> Set[str]:
        """Dotted names ``X`` with an ``X.setflags(write=False)`` call."""
        out: Set[str] = set()
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
            ):
                dn = dotted_name(node.func.value)
                if dn is not None:
                    out.add(dn)
        return out

    def _array_locals(self, scope: ast.AST, np_names: Set[str]) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_array_expr(node.value, np_names)
            ):
                out.add(node.targets[0].id)
        return out

    def _check_fn(self, module: ParsedModule, fn: ast.AST,
                  np_names: Set[str]) -> Iterator[Finding]:
        stores = _cache_stores(fn)
        if not stores:
            return
        frozen = self._frozen_targets(fn)
        array_locals = self._array_locals(fn, np_names)
        for site, _container, _key, value in stores:
            if self._is_frozen_expr(value):
                continue
            bad = self._is_array_expr(value, np_names) or (
                isinstance(value, ast.Name)
                and value.id in array_locals
                and value.id not in frozen
            )
            if bad:
                yield self.finding(
                    module,
                    site,
                    "ndarray stored into a cache without setflags(write=False); "
                    "freeze it or annotate `# lint: allow-mutable-plan(reason)`",
                )

    def _check_plan_class(self, module: ParsedModule, cls: ast.ClassDef,
                          np_names: Set[str]) -> Iterator[Finding]:
        frozen = self._frozen_targets(cls)
        for fn, _ in walk_functions(cls):
            array_locals = self._array_locals(fn, np_names)
            for node in ast.walk(fn):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                ):
                    continue
                target = dotted_name(node.targets[0])
                if target is None or not target.startswith("self."):
                    continue
                if self._is_frozen_expr(node.value):
                    continue
                bad = self._is_array_expr(node.value, np_names) or (
                    isinstance(node.value, ast.Name)
                    and node.value.id in array_locals
                    and node.value.id not in frozen
                )
                if bad and target not in frozen:
                    yield self.finding(
                        module,
                        node,
                        f"plan attribute `{target}` holds a mutable ndarray; "
                        f"cached plans must freeze their arrays "
                        f"(setflags(write=False) or the `_frozen` helper)",
                    )


# ----------------------------------------------------------------------
class NoUnseededRandomness(Rule):
    """RL003: randomness must flow through seeded generators.

    Module-level ``np.random.*`` calls and the stdlib ``random`` module
    share hidden global state — they break the bit-identical equivalence
    suites and the rank-indexed noise protocol
    (``StorageModel._burst_noise``).  Only ``np.random.default_rng`` and
    the explicit generator/seeding classes are allowed.
    """

    id = "RL003"
    slug = "random"
    title = "no unseeded global randomness"

    _ALLOWED = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
                "BitGenerator"}

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        np_names = _np_aliases(module.tree)
        nprand_names: Set[str] = set()
        stdrand_names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        stdrand_names.add(alias.asname or "random")
                    elif alias.name == "numpy.random":
                        nprand_names.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy" and node.level == 0:
                    for alias in node.names:
                        if alias.name == "random":
                            nprand_names.add(alias.asname or "random")
                elif node.module == "numpy.random" and node.level == 0:
                    for alias in node.names:
                        if alias.name not in self._ALLOWED:
                            yield self.finding(
                                module, node,
                                f"import of numpy.random.{alias.name}: use "
                                f"np.random.default_rng(seed) generators",
                            )
                elif node.module == "random" and node.level == 0:
                    yield self.finding(
                        module, node,
                        "import from stdlib `random`: use "
                        "np.random.default_rng(seed) generators",
                    )
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            dn = dotted_name(node) if isinstance(node, ast.Attribute) else None
            if dn is None:
                continue
            parts = dn.split(".")
            bad = None
            if (
                len(parts) >= 3
                and parts[0] in np_names
                and parts[1] == "random"
                and parts[2] not in self._ALLOWED
            ):
                bad = ".".join(parts[:3])
            elif (
                len(parts) >= 2
                and parts[0] in nprand_names
                and parts[1] not in self._ALLOWED
                and parts[0] not in np_names
            ):
                bad = ".".join(parts[:2])
            elif len(parts) >= 2 and parts[0] in stdrand_names:
                bad = ".".join(parts[:2])
            if bad is None:
                continue
            loc = (node.lineno, node.col_offset)
            if loc in seen:
                continue
            seen.add(loc)
            yield self.finding(
                module, node,
                f"`{bad}` uses hidden global RNG state; use a seeded "
                f"np.random.default_rng(seed) (rank-indexed where per-rank)",
            )


# ----------------------------------------------------------------------
class NamedValueError(Rule):
    """RL004: ``raise ValueError`` in ``src/repro`` must carry a message
    that names the offending parameter (or interpolate it).

    The campaign/service layers surface these messages verbatim in
    per-case/per-request failure records; a message that names nothing
    is undebuggable three layers up.
    """

    id = "RL004"
    slug = "named-valueerror"
    title = "ValueError messages must name the offending parameter"

    _WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        class_of = self._owning_classes(module.tree)
        for fn, _ in walk_functions(module.tree):
            idents = self._identifiers(fn)
            idents.add(fn.name)
            if class_of.get(fn) is not None:
                idents.add(class_of[fn])
            for node in ast.walk(fn):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    yield self.finding(
                        module, node,
                        "bare `raise ValueError` without a message; name the "
                        "offending parameter",
                    )
                    continue
                if not (
                    isinstance(exc, ast.Call)
                    and isinstance(exc.func, ast.Name)
                    and exc.func.id == "ValueError"
                ):
                    continue
                if not exc.args:
                    yield self.finding(
                        module, node,
                        "`ValueError()` raised without a message; name the "
                        "offending parameter",
                    )
                    continue
                msg = exc.args[0]
                if not (isinstance(msg, ast.Constant) and isinstance(msg.value, str)):
                    continue  # f-strings / formatted messages interpolate names
                words = set(self._WORD_RE.findall(msg.value))
                expanded = words | {w + "s" for w in words} | {
                    w[:-1] for w in words if w.endswith("s")
                }
                if expanded & idents:
                    continue
                yield self.finding(
                    module, node,
                    f"ValueError message {msg.value!r} names no parameter or "
                    f"local of the enclosing function",
                )

    def _identifiers(self, fn: ast.AST) -> Set[str]:
        out = _fn_params(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg is not None:
                        out.add(kw.arg)
        return out

    def _owning_classes(self, tree: ast.Module) -> Dict[ast.AST, Optional[str]]:
        """Map every def to the name of its nearest enclosing class."""
        out: Dict[ast.AST, Optional[str]] = {}

        def visit(node: ast.AST, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                else:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out[child] = cls
                    visit(child, cls)

        visit(tree, None)
        return out


# ----------------------------------------------------------------------
class BroadExceptRecord(Rule):
    """RL005: a broad ``except`` must re-record the failure — capture it
    into a result/response object, log the traceback, or re-raise.
    ``except Exception: pass`` silently converts bugs into wrong data.
    (``except Exception`` already lets ``KeyboardInterrupt``/``SystemExit``
    propagate; catching ``BaseException`` without re-raising is flagged.)
    """

    id = "RL005"
    slug = "broad-except"
    title = "broad except must re-record, never swallow"

    _RECORDING_CALLS = re.compile(
        r"format_exc|print_exc|exc_info|exception|warn|capture|_capture|log"
    )

    def applies(self, relpath: str) -> bool:
        return not relpath.startswith("tests/")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            t = node.type
            broad = t is None or (
                isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
            )
            if not broad:
                continue
            label = "bare `except:`" if t is None else f"`except {t.id}:`"
            if self._body_is_noop(node.body):
                yield self.finding(
                    module, node,
                    f"{label} swallows the failure; capture it into a "
                    f"result/record (traceback.format_exc()) or re-raise",
                )
                continue
            if node.name is not None:
                if not self._name_used(node.body, node.name):
                    yield self.finding(
                        module, node,
                        f"{label} binds `{node.name}` but never records it",
                    )
                continue
            if not self._records(node.body):
                yield self.finding(
                    module, node,
                    f"{label} neither re-raises nor records the traceback; "
                    f"bind the exception or call traceback.format_exc()",
                )

    def _body_is_noop(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            return False
        return True

    def _name_used(self, body: List[ast.stmt], name: str) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id == name:
                    return True
        return False

    def _records(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    dn = dotted_name(node.func)
                    if dn and self._RECORDING_CALLS.search(dn):
                        return True
        return False


# ----------------------------------------------------------------------
class HotLoopSmell(Rule):
    """RL006: per-fab / per-rank Python ``for`` loops in the measured hot
    modules.  PR 2-4 vectorized these paths; a new loop over fabs or
    ranks there is either a regression or needs a reasoned
    ``# lint: allow-loop(reason)`` (e.g. init-path, measured-faster).
    """

    id = "RL006"
    slug = "loop"
    title = "per-fab/per-rank loop in a hot module"

    _HOT = ("src/repro/hydro/", "src/repro/iosim/storage.py")
    _FAB_NAMES = {"mf", "mfs", "fabs", "multifab"}
    _RANK_NAMES = {"nprocs", "ranks", "nranks"}

    def applies(self, relpath: str) -> bool:
        return any(
            relpath == h or relpath.startswith(h) for h in self._HOT
        ) and not relpath.endswith("__init__.py")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.For):
                continue
            what = self._loop_kind(node.iter)
            if what is None:
                continue
            yield self.finding(
                module, node,
                f"Python for-loop over {what} in a hot module; batch it "
                f"(stack fabs / vectorize over ranks) or annotate "
                f"`# lint: allow-loop(reason)`",
            )

    def _loop_kind(self, iter_expr: ast.AST) -> Optional[str]:
        for node in ast.walk(iter_expr):
            if isinstance(node, ast.Name):
                if node.id in self._FAB_NAMES:
                    return f"fabs (`{node.id}`)"
                if node.id in self._RANK_NAMES:
                    return f"ranks (`{node.id}`)"
            elif isinstance(node, ast.Attribute) and node.attr in ("fabs", "ranks"):
                return f"`.{node.attr}`"
        return None


# ----------------------------------------------------------------------
class WorkerClosureCapture(Rule):
    """RL007: callables shipped to multiprocessing workers must be
    module-level and must not capture shared-mutable state.

    A lambda or closure submitted to a pool either fails to pickle
    (spawn) or silently forks a *copy* of captured state (fork) — worker
    writes to an ``IOTrace``/``ResultStore``/filesystem handle never
    reach the parent.  Ship plain data and reconstruct in the worker
    (the ``_init_worker`` idiom in ``campaign/executor.py``).
    """

    id = "RL007"
    slug = "worker-capture"
    title = "pool workers must not capture shared-mutable state"

    _POOL_METHODS = {"submit", "map", "imap", "imap_unordered", "starmap",
                     "apply_async", "map_async"}
    _POOL_NAME_RE = re.compile(r"pool|executor", re.I)
    _SHARED_RE = re.compile(r"(^|_)(trace|store|fs|fh|handle)$", re.I)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        top = module_level_names(module.tree)
        nested: Dict[str, ast.AST] = {}
        for fn, enclosing in walk_functions(module.tree):
            if enclosing is not None:
                nested[fn.name] = fn
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            worker_args: List[Tuple[ast.AST, str]] = []
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._POOL_METHODS
            ):
                receiver = dotted_name(node.func.value) or ""
                if not self._POOL_NAME_RE.search(receiver):
                    continue
                if node.args:
                    worker_args.append((node.args[0], "worker function"))
                for extra in node.args[1:]:
                    worker_args.append((extra, "worker argument"))
            else:
                ctor = dotted_name(node.func) or ""
                if not ctor.endswith(("ProcessPoolExecutor", "Pool")):
                    continue
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        worker_args.append((kw.value, "pool initializer"))
                    elif kw.arg == "initargs":
                        worker_args.append((kw.value, "initializer argument"))
            for expr, role in worker_args:
                yield from self._check_worker_expr(module, expr, role, top, nested)

    def _check_worker_expr(self, module, expr, role, top, nested):
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    module, node,
                    f"lambda as {role}: unpicklable under spawn; define a "
                    f"module-level function",
                )
            elif isinstance(node, ast.Name) and node.id in nested:
                free = self._free_names(nested[node.id], top)
                if free:
                    yield self.finding(
                        module, node,
                        f"nested function `{node.id}` as {role} closes over "
                        f"{{{', '.join(sorted(free))}}}; worker state must "
                        f"travel as arguments, not captures",
                    )
            elif isinstance(node, (ast.Name, ast.Attribute)):
                dn = dotted_name(node)
                if dn is None:
                    continue
                terminal = dn.split(".")[-1]
                if self._SHARED_RE.search(terminal):
                    yield self.finding(
                        module, node,
                        f"`{dn}` shipped as {role}: worker-side writes to "
                        f"shared-mutable state (trace/store/filesystem) never "
                        f"reach the parent; pass plain data instead",
                    )

    def _free_names(self, fn: ast.AST, top: Set[str]) -> Set[str]:
        bound = _fn_params(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
        free: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in bound and node.id not in top \
                        and node.id not in _BUILTIN_NAMES:
                    free.add(node.id)
        return free


# ----------------------------------------------------------------------
class PublicApiDocstrings(Rule):
    """RL008: every ``__all__`` export of a ``src/repro`` package
    ``__init__`` must resolve to a documented def/class (constants are
    exempt), and the ``__init__`` itself must carry a module docstring —
    the package fronts are the API surface ``docs/`` links into.
    """

    id = "RL008"
    slug = "api-docstring"
    title = "public package exports need docstrings"

    def __init__(self) -> None:
        self._tree_cache: Dict[str, Optional[ast.Module]] = {}

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/") and relpath.endswith("__init__.py")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        tree = module.tree
        if ast.get_docstring(tree) is None:
            yield Finding(self.id, module.relpath, 1, 1,
                          "package __init__ has no module docstring")
        exports = self._exports(tree)
        if exports is None:
            return
        local_defs: Dict[str, ast.AST] = {}
        assigned: Set[str] = set()
        imports: Dict[str, Tuple[str, int, str]] = {}  # name -> (module, lineno, src)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                local_defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for tgt in targets:
                    for sub in ast.walk(tgt):
                        if isinstance(sub, ast.Name):
                            assigned.add(sub.id)
            elif isinstance(node, ast.ImportFrom) and node.level in (0, 1, 2):
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        node.module or "", node.lineno, alias.name
                    )
        for name, lineno in exports:
            if name in local_defs:
                if ast.get_docstring(local_defs[name]) is None:
                    yield Finding(
                        self.id, module.relpath, local_defs[name].lineno, 1,
                        f"exported `{name}` has no docstring",
                    )
            elif name in assigned:
                continue  # constants / singletons
            elif name in imports:
                src_module, imp_line, src_name = imports[name]
                missing = self._missing_docstring(module, src_module, src_name)
                if missing:
                    yield Finding(
                        self.id, module.relpath, imp_line, 1,
                        f"exported `{name}` ({missing}) has no docstring",
                    )
            else:
                yield Finding(
                    self.id, module.relpath, lineno, 1,
                    f"`__all__` lists `{name}` but nothing binds it here",
                )

    def _exports(self, tree: ast.Module) -> Optional[List[Tuple[str, int]]]:
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                continue
            if isinstance(node.value, (ast.List, ast.Tuple)):
                out = []
                for el in node.value.elts:
                    if isinstance(el, ast.Constant) and isinstance(el.value, str):
                        out.append((el.value, el.lineno))
                return out
        return None

    def _missing_docstring(self, module: ParsedModule, src_module: str,
                           name: str) -> Optional[str]:
        """``"path:line"`` of an undocumented def/class export, else None
        (documented, a constant, or unresolvable)."""
        base = os.path.dirname(module.path)
        rel = src_module.replace(".", os.sep)
        for candidate in (
            os.path.join(base, rel + ".py"),
            os.path.join(base, rel, "__init__.py"),
        ):
            tree = self._parse(candidate)
            if tree is None:
                continue
            for node in tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    and node.name == name
                ):
                    if ast.get_docstring(node) is None:
                        short = os.path.relpath(candidate, os.path.dirname(base))
                        return f"{short}:{node.lineno}"
                    return None
            return None  # assignment / re-export: out of scope
        return None

    def _parse(self, path: str) -> Optional[ast.Module]:
        if path not in self._tree_cache:
            tree: Optional[ast.Module] = None
            try:
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
            except (OSError, SyntaxError, ValueError):
                tree = None
            self._tree_cache[path] = tree
        return self._tree_cache[path]


# ----------------------------------------------------------------------
class RetryableOutcome(Rule):
    """RL009: in the campaign/service layers a broad ``except`` must
    either re-raise or record a **retryable outcome** — a failure shape
    the recovery machinery can act on: an ``("err", …)`` status tuple
    (what :class:`~repro.faults.FaultPolicy` classifies for retry), an
    ``error=`` response field / ``"error"`` response key (what the
    service returns per request), or a named ``warnings.warn``.

    Stricter than RL005, which accepts any recording (``log``,
    ``print_exc``): a failure that is merely *logged* in these layers
    is invisible to the retry policy, the per-request fault capture,
    and the sweep's resilience counters — it looks handled but the case
    silently vanishes from the completion accounting.
    """

    id = "RL009"
    slug = "retryable-outcome"
    title = "broad except in campaign/service must record a retryable outcome"

    _PREFIXES = ("src/repro/campaign/", "src/repro/service/")
    # recorders that produce an actionable outcome (not just a log line)
    _OUTCOME_CALLS = re.compile(r"format_exc|warn|capture")

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(self._PREFIXES)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            t = node.type
            broad = t is None or (
                isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
            )
            if not broad:
                continue
            if self._yields_outcome(node.body):
                continue
            label = "bare `except:`" if t is None else f"`except {t.id}:`"
            yield self.finding(
                module, node,
                f"{label} in the campaign/service layer neither re-raises "
                f"nor records a retryable outcome; produce an "
                f'("err", traceback.format_exc(), ...) status, an error= '
                f"response field, or a named warnings.warn so the retry/"
                f"fault-capture machinery can account for the case",
            )

    def _yields_outcome(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    dn = dotted_name(node.func)
                    if dn and self._OUTCOME_CALLS.search(dn):
                        return True
                    if any(kw.arg == "error" for kw in node.keywords):
                        return True
                if (isinstance(node, ast.Tuple) and node.elts
                        and isinstance(node.elts[0], ast.Constant)
                        and node.elts[0].value == "err"):
                    return True
                if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "error"
                    for k in node.keys
                ):
                    return True
        return False


# ----------------------------------------------------------------------
class BoundedServiceWait(Rule):
    """RL010: a serving-layer loop that waits on store or snapshot I/O
    must consult a deadline or the circuit breaker.

    The resilience contract (``docs/SERVICE.md``) is that the service
    never waits unboundedly: every store access sits behind the
    :class:`~repro.service.resilience.StoreCircuitBreaker` and every
    batch behind a :class:`~repro.service.resilience.Deadline`.  A
    ``while``/``for`` loop that sleeps, refreshes, or reads the store
    without referencing either guard is a stall waiting to happen — a
    sick store turns it into an infinite wait no budget can interrupt.

    Narrow by design: fires only in ``src/repro/service/`` and only on
    loops whose body performs a *waiting* call (``sleep``, ``refresh``,
    ``get_labeled``, snapshot save/load); referencing any
    deadline/breaker name anywhere in the loop satisfies it.
    """

    id = "RL010"
    slug = "bounded-service-wait"
    title = "service loops awaiting store/snapshot I/O must consult a deadline or breaker"

    _PREFIXES = ("src/repro/service/",)
    _WAIT_CALLS = re.compile(
        r"(?:^|\.)(?:sleep|refresh|get_labeled|save_snapshot|load_snapshot"
        r"|maybe_save|wait)$"
    )
    _GUARD_RE = re.compile(r"deadline|breaker", re.I)

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(self._PREFIXES)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.While, ast.For)):
                continue
            waits = [
                dotted_name(call.func)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            ]
            waits = [dn for dn in waits if dn and self._WAIT_CALLS.search(dn)]
            if not waits:
                continue
            if self._consults_guard(node):
                continue
            kind = "while" if isinstance(node, ast.While) else "for"
            yield self.finding(
                module, node,
                f"`{kind}` loop awaits store/snapshot I/O "
                f"({', '.join(sorted(set(waits)))}) without consulting a "
                f"deadline or the circuit breaker; thread a Deadline "
                f"(check/remaining/expired) or gate the access on "
                f"breaker.allow() so a sick store cannot stall the loop "
                f"unboundedly",
            )

    def _consults_guard(self, loop: ast.AST) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Name) and self._GUARD_RE.search(node.id):
                return True
            if isinstance(node, ast.Attribute) and self._GUARD_RE.search(node.attr):
                return True
            if isinstance(node, ast.arg) and self._GUARD_RE.search(node.arg):
                return True
        return False


ALL_RULES = [
    CacheKeyCompleteness(),
    CachedBufferImmutability(),
    NoUnseededRandomness(),
    NamedValueError(),
    BroadExceptRecord(),
    HotLoopSmell(),
    WorkerClosureCapture(),
    PublicApiDocstrings(),
    RetryableOutcome(),
    BoundedServiceWait(),
]
