"""Span tracing around calls into digitkit's modules, kept in memory.

The tracer wraps the public functions and methods of each digitkit module
from outside the package: while it is installed, every call records a
span (name, start, end, parent).  A module's self time is the time its
spans cover minus the part covered by their child spans.  Nothing in the
package itself changes, and uninstalling restores every original object.

Per-element methods (one digit column, one group operation, one
transducer step) are not wrapped: a span per element would cost more than
the element and would turn the trace into a measurement of the tracer.
Their time counts toward the caller's module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "experiments",
    "recoding",
    "expansions",
    "multiexp",
    "transducer",
    "verification",
    "cli",
)

# (class name, method name); "*" skips every method of the class.
_PER_ELEMENT = {
    ("GroupOps", "*"),
    ("ModGroup", "*"),
    ("AdditiveGroup", "*"),
    ("CountingGroup", "*"),
    ("JointExpansion", "column"),
    ("JointExpansion", "columns"),
    ("Transducer", "step"),
    ("RationalMatrix", "entry"),
}

_CONSTRUCTOR_HOOK = "__post_init__"


class Tracer:
    """Records spans while installed; aggregates self time per span name."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        # Spans are recorded only while active; installed wrappers pass
        # straight through otherwise (output checks run that way).
        self.active = False

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name: str) -> None:
        if not self.active:
            return
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        if not self.active:
            return
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.dropped += 1

    def by_layer(self) -> dict[str, tuple[float, int]]:
        """{layer: (self seconds, span count)} for every layer in LAYERS."""
        out = {layer: [0.0, 0] for layer in LAYERS}
        for name, seconds in self.self_s.items():
            entry = out[name.split(".", 1)[0]]
            entry[0] += seconds
            entry[1] += self.calls[name]
        return {layer: (s, n) for layer, (s, n) in out.items()}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            # One span per resume, so lazily produced records are charged
            # to the module that computes them, not to whoever iterates.
            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    yield item

            return resumed

        @functools.wraps(fn)
        def called(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return called

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # vars(), not getattr(): a class must get back its classmethod
        # object, not the method bound on lookup.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public surface of every layer; digitkit must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"digitkit.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        owners = [
            m for n, m in list(sys.modules.items())
            if n == "digitkit" or n.startswith("digitkit.")
        ]
        for module in owners:
            for attr, obj in list(vars(module).items()):
                wrapped = functions.get(id(obj))
                if wrapped is not None:
                    self._patch(module, attr, wrapped)

    def _install_methods(self, layer: str, cls: type) -> None:
        if (cls.__name__, "*") in _PER_ELEMENT:
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != _CONSTRUCTOR_HOOK:
                continue
            if (cls.__name__, attr) in _PER_ELEMENT:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
