"""In-memory spans around marginlab's public functions, recorded from outside.

The package has no tracing of its own, so the benchmark wraps the module
attributes that workloads call into (for example ``harness.run_single`` or
``geometry.mvee``) for the length of one traced pass and restores every one
of them afterwards.  Each span records its name, start, end, parent and
thread; parents are tracked per thread, so the spans of the sweep's pool
threads never nest under each other.  Counters (subgradient evaluations,
products with the Gram matrix) are added to the innermost open span of the
thread that does the work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import threading
import time

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")
    attrs: dict = dataclasses.field(default_factory=dict)
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        s = Span(span_id, name, stack[-1].id if stack else None,
                 threading.get_ident(), time.perf_counter(), attrs=attrs)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def count(self, key: str, n: int = 1) -> None:
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[key] = counts.get(key, 0) + n

    def wrap(self, name: str | None, fn, before=None, after=None):
        """fn wrapped in a span called name (no span when name is None).

        before(span, args, kwargs) runs first; after(span, result, args)
        runs on the result and returns what the caller receives.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with (self.span(name) if name else contextlib.nullcontext()) as s:
                if before is not None:
                    before(s, args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(s, out, args)
                return out

        return wrapper


def lookup(owner, name: str):
    """owner[name] for a dict, owner.name for a module."""
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _assign(owner, name: str, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


@contextlib.contextmanager
def patched(replacements):
    """Temporarily replace module attributes or dict entries.

    replacements: iterable of (owner, name, make) where make(original)
    returns the replacement.  Everything is restored on exit, also on error.
    """
    saved = []
    try:
        for owner, name, make in replacements:
            original = lookup(owner, name)
            saved.append((owner, name, original))
            _assign(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            _assign(owner, name, original)


_PRODUCT_FUNCTIONS = {np.dot, np.vdot, np.inner, np.einsum, np.tensordot}


class CountingArray(np.ndarray):
    """View of a Gram matrix that counts every product that touches it.

    Products with ``@`` arrive as the matmul ufunc, ``np.dot`` and friends
    through the array-function protocol.  Results come back as plain arrays,
    so the count only sees products with the Gram matrix itself.
    """

    tracer: Tracer | None = None

    def __array_finalize__(self, obj):
        self.tracer = getattr(obj, "tracer", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul and method == "__call__" and self.tracer:
            self.tracer.count("gram_products")
        inputs = tuple(_plain(x) for x in inputs)
        if out is not None:
            kwargs["out"] = tuple(_plain(x) for x in out)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func in _PRODUCT_FUNCTIONS and self.tracer:
            self.tracer.count("gram_products")
        args = tuple(_plain(x) for x in args)
        return func(*args, **kwargs)


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, CountingArray) else x


def counting_view(a: np.ndarray, tracer: Tracer) -> CountingArray:
    view = a.view(CountingArray)
    view.tracer = tracer
    return view
