"""Backend-dispatch registry for the hot codec kernels.

The codec stack's inner loops (Huffman bit packing/unpacking, Snappy
element materialization, batch varints) exist in up to three
implementations:

* ``c`` — compiled decode kernels (Huffman, Snappy), built with cffi on
  first use; absent when cffi or a compiler is missing.
* ``numpy`` — vectorized fast paths for every op.
* ``python`` — the from-scratch reference loops. Always available, always
  correct; the byte-level ground truth everything else is checked against.

The fast backends produce **byte-identical** output and raise the same
:mod:`repro.codecs.errors` types and messages on corrupt input.

A *kernel op* is a name like ``"huffman_decode"``; each backend registers
one callable per op. :func:`dispatch` resolves the active backend per
call, so a backend switch (env var, CLI flag, :func:`use_backend`) takes
effect immediately — including inside recode-engine pool workers, which
inherit the parent's selection explicitly (see
:meth:`repro.codecs.engine.RecodeEngine`).

Selection order: :func:`set_backend` (CLI / code) > the
``REPRO_KERNEL_BACKEND`` environment variable > autodetect (the first
available of :data:`KNOWN_BACKENDS`). An op the selected backend does not
implement is served by the next backend in that order that does. Landing
on the ``python`` reference from a faster selection — or a fast kernel
raising :class:`KernelUnavailable` at call time — ticks the
``kernels.fallback`` counter; every dispatch ticks ``kernels.dispatch``
labelled ``op`` and the ``backend`` that served it.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections.abc import Callable, Iterator

from repro import obs

#: Environment variable consulted when no backend was set explicitly.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: The reference backend every op must provide.
REFERENCE_BACKEND = "python"

#: Backends in autodetect (and per-op serving) preference order.
KNOWN_BACKENDS = ("c", "numpy", "python")


class KernelUnavailable(RuntimeError):
    """A backend cannot service this op/call; dispatch retries on the
    reference backend. Raise it early — before any output is produced —
    so the fallback re-runs the op from scratch."""


_DISPATCH = obs.BoundInstruments(
    lambda reg, key: reg.counter("kernels.dispatch", op=key[0], backend=key[1])
)
_FALLBACK = obs.BoundInstruments(
    lambda reg, key: reg.counter("kernels.fallback", op=key[0], backend=key[1])
)


class KernelRegistry:
    """Op table: ``(op, backend) -> callable`` plus backend selection."""

    def __init__(self) -> None:
        self._impls: dict[tuple[str, str], Callable] = {}
        self._ops: set[str] = set()
        self._lock = threading.Lock()
        # None = not yet resolved (env/autodetect decides on first use).
        self._selected: str | None = None
        # Autodetect's answer; fixed once ``c`` has been probed.
        self._auto: str | None = None

    # -- registration --------------------------------------------------------

    def register(self, op: str, backend: str) -> Callable[[Callable], Callable]:
        """Decorator: register ``fn`` as ``op``'s ``backend`` implementation."""
        if backend not in KNOWN_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; know {KNOWN_BACKENDS}")

        def deco(fn: Callable) -> Callable:
            with self._lock:
                self._impls[(op, backend)] = fn
                self._ops.add(op)
            return fn

        return deco

    def ops(self) -> tuple[str, ...]:
        return tuple(sorted(self._ops))

    def backends_for(self, op: str) -> tuple[str, ...]:
        """Available backends with their own implementation of ``op``."""
        return tuple(
            b for b in KNOWN_BACKENDS if (op, b) in self._impls and self.is_available(b)
        )

    # -- backend selection ---------------------------------------------------

    @staticmethod
    def is_available(name: str) -> bool:
        """Whether backend ``name`` is usable in this process.

        Only ``c`` can be missing; asking about it builds or loads the
        compiled kernels once per process, asking about another backend
        never does.
        """
        if name == "c":
            from repro.kernels import c_kernels

            return c_kernels.available()
        return name in KNOWN_BACKENDS

    def available_backends(self) -> tuple[str, ...]:
        """Backends usable in this process, in preference order."""
        return tuple(b for b in KNOWN_BACKENDS if self.is_available(b))

    def autodetect(self) -> str:
        if self._auto is None:
            self._auto = self.available_backends()[0]
        return self._auto

    def resolve_backend(self) -> str:
        """The backend dispatch will use right now (resolving env/autodetect)."""
        if self._selected is not None:
            return self._selected
        env = os.environ.get(KERNEL_BACKEND_ENV, "").strip().lower()
        if env in ("", "auto"):
            return self.autodetect()
        if env not in KNOWN_BACKENDS or not self.is_available(env):
            # A bad env var must not take the process down: fall back to
            # autodetect and leave a visible trail in the metrics.
            obs.registry().counter("kernels.bad_backend_env", value=env).inc()
            return self.autodetect()
        return env

    def set_backend(self, name: str | None) -> None:
        """Pin the backend (``None``/``"auto"`` returns to env/autodetect).

        Raises:
            ValueError: unknown or unavailable backend name.
        """
        if name is None or name == "auto":
            self._selected = None
            return
        if name not in KNOWN_BACKENDS:
            raise ValueError(f"unknown kernel backend {name!r}; know {KNOWN_BACKENDS}")
        if not self.is_available(name):
            raise ValueError(f"kernel backend {name!r} is not available in this process")
        self._selected = name

    @contextlib.contextmanager
    def use_backend(self, name: str | None) -> Iterator[None]:
        """Scoped :func:`set_backend` (tests, pool workers)."""
        prev = self._selected
        self.set_backend(name)
        try:
            yield
        finally:
            self._selected = prev

    # -- dispatch ------------------------------------------------------------

    def _route(self, op: str, backend: str) -> tuple[Callable, str]:
        """The implementation serving ``op`` under ``backend``: its own, or
        the next backend's in :data:`KNOWN_BACKENDS` order."""
        for served in KNOWN_BACKENDS[KNOWN_BACKENDS.index(backend):]:
            fn = self._impls.get((op, served))
            if fn is not None:
                return fn, served
        raise KeyError(f"kernel op {op!r} has no implementation")

    def dispatch(self, op: str, *args, **kwargs):
        """Run ``op`` on the active backend, reference-falling-back."""
        backend = self.resolve_backend()
        fn, served = self._route(op, backend)
        if served == REFERENCE_BACKEND and backend != REFERENCE_BACKEND:
            _FALLBACK[op, backend].inc()
        try:
            result = fn(*args, **kwargs)
        except KernelUnavailable:
            if served == REFERENCE_BACKEND:
                raise
            _FALLBACK[op, served].inc()
            served = REFERENCE_BACKEND
            result = self._impls[(op, served)](*args, **kwargs)
        _DISPATCH[op, served].inc()
        return result


#: The process-wide registry; module-level helpers in
#: :mod:`repro.kernels` are bound to it.
REGISTRY = KernelRegistry()
