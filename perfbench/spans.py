"""Outside-in span recorder for the traced benchmark run.

The traced run wraps each layer's entry points from here, without
touching ``src/``: :func:`instrumented` swaps the attributes listed in
:data:`ENTRY_POINTS` for timing wrappers and restores the originals on
exit.  A wrapper records one span per call -- name, start, end and the
span that was open when the call began (its parent) -- into flat lists
held in memory; :meth:`SpanRecorder.write` saves them when the run ends.
A layer's self time is its spans' durations minus the part covered by
their direct child spans.

Every entry point is resolved before anything is patched, so a renamed
or removed entry point fails the traced run with
:class:`MissingEntryPoint` instead of silently counting zero.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

__all__ = [
    "ENTRY_POINTS",
    "MissingEntryPoint",
    "SpanRecorder",
    "instrumented",
    "resolve_entry_points",
]

# (span name, module, attribute path).  ``find_transmit_window`` is
# wrapped where the paper's MAC imported it, which is the binding its
# calls go through.  ``Medium._end`` is private, but the event wheel
# reaches the burst-end handler only through it.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Environment.run"),
    ("access.search", "repro.mac.shepard", "find_transmit_window"),
    ("medium.transmit", "repro.net.medium", "Medium.transmit"),
    ("medium.end", "repro.net.medium", "Medium._end"),
    ("medium.witness", "repro.net.medium", "Medium.field_error_bound_w"),
    ("obs.emit", "repro.obs.api", "Instrumentation.emit"),
    ("scene.field", "repro.propagation.matrix", "PropagationMatrix.from_placement"),
    ("scene.field", "repro.propagation.sparse", "SparseGainField.from_placement"),
    ("scene.routing", "repro.net.network", "min_energy_tables"),
)


class MissingEntryPoint(RuntimeError):
    """A wrapped entry point no longer exists under its recorded name."""


class SpanRecorder:
    """Spans in four parallel lists; index ``i`` is one span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = [-1]
        self._ids: Dict[str, int] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with one span recorded around every call."""
        name_id = self._intern(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        spanned.__wrapped__ = function  # type: ignore[attr-defined]
        return spanned

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around a block; yields the span's index."""
        index = len(self.start)
        self.name_of.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield index
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as arrays, plus each span's duration and self time."""
        name_of = np.asarray(self.name_of, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        # Children of the root (-1) land in bin 0, span i's in bin i + 1.
        covered = np.bincount(parent + 1, weights=duration, minlength=len(start) + 1)
        return {
            "name_of": name_of,
            "start": start,
            "end": end,
            "parent": parent,
            "duration": duration,
            "self": duration - covered[1:],
        }

    def select(self, arrays: Dict[str, np.ndarray], name: str) -> np.ndarray:
        """Boolean mask of the spans called ``name``."""
        if name not in self._ids:
            return np.zeros(len(arrays["name_of"]), dtype=bool)
        return arrays["name_of"] == self._ids[name]

    def write(self, path: str) -> None:
        """Save every span (compressed ``.npz``; ``names`` maps ids)."""
        arrays = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_of=arrays["name_of"],
            start=arrays["start"],
            end=arrays["end"],
            parent=arrays["parent"],
        )


def _lookup(module_name: str, path: str) -> Tuple[object, str, object]:
    """(owner, attribute, raw value in the owner's namespace)."""
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as error:
        raise MissingEntryPoint(f"{module_name}: {error}") from error
    *parents, attribute = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise MissingEntryPoint(f"{module_name}.{path}: no {part!r}")
        owner = getattr(owner, part)
    namespace = vars(owner)
    if attribute not in namespace or not callable(getattr(owner, attribute)):
        raise MissingEntryPoint(f"{module_name}.{path} does not exist")
    return owner, attribute, namespace[attribute]


def resolve_entry_points() -> List[Tuple[str, object, str, object]]:
    """Every entry point as (span name, owner, attribute, original)."""
    return [
        (name, *_lookup(module_name, path))
        for name, module_name, path in ENTRY_POINTS
    ]


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every entry point for the duration of the block."""
    resolved = resolve_entry_points()
    try:
        for name, owner, attribute, original in resolved:
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(recorder.wrap(name, original.__func__))
            else:
                patched = recorder.wrap(name, original)
            setattr(owner, attribute, patched)
        yield recorder
    finally:
        for _name, owner, attribute, original in reversed(resolved):
            setattr(owner, attribute, original)
