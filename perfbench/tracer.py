"""Per-layer spans recorded from outside the program.

Each layer is timed by wrapping its public entry points under the name
their caller looks up: a module-level function is replaced in the module
that calls it (``repro.vectorized.engine`` binds its own
``normalize_log_weights``, so wrapping the one in
``repro.inference.resampling`` would miss it), a method is replaced on its
class, and an engine's resampler on the engine instance. The wrappers are
switched on only around the traced engine's instants.

Objects reachable from engine state that is pickled into worker processes
are never replaced: the executor pickles functions by their import path,
and a wrapper at that path fails the identity check. So the persistent
engine keeps its resampler unwrapped, its workers start before any wrapper
is switched on, and their step time comes from the shard-step spans the
program ships back through ``repro.obs``.

Spans stay in memory as integer rows (index, name, start, end, parent,
instant). A span's self time is its duration minus the durations of its
direct children, so the self times of all spans of an instant add up to the
instant's root span exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = "instant"

#: layer -> (self-time metric, calls metric or None). The metric names are
#: those of BENCHMARK.json; the root's self time is what no layer covers.
LAYER_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "inference.resampling": ("inference.resampling.ms", "inference.resampling.calls"),
    "inference.weights": ("inference.weights.ms", "inference.weights.calls"),
    "vectorized.models": ("vectorized.models.ms", None),
    "vectorized.dists": ("vectorized.dists.ms", "vectorized.dists.calls"),
    "vectorized.batch": ("vectorized.batch.ms", None),
    "vectorized.sds_graph": ("vectorized.sds_graph.ms", "vectorized.sds_graph.calls"),
    "vectorized.sds_graph.clone": ("vectorized.sds_graph.clone_ms", None),
    "vectorized.interp": ("vectorized.interp.ms", None),
    "engine.step": ("engine.step.self_ms", None),
    "exec.map": ("exec.map_ms", None),
    "exec.exchange": ("exec.exchange_ms", None),
    "exec.commit": ("exec.commit_ms", None),
    "exec.server": ("exec.server.self_ms", None),
    "runtime.model_step": ("runtime.model_step.ms", "runtime.model_step.calls"),
    "inference.particles.clone": (
        "inference.particles.clone_ms",
        "inference.particles.clone_calls",
    ),
    ROOT: ("trace.unattributed_ms", None),
}

#: BatchedDSGraph methods that copy the graph rather than operate on it;
#: they run inside ChainState.batch_slice (clone) or gather (batch).
_GRAPH_COPIES = ("batch_gather", "batch_slice", "batch_concat")


class Tracer:
    """In-memory span store with a stack of open spans.

    A span gets its index when it opens and is written when it closes, as
    a row (index, name, start ns, end ns, parent index, instant). Rows
    collect in a list and move into int64 blocks at ``compact``, which the
    runner calls between instants, outside the timed region.
    """

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.rows: List[Tuple[int, ...]] = []
        self._blocks: List[np.ndarray] = []
        self.stack: List[int] = []
        self._counter = itertools.count()
        self._open: Dict[int, Tuple[int, int, int]] = {}
        #: instant the next span belongs to; -1 outside the instants
        self.current_instant = -1

    def name_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def open(self, name_id: int) -> int:
        index = next(self._counter)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        self._open[index] = (name_id, parent, perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        end = perf_counter_ns()
        name_id, parent, start = self._open.pop(index)
        self.stack.pop()
        self.rows.append((index, name_id, start, end, parent, self.current_instant))

    def wrap(self, layer: str, fn):
        """``fn`` recording one span per call. The body is inlined rather
        than calling open/close: it runs once per particle on scalar
        engines, so its cost is most of the tracing overhead."""
        name_id = self.name_id(layer)
        stack, counter, clock, tracer = self.stack, self._counter, perf_counter_ns, self
        put = self.rows.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = next(counter)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                put((index, name_id, start, end, parent, tracer.current_instant))

        return traced

    def compact(self, threshold: int = 0) -> None:
        """Move the collected rows into an int64 block once there are more
        than ``threshold`` of them."""
        if len(self.rows) > threshold:
            self._blocks.append(np.array(self.rows, dtype=np.int64))
            self.rows.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as columns ordered by span index."""
        self.compact()
        table = np.concatenate(self._blocks) if self._blocks else np.zeros((0, 6), np.int64)
        table = table[np.argsort(table[:, 0], kind="stable")]
        keys = ("index", "name", "start", "end", "parent", "instant")
        return {key: table[:, i] for i, key in enumerate(keys)}

    def self_times(self, first_instant: int) -> Dict[str, Any]:
        """Per layer: total self ns and call count over the spans of
        instants >= first_instant; ``_instant_ns``: the root durations."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        covered = np.zeros(len(duration), dtype=np.int64)
        has_parent = spans["parent"] >= 0
        np.add.at(covered, spans["parent"][has_parent], duration[has_parent])
        own = duration - covered
        keep = spans["instant"] >= first_instant
        out = {}
        for name_id, layer in enumerate(self.names):
            mask = keep & (spans["name"] == name_id)
            out[layer] = {"self_ns": int(own[mask].sum()), "calls": int(mask.sum())}
        roots = keep & (spans["name"] == self._ids.get(ROOT, -1))
        out["_instant_ns"] = duration[roots].astype(float)
        return out

    def total_ns(self, layer: str, instant: int) -> int:
        """Total duration of the spans of one layer in one instant."""
        spans = self.arrays()
        mask = (spans["name"] == self._ids.get(layer, -1)) & (spans["instant"] == instant)
        return int((spans["end"] - spans["start"])[mask].sum())

    def chrome_trace(self, first_instant: int, last_instant: int, meta: Dict[str, Any]):
        """Chrome trace-event JSON (complete events, microseconds) of the
        spans outside the instants (set-up, instant -1) and of instants
        first_instant..last_instant."""
        spans = self.arrays()
        instant = spans["instant"]
        keep = (instant < 0) | ((instant >= first_instant) & (instant <= last_instant))
        origin = int(spans["start"].min()) if len(instant) else 0
        events = [
            {
                "name": self.names[int(spans["name"][i])],
                "cat": self.names[int(spans["name"][i])].split(".")[0],
                "ph": "X",
                "ts": (int(spans["start"][i]) - origin) / 1e3,
                "dur": (int(spans["end"][i]) - int(spans["start"][i])) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {
                    "span": int(spans["index"][i]),
                    "parent": int(spans["parent"][i]),
                    "instant": int(instant[i]),
                },
            }
            for i in np.flatnonzero(keep)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


class Patches:
    """Wrappers that are switched on around each traced instant and off
    around each untraced one."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._entries: List[Tuple[Any, str, Any, bool, Any]] = []
        self._keys = set()
        self.active = False

    def add(self, owner: Any, attr: str, layer: str) -> None:
        key = (id(owner), attr)
        if key in self._keys:
            return
        self._keys.add(key)
        own = attr in vars(owner)
        wrapper = self.tracer.wrap(layer, getattr(owner, attr))
        self._entries.append((owner, attr, vars(owner).get(attr), own, wrapper))
        if self.active:
            setattr(owner, attr, wrapper)

    def apply(self) -> None:
        for owner, attr, _, _, wrapper in self._entries:
            setattr(owner, attr, wrapper)
        self.active = True

    def undo(self) -> None:
        if not self.active:
            return
        for owner, attr, original, own, _ in reversed(self._entries):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.active = False


def install_program_probes(patches: Patches) -> None:
    """Wrap the entry points every workload shares (see the module doc)."""
    import repro.analysis.routing as routing
    import repro.inference.engine as scalar_engine
    import repro.vectorized.dists as vdists
    import repro.vectorized.engine as vengine
    import repro.vectorized.models as vmodels
    from repro.exec.population import ResidentPopulation
    from repro.exec.server import StreamServer
    from repro.vectorized.sds_graph import BatchedDSGraph, ChainState

    patches.add(scalar_engine, "normalize_log_weights", "inference.weights")
    patches.add(scalar_engine, "ess", "inference.weights")
    patches.add(vengine, "normalize_log_weights", "inference.weights")
    patches.add(scalar_engine, "clone_particle", "inference.particles.clone")
    for name in ("gather", "slice_state", "concat_states"):
        patches.add(vengine, name, "vectorized.batch")
    patches.add(routing, "consult_for_backend", "analysis.routing")
    for name in vdists.__all__:
        cls = getattr(vdists, name)
        if isinstance(cls, type) and "__init__" in vars(cls):
            patches.add(cls, "__init__", "vectorized.dists")
    for cls in _subclasses(vmodels.VectorizedModel):
        if "step_batch" in vars(cls):
            patches.add(cls, "step_batch", "vectorized.models")
    for name, member in vars(BatchedDSGraph).items():
        if (
            inspect.isfunction(member)
            and not name.startswith("_")
            and name not in _GRAPH_COPIES
        ):
            patches.add(BatchedDSGraph, name, "vectorized.sds_graph")
    patches.add(ChainState, "batch_slice", "vectorized.sds_graph.clone")
    patches.add(vengine.VectorizedEngine, "step_shard", "vectorized.interp")
    for cls in (
        scalar_engine.InferenceEngine,
        vengine.VectorizedEngine,
        vengine.VectorizedGaussianChainSDS,
    ):
        patches.add(cls, "step", "engine.step")
    patches.add(ResidentPopulation, "map_step", "exec.map")
    patches.add(ResidentPopulation, "resample", "exec.exchange")
    patches.add(ResidentPopulation, "commit_weights", "exec.commit")
    patches.add(StreamServer, "tick", "exec.server")


def install_stream_probes(patches: Patches, engine: Any) -> None:
    """Wrap what one engine looks up on itself: its resampler (never for a
    worker-resident engine, which is pickled into the workers) and, for a
    scalar engine, its model's ``step`` (run once per particle)."""
    from repro.inference.engine import InferenceEngine
    from repro.vectorized.engine import VectorizedEngine

    if not getattr(engine.executor, "resident", False):
        patches.add(engine, "resampler", "inference.resampling")
    if isinstance(engine, InferenceEngine) and not isinstance(engine, VectorizedEngine):
        patches.add(type(engine.model), "step", "runtime.model_step")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def write_json(path, document) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle)
