"""The workloads: inputs from a seed, the engines that consume them, one instant.

All workloads are closed loops with one client, the synchronous clock:
instant k+1 starts when instant k has returned its posteriors. Each stream
draws its data seed and its engine seed from the workload seed, so the same
seed gives the same inputs and the same posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import StreamServer, infer
from repro.bench import (
    CoinModel,
    DirichletCategoricalModel,
    KalmanModel,
    OutlierModel,
    PoissonCountModel,
    RobotModel,
    categorical_data,
    coin_data,
    count_data,
    kalman_data,
    outlier_data,
    robot_data,
)
from repro.bench.robot import RobotConfig, robot_matrices
from repro.exec.population import DEFAULT_SHARDS

import oracles

#: instants run before the timed phase (caches, lazy set-up, shm rings).
WARMUP = 5
#: the timed phase lasts at least this many instants, so that the p90 has
#: at least ten samples above it.
MIN_INSTANTS = 100


class ScalarTracker(KalmanModel):
    """The Appendix B.1 tracker as a model class of the user's own.

    The vectorized registries match exact classes, so ``backend="auto"``
    finds no batched particle filter for it and runs the scalar
    ``ParticleFilter``: the per-particle path every model without a batched
    equivalent takes.
    """


@dataclass
class Stream:
    """One inference stream: its inputs, its oracle and what it produced."""

    name: str
    observations: List[Any]
    truths: np.ndarray
    check: str  # "exact", "pf" or "finite"
    oracle: Optional[oracles.Posterior] = None
    n_particles: int = 0
    means: List[np.ndarray] = field(default_factory=list)


def _kalman_stream(name: str, steps: int, seed: int, check: str, n_particles: int = 0) -> Stream:
    model = KalmanModel()
    data = kalman_data(steps, seed=seed)
    oracle = oracles.kalman_1d(
        data.observations, model.prior_mean, model.prior_var, model.motion_var, model.obs_var
    )
    return Stream(name, data.observations, np.asarray(data.truths)[:, None], check, oracle, n_particles)


def _robot_stream(name: str, steps: int, seed: int) -> Stream:
    config = RobotConfig()
    data = robot_data(steps, seed=seed, config=config)
    oracle = oracles.kalman_robot(data.observations, config, *robot_matrices(config))
    return Stream(name, data.observations, np.asarray(data.truths)[:, None], "exact", oracle)


def _fleet_stream(kind: str, name: str, steps: int, seed: int) -> Stream:
    if kind == "kalman":
        return _kalman_stream(name, steps, seed, "exact")
    if kind == "robot":
        return _robot_stream(name, steps, seed)
    if kind == "coin":
        model = CoinModel()
        data = coin_data(steps, seed=seed, alpha=model.alpha, beta=model.beta_param)
        oracle = oracles.beta_bernoulli(data.observations, model.alpha, model.beta_param)
    elif kind == "count":
        model = PoissonCountModel()
        data = count_data(steps, seed=seed, shape=model.shape, rate=model.rate)
        oracle = oracles.gamma_poisson(data.observations, model.shape, model.rate)
    elif kind == "categorical":
        model = DirichletCategoricalModel()
        data = categorical_data(steps, seed=seed, alpha=model.alpha)
        oracle = oracles.dirichlet_categorical(data.observations, model.alpha)
    else:  # outlier: no exact posterior
        data = outlier_data(steps, seed=seed)
        truths = np.asarray(data.truths, dtype=float)[:, None]
        return Stream(name, data.observations, truths, "finite")
    truths = np.asarray(data.truths, dtype=float).reshape(steps, -1)
    return Stream(name, data.observations, truths, "exact", oracle)


class Workload:
    """Base: ``streams`` after ``make_inputs``; ``open`` builds the engines
    (the set-up), ``instant`` is the timed work, ``collect`` reads the
    posteriors of the instant afterwards."""

    #: input instants generated per second of measurement: about ten times
    #: what the seed code consumes, so inputs outlast the timed phase.
    inputs_per_second = 0
    #: the reference kernel (reference.KERNELS) closest to its resource mix
    reference = ""
    kinds: List[str] = []

    def __init__(self, seed: int):
        children = np.random.SeedSequence(seed).spawn(len(self.kinds))
        seeds = [child.generate_state(2) for child in children]
        self.data_seeds = [int(s[0]) for s in seeds]
        self.engine_seeds = [int(s[1]) for s in seeds]
        self.streams: List[Stream] = []

    def n_inputs(self, seconds: float) -> int:
        return WARMUP + max(int(self.inputs_per_second * seconds), 4 * MIN_INSTANTS)

    def make_inputs(self, steps: int) -> None:
        raise NotImplementedError

    def open(self) -> None:
        raise NotImplementedError

    def instant(self, k: int) -> None:
        raise NotImplementedError

    def collect(self, k: int) -> None:
        raise NotImplementedError

    def engines(self) -> List[Any]:
        """(engine, state) of every stream."""
        raise NotImplementedError

    def worker_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        pass


class SingleStream(Workload):
    """One engine stepped directly: an instant is one ``engine.step``."""

    kinds = ["stream"]

    def __init__(
        self,
        seed: int,
        model: Callable[[], Any],
        n_particles: int,
        inputs_per_second: int,
        reference: str,
        **infer_kwargs,
    ):
        super().__init__(seed)
        self.inputs_per_second = inputs_per_second
        self.reference = reference
        self.model = model
        self.n_particles = n_particles
        self.infer_kwargs = infer_kwargs
        self.engine = None
        self.state = None
        self.dist = None

    def make_inputs(self, steps: int) -> None:
        self.streams = [
            _kalman_stream("stream", steps, self.data_seeds[0], "pf", self.n_particles)
        ]

    def build(self, **overrides):
        kwargs = dict(self.infer_kwargs, **overrides)
        return infer(self.model(), self.n_particles, seed=self.engine_seeds[0], **kwargs)

    def open(self) -> None:
        self.engine = self.build()
        self.state = self.engine.init()

    def instant(self, k: int) -> None:
        self.dist, self.state = self.engine.step(self.state, self.streams[0].observations[k])

    def collect(self, k: int) -> None:
        self.streams[0].means.append(np.atleast_1d(np.asarray(self.dist.mean(), dtype=float)))

    def engines(self) -> List[Any]:
        return [(self.engine, self.state)]

    def worker_pids(self) -> List[int]:
        executor = self.engine.executor
        return list(executor.worker_pids()) if getattr(executor, "resident", False) else []

    def close(self) -> None:
        release = getattr(self.state, "release", None)
        if release is not None:
            release()
        self.engine = self.state = self.dist = None

    def reference_means(self, instants: int) -> List[float]:
        """Posterior means of the first instants on ``executor=None`` with
        the persistent engine's shard count: the bit-identity reference."""
        engine = self.build(executor=None, n_shards=DEFAULT_SHARDS)
        state = engine.init()
        means = []
        for k in range(instants):
            dist, state = engine.step(state, self.streams[0].observations[k])
            means.append(float(dist.mean()))
        return means


class Fleet(Workload):
    """One StreamServer (serial, round_robin) with twelve SDS sessions: an
    instant submits one observation per session, then runs one ``tick``."""

    kinds = [k for k in ("kalman", "coin", "outlier", "count", "categorical", "robot") for _ in (0, 1)]
    models = {
        "kalman": KalmanModel,
        "coin": CoinModel,
        "outlier": OutlierModel,
        "count": PoissonCountModel,
        "categorical": DirichletCategoricalModel,
        "robot": RobotModel,
    }
    inputs_per_second = 800
    reference = "mixed"
    n_particles = 1000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ids = [f"{kind}{i % 2}" for i, kind in enumerate(self.kinds)]
        self.server = None

    def make_inputs(self, steps: int) -> None:
        self.streams = [
            _fleet_stream(kind, sid, steps, seed)
            for kind, sid, seed in zip(self.kinds, self.ids, self.data_seeds)
        ]

    def open(self) -> None:
        self.server = StreamServer(policy="round_robin")
        for kind, sid, seed in zip(self.kinds, self.ids, self.engine_seeds):
            self.server.open(
                self.models[kind](),
                session_id=sid,
                n_particles=self.n_particles,
                method="sds",
                backend="auto",
                seed=seed,
            )

    def instant(self, k: int) -> None:
        for sid, stream in zip(self.ids, self.streams):
            self.server.submit(sid, stream.observations[k])
        self.server.tick()

    def collect(self, k: int) -> None:
        sessions = self.server._sessions
        for sid, stream in zip(self.ids, self.streams):
            outputs = sessions[sid].outputs
            stream.means.append(np.atleast_1d(np.asarray(outputs[-1].mean(), dtype=float)))
            # The server keeps every posterior it produced; the benchmark
            # reads each once and drops it, so memory does not grow with
            # the number of timed instants.
            outputs.clear()

    def engines(self) -> List[Any]:
        return [(s.engine, s.state) for s in self.server._sessions.values()]

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
        self.server = None


def kalman_pf(seed: int) -> Workload:
    return SingleStream(
        seed, KalmanModel, 250_000, 300, "array", method="pf", backend="vectorized"
    )


def kalman_pf_persistent(seed: int) -> Workload:
    return SingleStream(
        seed,
        KalmanModel,
        250_000,
        300,
        "array",
        method="pf",
        backend="vectorized",
        executor="processes-persistent:2",
    )


def scalar_pf(seed: int) -> Workload:
    return SingleStream(seed, ScalarTracker, 500, 1000, "python", method="pf", backend="auto")


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "kalman_pf": kalman_pf,
    "kalman_pf_persistent": kalman_pf_persistent,
    "sds_fleet": Fleet,
    "scalar_pf": scalar_pf,
}
