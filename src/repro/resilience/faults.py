"""Deterministic fault injection for the resilient execution layer.

The chaos suite (``tests/resilience``) and the recovery-parity
benchmark (``benchmarks/bench_resilience.py``) must *prove* that every
recovery path yields output byte-identical to a fault-free run. That
requires faults which are

* **real** — a "worker crash" is an actual ``os._exit`` inside a pool
  worker (producing a genuine ``BrokenProcessPool``), a "chunk timeout"
  is an actual oversleeping worker, a "transient factory exception" is
  an actual exception raised mid-chunk;
* **deterministic** — a seeded :class:`FaultPlan` chooses the injection
  points from the grid, so a failing chaos run reproduces exactly;
* **single-fire** — each fault triggers once and never again, even
  across the process boundary of a respawned worker pool. Single-fire
  state lives in marker files under the plan's ``state_dir`` (worker
  processes share no memory with the supervisor, so the filesystem is
  the only honest place for it).

:class:`FaultInjectingFactory` wraps any picklable design factory and
is itself picklable, so it drops into ``BatchExplorer(workers=N)``
unchanged. Checkpoint damage (truncation, byte corruption) is injected
by :func:`truncate_checkpoint` / :func:`corrupt_checkpoint`.
:class:`CountingFactory` is the fault-free companion: it counts the
points a sweep evaluates, so a test or benchmark can assert which rows
an engine path ran.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.design import DesignPoint
from ..core.errors import ValidationError
from ..dse.grid import ParameterGrid

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultInjectingFactory",
    "VectorFaultInjectingFactory",
    "CountingFactory",
    "truncate_checkpoint",
    "corrupt_checkpoint",
]

#: Fault kinds a :class:`FaultSpec` may carry. The first three are
#: single-fire transients (retry recovers them); ``poison`` crashes the
#: worker *every* time its point is evaluated (only quarantine contains
#: it), ``stale`` oversleeps without heartbeating (the watchdog's prey),
#: and ``disk`` raises a transient ``OSError`` from the durable-write
#: hook instead of firing at a grid point.
KINDS = ("crash", "hang", "error", "poison", "stale", "disk")

#: Exit status an injected worker crash dies with (visible in logs).
CRASH_EXIT_CODE = 73


class InjectedFault(RuntimeError):
    """The transient exception an ``"error"`` fault raises.

    Deliberately *not* a :class:`~repro.core.errors.ReproError`:
    the execution layer must treat it like any foreign exception
    (retry, then surface), not like model data.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *kind* fires when *key* is evaluated.

    ``key`` is the sorted ``(name, value)`` tuple of the target grid
    point — the same shape as :func:`repro.dse.batch.params_key` — and
    ``arg`` parameterizes the fault (sleep seconds for ``"hang"``).
    """

    kind: str
    key: tuple
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(
                f"fault kind must be one of {KINDS}, got {self.kind!r}"
            )

    def marker_name(self) -> str:
        """Filesystem-safe single-fire marker name for this fault."""
        import hashlib

        digest = hashlib.sha256(
            repr((self.kind, self.key, self.arg)).encode("utf-8")
        ).hexdigest()[:24]
        return f"fault-{self.kind}-{digest}"


@dataclass(frozen=True)
class FaultInjectingFactory:
    """A picklable factory wrapper that fires planned faults.

    Scalar calls behave exactly like the wrapped factory except at
    planned grid points, where (once, ever) the fault fires *before*
    evaluation: ``crash`` hard-kills the process, ``hang`` oversleeps,
    ``error`` raises :class:`InjectedFault`. After its single fire the
    point evaluates normally, so retried/re-dispatched work converges
    to the fault-free answer.

    The wrapper intentionally does **not** forward ``batch_arrays``:
    chaos runs must exercise the scalar/worker paths the faults target,
    not the columnar fast path.
    """

    factory: object  # the wrapped (picklable) DesignFactory
    specs: tuple[FaultSpec, ...]
    state_dir: str

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        key = tuple(sorted(params.items()))
        for spec in self.specs:
            # Poison points are deterministic, not transient: they fire
            # on every evaluation (no single-fire claim) — only
            # quarantine can contain them.
            if spec.key == key and (spec.kind == "poison" or self._claim(spec)):
                self._fire(spec)
        return self.factory(params)  # type: ignore[operator]

    def _claim(self, spec: FaultSpec) -> bool:
        """Atomically claim the single fire (exclusive marker create)."""
        try:
            fd = os.open(
                os.path.join(self.state_dir, spec.marker_name()),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def _fire(self, spec: FaultSpec) -> None:
        if spec.kind in ("crash", "poison"):
            # A real worker death: no exception, no cleanup, just like
            # the OOM killer. The parent sees BrokenProcessPool.
            os._exit(CRASH_EXIT_CODE)
        if spec.kind in ("hang", "stale"):
            # Both oversleep; "stale" deliberately does so without
            # heartbeating, so only the watchdog can tell it from a
            # slow-but-alive worker.
            time.sleep(spec.arg)
            return
        raise InjectedFault(
            f"injected transient fault at {dict(spec.key)!r}"
        )


@dataclass(frozen=True)
class VectorFaultInjectingFactory(FaultInjectingFactory):
    """Fault injection for the parallel-columnar engine path.

    Unlike the scalar wrapper, this one *does* forward ``batch_arrays``
    to the wrapped vector factory: a planned fault fires (once, ever)
    inside the kernel call of whichever shard contains its target grid
    point, so chaos runs exercise the shard retry / pool respawn /
    in-process degradation machinery of the parallel-columnar engine.
    Kernel values and validity are untouched — after the single fire
    the re-dispatched shard evaluates clean, so recovery converges to
    the fault-free, byte-identical answer.
    """

    def batch_arrays(self, columns: Mapping[str, np.ndarray]):
        for spec in self.specs:
            if self._covers(columns, spec) and (
                spec.kind == "poison" or self._claim(spec)
            ):
                self._fire(spec)
        return self.factory.batch_arrays(columns)  # type: ignore[attr-defined]

    @staticmethod
    def _covers(columns: Mapping[str, np.ndarray], spec: FaultSpec) -> bool:
        """Whether any row of *columns* is the spec's target point."""
        mask: np.ndarray | None = None
        for name, value in spec.key:
            if name not in columns:
                return False
            hit = np.asarray(columns[name]) == value
            mask = hit if mask is None else mask & hit
        return mask is not None and bool(np.any(mask))

    @property
    def design_points(self):
        # Forward the wrapped factory's materializer when it has one; a
        # raised AttributeError makes getattr(..., None) in the engine
        # treat this wrapper as materializer-free, like the original.
        return self.factory.design_points  # type: ignore[attr-defined]


#: Guards CountingFactory's counters when pool workers are threads.
_COUNT_LOCK = threading.Lock()


class CountingFactory:
    """A vector factory that counts the points it is asked to evaluate:
    ``scalar_calls`` per-point calls, and ``kernel_calls`` calls and
    ``kernel_points`` rows through ``batch_arrays``. Wraps *factory*
    (default: the stock symmetric multicore factory); the counters are
    thread-safe, so thread-pool workers count too."""

    def __init__(self, factory: object | None = None) -> None:
        if factory is None:
            from ..dse.factories import SymmetricMulticoreFactory

            factory = SymmetricMulticoreFactory()
        self.inner = factory
        self.kernel_calls = 0
        self.kernel_points = 0
        self.scalar_calls = 0

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        with _COUNT_LOCK:
            self.scalar_calls += 1
        return self.inner(params)  # type: ignore[operator]

    def batch_arrays(self, columns: Mapping[str, np.ndarray]):
        with _COUNT_LOCK:
            self.kernel_calls += 1
            self.kernel_points += len(next(iter(columns.values())))
        return self.inner.batch_arrays(columns)  # type: ignore[attr-defined]

    def design_points(self, chunk, arrays):
        return self.inner.design_points(chunk, arrays)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible set of faults over a parameter grid."""

    seed: int
    state_dir: str
    specs: tuple[FaultSpec, ...]

    @classmethod
    def plan(
        cls,
        grid: ParameterGrid,
        *,
        seed: int,
        state_dir: str | os.PathLike,
        crashes: int = 0,
        hangs: int = 0,
        errors: int = 0,
        poisons: int = 0,
        stales: int = 0,
        disk_errors: int = 0,
        hang_s: float = 30.0,
        stale_s: float = 30.0,
    ) -> "FaultPlan":
        """Choose distinct injection points deterministically from *seed*.

        Points are drawn without replacement from the grid's cartesian
        order by a :func:`numpy.random.default_rng` stream, then
        assigned kinds in crash/hang/error/poison/stale order — the
        whole plan is a pure function of ``(grid, seed, counts)``.
        ``disk_errors`` are not grid points: each is one single-fire
        transient ``OSError`` raised from the durable-write hook (see
        :meth:`disk_hook`).
        """
        total = crashes + hangs + errors + poisons + stales
        points = list(grid)
        if total > len(points):
            raise ValidationError(
                f"cannot inject {total} faults into a {len(points)}-point grid"
            )
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(points), size=total, replace=False)
        kinds = (
            ["crash"] * crashes
            + ["hang"] * hangs
            + ["error"] * errors
            + ["poison"] * poisons
            + ["stale"] * stales
        )
        args = {"hang": hang_s, "stale": stale_s}
        specs = tuple(
            FaultSpec(
                kind=kind,
                key=tuple(sorted(points[int(index)].items())),
                arg=args.get(kind, 0.0),
            )
            for kind, index in zip(kinds, chosen)
        )
        specs += tuple(
            FaultSpec(kind="disk", key=(("disk", index),))
            for index in range(disk_errors)
        )
        return cls(seed=seed, state_dir=str(state_dir), specs=specs)

    @property
    def poison_points(self) -> list[dict]:
        """The planned poison points as grid-point parameter dicts."""
        return [dict(spec.key) for spec in self.specs if spec.kind == "poison"]

    def disk_hook(self):
        """A durable-write fault hook firing this plan's disk errors.

        Install with :func:`repro.resilience.checkpoint.
        set_disk_fault_hook`; each planned ``disk`` spec raises one
        transient ``OSError(ENOSPC)`` from the next durable write
        (single-fire markers in ``state_dir``, like every other fault).
        Returns ``None`` when the plan holds no disk specs.
        """
        import errno

        specs = [spec for spec in self.specs if spec.kind == "disk"]
        if not specs:
            return None
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        state_dir = self.state_dir

        def hook(path: object) -> None:
            for spec in specs:
                marker = os.path.join(state_dir, spec.marker_name())
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.close(fd)
                raise OSError(
                    errno.ENOSPC, f"injected disk fault (writing {path})"
                )

        return hook

    def wrap(self, factory: object) -> FaultInjectingFactory:
        """The fault-injecting twin of *factory* (state dir is created).

        The wrapper hides ``batch_arrays``, forcing the scalar/worker
        paths; use :meth:`wrap_vector` to chaos-test the
        parallel-columnar kernels instead.
        """
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        return FaultInjectingFactory(
            factory=factory, specs=self.specs, state_dir=self.state_dir
        )

    def wrap_vector(self, factory: object) -> VectorFaultInjectingFactory:
        """Like :meth:`wrap`, but keeps the factory vector-capable:
        faults fire inside ``batch_arrays`` on the shard containing the
        target point (the parallel-columnar chaos entry point)."""
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        return VectorFaultInjectingFactory(
            factory=factory, specs=self.specs, state_dir=self.state_dir
        )

    def reset(self) -> None:
        """Forget all fired faults (markers removed; plan can re-run)."""
        for spec in self.specs:
            try:
                os.unlink(os.path.join(self.state_dir, spec.marker_name()))
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Checkpoint damage
# ----------------------------------------------------------------------
def truncate_checkpoint(path: str | os.PathLike, keep_fraction: float = 0.5) -> None:
    """Truncate a checkpoint file, simulating a torn write: a crash
    mid-append, a partial copy, a bad download."""
    if not 0.0 <= keep_fraction < 1.0:
        raise ValidationError(
            f"keep_fraction must lie in [0, 1), got {keep_fraction}"
        )
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep_fraction)])


def corrupt_checkpoint(path: str | os.PathLike, *, seed: int = 0) -> None:
    """Flip one byte in the second half of a checkpoint file,
    deterministically by seed: the record holding it fails its
    checksum."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValidationError(f"checkpoint {path} is empty, nothing to corrupt")
    rng = np.random.default_rng(seed)
    offset = int(rng.integers(len(data) // 2, len(data)))
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))
