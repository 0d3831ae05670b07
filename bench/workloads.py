"""The benchmark's four workloads: inputs, timed operations and oracles.

Every workload is built from ``(seed, scale)`` alone and hands the
program only the generated inputs. A workload is a list of operation
*kinds*; one round runs every kind once, and the runner cycles rounds
round-robin until the time budget is spent, so slow drift on the host
(page cache, CPU frequency, neighbours) lands on every kind equally
instead of on whichever kind happened to run last.

Every operation is checked against a reference computed before timing
starts, in a process of its own (:meth:`Workload.compute_oracle`), so
the oracle's memory never shows in the workload's peak RSS. An
operation whose output fails its oracle counts as failed and its time
is dropped.

``repro`` is imported inside the workload constructors, never at module
level: the set-up time a fresh process pays (interpreter, imports,
input construction) is one of the benchmark's end-to-end metrics.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Workload names, in the order ``run.py`` runs them.
WORKLOADS = ("cli", "sweep_stock", "sweep_durable", "compute_pool")

#: Rounds run even when one round outlasts the time budget, so every
#: median has at least this many samples.
MIN_ROUNDS = 3


def scaled(full: int, scale: float, minimum: int) -> int:
    """*full* shrunk by *scale* (the smoke test's tiny runs), never
    below *minimum*; ``scale=1`` is the benchmark's real size."""
    return max(minimum, round(full * scale))


def child_env(workdir: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts: the
    checkout's ``src`` on the path and temp files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


def digest(result) -> str:
    """Byte digest of a sweep's result columns."""
    h = hashlib.sha256()
    for column in (
        result.ncf_fixed_work,
        result.ncf_fixed_time,
        result.perf,
        result.codes,
    ):
        h.update(column.tobytes())
    return h.hexdigest()


def category_name(category) -> str:
    """``Sustainability.STRONG`` -> ``"strong"``, the field name
    ``CategoryProbabilities`` uses."""
    return category.name.lower()


def count_names(counts: dict) -> dict[str, int]:
    """A category histogram keyed by category name (JSON-able)."""
    return {category_name(category): int(n) for category, n in counts.items() if n}


@dataclass
class Op:
    """One timed operation: ``prepare`` (untimed), ``run`` (timed) and
    ``verify`` (untimed oracle over what ``run`` returned)."""

    kind: str
    run: Callable[[], object]
    verify: Callable[[object], bool]
    prepare: Callable[[], None] | None = None


class Workload:
    """Base class: subclasses build their inputs in ``__init__`` (the
    measured set-up), compute JSON-able references in
    :meth:`compute_oracle` (untimed, in its own process) and list one
    round's operations in :meth:`round_ops`, whose ``verify`` callbacks
    read the references from ``self.ref``."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ref: dict = {}

    def compute_oracle(self) -> dict:
        """References for every operation, plus ``checks``: sanity
        checks of the references themselves (engine vs scalar
        ``Explorer``), any of which failing makes the run incorrect."""
        raise NotImplementedError

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the workload left on disk."""


# ----------------------------------------------------------------------
# Shared sweep inputs and oracles
# ----------------------------------------------------------------------
def fraction_axis(rng: random.Random, steps: int) -> list[float]:
    """The ``f`` axis: *steps* values over [0.50, 0.99] shifted by a
    seed-chosen offset below 0.005 (so every value stays a valid
    fraction and no two seeds sweep the same points)."""
    from repro.dse.grid import linear_range

    offset = rng.uniform(0.0, 0.005)
    return [value + offset for value in linear_range(0.50, 0.99, steps)]


def strided(rng: random.Random, values: list, keep: int) -> list:
    """About *keep* evenly strided values of an axis, from a
    seed-chosen offset (the whole axis when it is that short)."""
    stride = max(1, len(values) // keep)
    return values[rng.randrange(stride) :: stride]


def scalar_matches(factory, baseline, weight, result, sub_grid) -> bool:
    """Whether every point of *sub_grid* evaluated by the scalar
    ``Explorer`` matches the engine *result*'s row for it, bit for bit
    (perf, both NCFs and the category)."""
    from repro.core.batch import CATEGORIES
    from repro.dse.explorer import Explorer

    rows = {
        tuple(sorted(params.items())): row
        for row, params in enumerate(result.params)
    }
    scalar = Explorer(factory, baseline, weight).explore(sub_grid)
    for point in scalar:
        row = rows.get(tuple(sorted(point.params.items())))
        if row is None or (
            float(result.perf[row]) != point.perf
            or float(result.ncf_fixed_work[row]) != point.ncf_fixed_work
            or float(result.ncf_fixed_time[row]) != point.ncf_fixed_time
            or CATEGORIES[int(result.codes[row])] is not point.category
        ):
            return False
    return bool(scalar)


class _SweepWorkload(Workload):
    """Common inputs of the sweep workloads: the stock baseline and
    weight the paper's sweep studies use, and the engine's default
    chunk size unless a workload sets its own."""

    chunk_size = 1024

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        from repro.core.design import DesignPoint
        from repro.core.scenario import EMBODIED_DOMINATED
        from repro.dse.batch import BatchExplorer
        from repro.dse.grid import ParameterGrid

        self.BatchExplorer = BatchExplorer
        self.ParameterGrid = ParameterGrid
        self.baseline = DesignPoint.baseline("1-BCE single core")
        self.weight = EMBODIED_DOMINATED

    def explorer(self, factory=None, **options):
        return self.BatchExplorer(
            factory or self.factory,
            self.baseline,
            self.weight,
            chunk_size=self.chunk_size,
            **options,
        )

    def same_as(self, key: str) -> Callable[[object], bool]:
        return lambda result: digest(result) == self.ref[key]


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------
class CliWorkload(Workload):
    """``focal figure figureN --format json`` and ``focal findings`` as
    ``python -m repro`` processes: the user path for the paper itself,
    dominated by interpreter start-up and imports.

    A round is one figure and ``findings``, in a seed-chosen order. The
    figure cycles through figure1..figure9 in a seed-shuffled sequence,
    so every figure runs within nine rounds, and both kinds of command
    collect enough samples in one run for a steady median.
    """

    name = "cli"
    kinds = ("figure", "findings")

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        figures = [f"figure{i}" for i in range(1, 10)]
        self.figures = figures[: scaled(len(figures), scale, 1)]
        self.rng.shuffle(self.figures)
        self.rounds = 0
        self.env = child_env(workdir)

    def compute_oracle(self) -> dict:
        from repro.report.export import figure_to_json
        from repro.studies.findings import all_findings
        from repro.studies.registry import run_study

        checks = all_findings()
        return {
            "stdout": {name: figure_to_json(run_study(name)) + "\n" for name in self.figures},
            "findings_total": len(checks),
            "checks": {"findings_pass": all(check.passed for check in checks)},
        }

    def _call(self, *command: str):
        return subprocess.run(
            [sys.executable, "-m", "repro", *command],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=60,
        )

    def _figure_ok(self, figure: str, proc) -> bool:
        return proc.returncode == 0 and proc.stdout == self.ref["stdout"][figure]

    def _findings_ok(self, proc) -> bool:
        total = self.ref["findings_total"]
        return proc.returncode == 0 and proc.stdout.rstrip().endswith(
            f"{total}/{total} checks pass"
        )

    def round_ops(self) -> list[Op]:
        figure = self.figures[self.rounds % len(self.figures)]
        self.rounds += 1
        ops = [
            Op(
                "figure",
                lambda: self._call("figure", figure, "--format", "json"),
                lambda proc: self._figure_ok(figure, proc),
            ),
            Op("findings", lambda: self._call("findings"), self._findings_ok),
        ]
        self.rng.shuffle(ops)
        return ops


# ----------------------------------------------------------------------
# sweep_stock
# ----------------------------------------------------------------------
class SweepStockWorkload(_SweepWorkload):
    """Stock-factory sweeps without durable state: the kernel-bound
    ``count_categories``, a cold ``explore_arrays`` (mostly DesignPoint
    materialization), a warm-cache re-sweep, and a cold sweep of an
    asymmetric grid whose invalid corners take the scalar fallback."""

    name = "sweep_stock"
    kinds = ("count", "explore", "resweep", "explore_asym")

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        from repro.dse.factories import (
            AsymmetricMulticoreFactory,
            SymmetricMulticoreFactory,
        )

        self.factory = SymmetricMulticoreFactory()
        self.asym_factory = AsymmetricMulticoreFactory()
        self.cores = list(range(1, scaled(400, scale, 4) + 1))
        self.fractions = fraction_axis(self.rng, scaled(250, scale, 4))
        self.grid = self.ParameterGrid({"cores": self.cores, "f": self.fractions})
        offset = self.fractions[0] - 0.50
        self.asym_axes = {
            "n": list(range(2, scaled(128, scale, 4) + 2)),
            "m": list(range(1, scaled(128, scale, 4) + 1)),
            "f": [0.5 + offset, 0.9 + offset, 0.99 + offset],
        }
        self.asym_grid = self.ParameterGrid(self.asym_axes)
        #: The explorer the cold ``explore`` left warm for ``resweep``.
        self.warm = None

    def compute_oracle(self) -> dict:
        ref = self.explorer().explore_arrays(self.grid)
        sub = self.ParameterGrid(
            {
                "cores": strided(self.rng, self.cores, 24),
                "f": strided(self.rng, self.fractions, 11),
            }
        )
        asym = self.explorer(self.asym_factory).explore_arrays(self.asym_grid)
        asym_sub = self.ParameterGrid(
            {
                "n": strided(self.rng, self.asym_axes["n"], 14),
                "m": strided(self.rng, self.asym_axes["m"], 14),
                "f": self.asym_axes["f"],
            }
        )
        return {
            "sweep": digest(ref),
            "counts": count_names(ref.category_counts()),
            "asym": digest(asym),
            "checks": {
                "scalar_explorer": scalar_matches(
                    self.factory, self.baseline, self.weight, ref, sub
                ),
                "scalar_explorer_asym": scalar_matches(
                    self.asym_factory, self.baseline, self.weight, asym, asym_sub
                ),
            },
        }

    def _explore(self):
        explorer = self.explorer()
        result = explorer.explore_arrays(self.grid)
        self.warm = explorer
        return result, result.category_counts()

    def _ensure_warm(self) -> None:
        if self.warm is None:
            self._explore()

    def _drop_warm(self) -> None:
        self.warm = None

    def round_ops(self) -> list[Op]:
        return [
            Op(
                "count",
                lambda: self.explorer().count_categories(self.grid),
                lambda counts: count_names(counts) == self.ref["counts"],
            ),
            Op(
                "explore",
                self._explore,
                lambda out: digest(out[0]) == self.ref["sweep"]
                and count_names(out[1]) == self.ref["counts"],
                prepare=self._drop_warm,
            ),
            Op(
                "resweep",
                lambda: self.warm.explore_arrays(self.grid),
                self.same_as("sweep"),
                prepare=self._ensure_warm,
            ),
            Op(
                "explore_asym",
                lambda: self.explorer(self.asym_factory).explore_arrays(
                    self.asym_grid
                ),
                self.same_as("asym"),
                prepare=self._drop_warm,
            ),
        ]


# ----------------------------------------------------------------------
# sweep_durable
# ----------------------------------------------------------------------
class SweepDurableWorkload(_SweepWorkload):
    """The same durable layers used as writes (checkpointed sweep, cold
    store), reads (resume, warm store) and mixed (a delta sweep of a
    50%-overlapping grid), so a format change that speeds one side and
    slows the other shows. 49 chunks make the checkpoint's per-chunk
    rewrite of its whole state the dominant cost."""

    name = "sweep_durable"
    kinds = ("checkpoint", "resume", "store_cold", "store_warm", "store_delta")

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        from repro.dse.factories import SymmetricMulticoreFactory
        from repro.dse.store import ResultStore

        self.ResultStore = ResultStore
        self.factory = SymmetricMulticoreFactory()
        # 10,000 points in 49 chunks: enough chunks that the quadratic
        # checkpoint rewrite dominates, small enough that a run holds
        # ~15 rounds (medians over fewer scatter too much on a busy host).
        self.chunk_size = scaled(205, scale, 16)
        n_cores = scaled(40, scale, 4)
        self.fractions = fraction_axis(self.rng, scaled(250, scale, 4))
        self.cores = list(range(1, n_cores + 1))
        half = n_cores // 2
        self.delta_cores = list(range(half + 1, half + n_cores + 1))
        self.grid = self.ParameterGrid({"cores": self.cores, "f": self.fractions})
        self.delta_grid = self.ParameterGrid(
            {"cores": self.delta_cores, "f": self.fractions}
        )
        self.state_dir = workdir / "durable"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint = self.state_dir / "sweep.ckpt.json"
        self.store_dir = self.state_dir / "store"
        self.delta_dir = self.state_dir / "store-delta"

    def compute_oracle(self) -> dict:
        ref = self.explorer().explore_arrays(self.grid)
        sub = self.ParameterGrid(
            {
                "cores": strided(self.rng, self.cores, 9),
                "f": strided(self.rng, self.fractions, 11),
            }
        )
        return {
            "sweep": digest(ref),
            "delta": digest(self.explorer().explore_arrays(self.delta_grid)),
            "checks": {
                "scalar_explorer": scalar_matches(
                    self.factory, self.baseline, self.weight, ref, sub
                ),
            },
        }

    def _remove_checkpoint(self) -> None:
        self.checkpoint.unlink(missing_ok=True)

    def _empty_store(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _copy_store(self) -> None:
        """The delta sweep runs against a copy, so it never adds the
        delta grid's points to the store the next round reads warm."""
        shutil.rmtree(self.delta_dir, ignore_errors=True)
        if self.store_dir.exists():
            shutil.copytree(self.store_dir, self.delta_dir)

    def round_ops(self) -> list[Op]:
        # Stores are opened inside the timed call: a newly opened store
        # reads its index and objects from disk, which is the cost a
        # user's next process pays.
        def sweep(grid, **durable):
            return self.explorer().explore_arrays(grid, **durable)

        store = self.ResultStore
        return [
            Op(
                "checkpoint",
                lambda: sweep(self.grid, checkpoint=self.checkpoint),
                self.same_as("sweep"),
                prepare=self._remove_checkpoint,
            ),
            Op(
                "resume",
                lambda: sweep(self.grid, checkpoint=self.checkpoint, resume=True),
                self.same_as("sweep"),
            ),
            Op(
                "store_cold",
                lambda: sweep(self.grid, store=store(self.store_dir)),
                self.same_as("sweep"),
                prepare=self._empty_store,
            ),
            Op(
                "store_warm",
                lambda: sweep(self.grid, store=store(self.store_dir)),
                self.same_as("sweep"),
            ),
            Op(
                "store_delta",
                lambda: sweep(self.delta_grid, store=store(self.delta_dir)),
                self.same_as("delta"),
                prepare=self._copy_store,
            ),
        ]

    def close(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# compute_pool
# ----------------------------------------------------------------------
#: Samples the scalar Monte-Carlo oracles convert to Python floats at
#: once (bounds the oracle process's memory).
_ORACLE_BLOCK = 100_000


def scalar_verdict_counts(design, baseline, weight, samples, seed) -> dict[str, int]:
    """``sample_verdicts``'s category counts recomputed one sample at a
    time with the scalar classifier, from the same generator stream."""
    import numpy as np

    from repro.core.classify import classify_values

    lo, hi = weight.band
    area = design.area_ratio(baseline)
    energy = design.energy_ratio(baseline)
    power = design.power_ratio(baseline)
    alphas = np.random.default_rng(seed).uniform(lo, hi, size=samples)
    counts: dict[str, int] = {}
    for start in range(0, samples, _ORACLE_BLOCK):
        for a in alphas[start : start + _ORACLE_BLOCK].tolist():
            verdict = classify_values(
                a * area + (1.0 - a) * energy, a * area + (1.0 - a) * power
            )
            name = category_name(verdict)
            counts[name] = counts.get(name, 0) + 1
    return counts


def scalar_noise_counts(
    design, baseline, alpha, samples, seed, relative_sigma=0.1
) -> dict[str, int]:
    """``sample_measurement_noise``'s category counts recomputed one
    sample at a time with the scalar classifier."""
    import numpy as np

    from repro.core.classify import classify_values

    area_ratio = design.area_ratio(baseline)
    energy_ratio = design.energy_ratio(baseline)
    power_ratio = design.power_ratio(baseline)
    noise = np.random.default_rng(seed).lognormal(
        mean=0.0, sigma=np.log1p(relative_sigma), size=(samples, 3)
    )
    counts: dict[str, int] = {}
    for start in range(0, samples, _ORACLE_BLOCK):
        for n_area, n_energy, n_power in noise[
            start : start + _ORACLE_BLOCK
        ].tolist():
            area = area_ratio * n_area
            verdict = classify_values(
                alpha * area + (1.0 - alpha) * (energy_ratio * n_energy),
                alpha * area + (1.0 - alpha) * (power_ratio * n_power),
            )
            name = category_name(verdict)
            counts[name] = counts.get(name, 0) + 1
    return counts


def probabilities_match(probs, counts: dict[str, int], samples: int) -> bool:
    """Exact equality of a sampler's probabilities with *counts*."""
    return probs.samples == samples and all(
        getattr(probs, name) == counts.get(name, 0) / samples
        for name in ("strong", "weak", "less", "neutral")
    )


class ComputePoolWorkload(_SweepWorkload):
    """A compute-heavy sweep at ``workers="auto"`` (the process pool
    and shard scheduler) and both Monte-Carlo samplers: the only
    workload where the pool and the samplers do real work."""

    name = "compute_pool"
    kinds = ("heavy_sweep", "mc_verdicts", "mc_noise")

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        from repro.core.design import DesignPoint
        from repro.dse import montecarlo
        from repro.dse.factories import IterativeFixedPointFactory

        self.montecarlo = montecarlo
        #: NCF crosses 1 inside the alpha band, so verdicts vary.
        self.design = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
        self.factory = IterativeFixedPointFactory(iters=scaled(2500, scale, 10))
        self.cores = list(range(1, scaled(160, scale, 4) + 1))
        self.fractions = fraction_axis(self.rng, scaled(250, scale, 4))
        self.grid = self.ParameterGrid({"cores": self.cores, "f": self.fractions})
        self.samples = scaled(2_000_000, scale, 1000)
        self.mc_seed = self.rng.randrange(2**31)

    def compute_oracle(self) -> dict:
        ref = self.explorer().explore_arrays(self.grid)
        sub = self.ParameterGrid(
            {
                "cores": strided(self.rng, self.cores, 4),
                "f": strided(self.rng, self.fractions, 5),
            }
        )
        return {
            "sweep": digest(ref),
            "verdicts": scalar_verdict_counts(
                self.design, self.baseline, self.weight, self.samples, self.mc_seed
            ),
            "noise": scalar_noise_counts(
                self.design,
                self.baseline,
                self.weight.alpha,
                self.samples,
                self.mc_seed,
            ),
            "checks": {
                "scalar_explorer": scalar_matches(
                    self.factory, self.baseline, self.weight, ref, sub
                ),
            },
        }

    def round_ops(self) -> list[Op]:
        mc = self.montecarlo
        return [
            Op(
                "heavy_sweep",
                lambda: self.explorer(workers="auto").explore_arrays(self.grid),
                self.same_as("sweep"),
            ),
            Op(
                "mc_verdicts",
                lambda: mc.sample_verdicts(
                    self.design,
                    self.baseline,
                    self.weight,
                    samples=self.samples,
                    seed=self.mc_seed,
                ),
                lambda probs: probabilities_match(
                    probs, self.ref["verdicts"], self.samples
                ),
            ),
            Op(
                "mc_noise",
                lambda: mc.sample_measurement_noise(
                    self.design,
                    self.baseline,
                    self.weight.alpha,
                    samples=self.samples,
                    seed=self.mc_seed,
                ),
                lambda probs: probabilities_match(
                    probs, self.ref["noise"], self.samples
                ),
            ),
        ]


CLASSES: dict[str, type[Workload]] = {
    "cli": CliWorkload,
    "sweep_stock": SweepStockWorkload,
    "sweep_durable": SweepDurableWorkload,
    "compute_pool": ComputePoolWorkload,
}


# ----------------------------------------------------------------------
# The round-robin runner and the metrics it reports
# ----------------------------------------------------------------------
#: Size of the calibration work (see :func:`calibrate`): ~15 ms on the
#: 2-CPU host ``LEDGER.md`` was measured on.
CALIBRATION_ROWS = 60_000
CALIBRATION_FLOATS = 1_000_000


@functools.lru_cache(maxsize=1)
def _calibration_data():
    import numpy as np

    return np.random.default_rng(0).random(CALIBRATION_FLOATS)


def calibrate() -> float:
    """Seconds a fixed piece of harness-only work takes right now.

    Shared hosts change speed by 10-40% within minutes as neighbours
    come and go, and every operation slows together; dividing by this
    cancels most of that. The work has the shape of this program's:
    small tuples, strings and floats, a dict built over them, and a
    NumPy pass over 8 MB (of the shapes tried, it tracked the
    operations' slowdowns best). It touches no ``repro`` code, so no
    change to the program can move it, and it runs with the collector
    off, so the size of the program's heap cannot leak into it."""
    data = _calibration_data()
    gc.disable()
    try:
        begin = time.perf_counter()
        rows = [(i, str(i), i * 0.5) for i in range(CALIBRATION_ROWS)]
        index = {row[1]: row for row in rows}
        sum(len(key) for key in index)
        (data**0.5).sum()
        return time.perf_counter() - begin
    finally:
        gc.enable()


#: Calibrations on each side of an operation whose median is its
#: reference: wide enough to average out one calibration's own noise,
#: narrow enough (a second or two) to follow the host's drift.
CALIBRATION_WINDOW = 3


@dataclass
class Timed:
    """One timed operation; ``calibration`` indexes the calibration
    that ran just before it (the next one ran just after it)."""

    round: int
    kind: str
    seconds: float
    ok: bool
    calibration: int


@dataclass
class RoundsResult:
    """The timeline of one run: every operation in order and every
    calibration between them."""

    kinds: tuple[str, ...]
    ops: list[Timed] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def normalized(self, op: Timed) -> float:
        """The operation's seconds over the median of the calibrations
        within :data:`CALIBRATION_WINDOW` places of it."""
        first = max(0, op.calibration + 1 - CALIBRATION_WINDOW)
        window = self.calibrations[first : op.calibration + 1 + CALIBRATION_WINDOW]
        return op.seconds / statistics.median(window)

    def by_kind(self, normalized: bool = True) -> dict[str, list[float]]:
        """Times of the operations that passed their oracle, per kind."""
        out: dict[str, list[float]] = {kind: [] for kind in self.kinds}
        for op in self.ops:
            if op.ok:
                out[op.kind].append(self.normalized(op) if normalized else op.seconds)
        return out

    def round_totals(
        self, normalized: bool = True, parity: int | None = None
    ) -> list[float]:
        """Total time of every round whose operations all passed
        (only the even or odd rounds when *parity* is given)."""
        totals: dict[int, float] = {}
        failed: set[int] = set()
        for op in self.ops:
            if parity is not None and op.round % 2 != parity:
                continue
            if not op.ok:
                failed.add(op.round)
            value = self.normalized(op) if normalized else op.seconds
            totals[op.round] = totals.get(op.round, 0.0) + value
        return [total for index, total in totals.items() if index not in failed]


def run_rounds(
    workload: Workload,
    seconds: float,
    *,
    min_rounds: int = MIN_ROUNDS,
    before_round: Callable[[int], None] | None = None,
    after_round: Callable[[int], None] | None = None,
    around_op: Callable[[int, str], ContextManager] | None = None,
) -> RoundsResult:
    """Cycle the workload's rounds until *seconds* have passed (and at
    least *min_rounds* ran).

    A calibration (:func:`calibrate`) runs before the first operation
    and after every operation, so each operation's normalized time
    (:meth:`RoundsResult.normalized`) is taken against the host's speed
    at the moment it ran. ``gc.collect()`` runs before every timed
    operation so one operation's garbage is not collected on the next
    one's clock. The hooks let the traced run switch tracing on and off
    per round and put each operation in a span.
    """
    around_op = around_op or (lambda index, kind: nullcontext())
    out = RoundsResult(tuple(workload.kinds))
    out.calibrations.append(calibrate())
    start = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - start < seconds:
        if before_round is not None:
            before_round(index)
        for op in workload.round_ops():
            if op.prepare is not None:
                op.prepare()
            gc.collect()
            error = None
            with around_op(index, op.kind):
                begin = time.perf_counter()
                try:
                    output = op.run()
                except Exception as exc:  # a crashing op is a failed op
                    output, error = None, exc
                elapsed = time.perf_counter() - begin
            ok = error is None and bool(op.verify(output))
            out.ops.append(
                Timed(index, op.kind, elapsed, ok, len(out.calibrations) - 1)
            )
            out.calibrations.append(calibrate())
            if not ok:
                reason = f"raised {error!r}" if error else "failed its oracle"
                print(f"{workload.name}: {op.kind} {reason}", file=sys.stderr)
        if after_round is not None:
            after_round(index)
        index += 1
    return out


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (
        position - low
    )


def summarize(rounds: RoundsResult) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end latency metrics and the named raw medians.

    ``round_ref`` is the median normalized round total. ``op_min_ref``
    .. ``op_max_ref`` are the 0/25/50/75/100% quantiles, over the
    workload's operation kinds, of each kind's median normalized time.
    With five kinds they are exactly the five sorted medians; with
    fewer, every kind still carries at least half the weight of some
    quantile, so a regression in any single kind moves a metric. The
    named values are every kind's median, normalized (``<kind>_ref``)
    and in plain seconds (``<kind>_s``), plus the calibration's own
    median, which converts between the two.
    """
    medians = {
        kind: statistics.median(times)
        for kind, times in rounds.by_kind().items()
        if times
    }
    round_totals = rounds.round_totals()
    if not medians or not round_totals:
        raise RuntimeError("no complete round passed its oracles")
    ordered = sorted(medians.values())
    metrics = {
        "round_ref": statistics.median(round_totals),
        "op_min_ref": ordered[0],
        "op_q25_ref": quantile(ordered, 0.25),
        "op_median_ref": quantile(ordered, 0.5),
        "op_q75_ref": quantile(ordered, 0.75),
        "op_max_ref": ordered[-1],
    }
    named = {f"{kind}_ref": value for kind, value in medians.items()}
    named.update(
        (f"{kind}_s", statistics.median(times))
        for kind, times in rounds.by_kind(normalized=False).items()
        if times
    )
    named["round_s"] = statistics.median(rounds.round_totals(normalized=False))
    named["calibration_ms"] = statistics.median(rounds.calibrations) * 1e3
    return metrics, named


def cli_percentiles(rounds: RoundsResult) -> dict[str, float]:
    """p50 and p80 over every CLI call of the run (``cli`` only)."""
    calls = sorted(op.seconds for op in rounds.ops if op.ok)
    return {
        "cli_p50_ms": quantile(calls, 0.5) * 1e3,
        "cli_p80_ms": quantile(calls, 0.8) * 1e3,
    }
