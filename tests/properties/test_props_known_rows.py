"""Property-based known rows: whatever mix of a restored checkpoint
prefix, a store holding a subgrid, a cache warmed by a subgrid and
ledger-known poison a sweep starts from, it ends byte-identical to a
cold serial sweep — result arrays, cache entries, checkpoint bytes —
and evaluates exactly the rows no source knew."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse.batch import BatchExplorer
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.dse.store import ResultStore
from repro.resilience import CheckpointStore, QuarantineLedger, sweep_fingerprint
from repro.resilience.checkpoint import describe_factory

from ..dse.test_parallel_columnar import assert_same_entries

BASELINE = DesignPoint.baseline("1-BCE single core")
FACTORY = SymmetricMulticoreFactory()
FRACTIONS = linear_range(0.5, 0.99, 5)


def _explorer(chunk_size: int) -> BatchExplorer:
    return BatchExplorer(
        factory=FACTORY,
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
    )


def _key(params) -> tuple:
    return tuple(sorted(params.items()))


@st.composite
def sweeps(draw):
    """A grid, a chunk size and a random mix of known rows."""
    cores = draw(
        st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True)
    )
    grid = ParameterGrid({"cores": cores, "f": FRACTIONS})
    chunk_size = draw(st.integers(1, 12))
    chunks = -(-len(grid) // chunk_size)

    def subgrid():
        """A random subgrid of *grid*, or ``None`` (no such source)."""
        picked = draw(st.lists(st.sampled_from(cores), unique=True))
        if not picked:
            return None
        fractions = draw(
            st.lists(st.sampled_from(FRACTIONS), min_size=1, unique=True)
        )
        return ParameterGrid({"cores": picked, "f": fractions})

    stored, warm = subgrid(), subgrid()
    stored_keys = {_key(params) for params in stored or ()}
    # Poison sits in chunks the store holds no row of, so no chunk's
    # known rows mix quarantine markers with stored outcomes.
    stored_chunks = {
        row // chunk_size
        for row, params in enumerate(grid)
        if _key(params) in stored_keys
    }
    candidates = [
        row for row in range(len(grid)) if row // chunk_size not in stored_chunks
    ]
    poison = (
        draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
        if candidates
        else []
    )
    return {
        "grid": grid,
        "chunk_size": chunk_size,
        "prefix": draw(st.integers(0, chunks)),
        "stored": stored,
        "warm": warm,
        "poison": poison,
    }


@settings(max_examples=30, deadline=None)
@given(sweep=sweeps())
def test_known_rows_never_change_the_sweep(sweep):
    grid, chunk_size = sweep["grid"], sweep["chunk_size"]
    points = list(grid)
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        ledger = QuarantineLedger(root / "ledger.json")
        for row in sweep["poison"]:
            ledger.record(
                describe_factory(FACTORY), points[row], kind="crash", reason="test"
            )
        cold = _explorer(chunk_size)
        reference = cold.explore_arrays(
            grid, checkpoint=root / "cold.ckpt", quarantine=ledger
        )

        # A run killed after `prefix` chunks left this checkpoint.
        fingerprint = sweep_fingerprint(
            axes=grid.axes,
            chunk_size=chunk_size,
            baseline=BASELINE,
            alpha=EMBODIED_DOMINATED.alpha,
            factory=FACTORY,
        )
        full = CheckpointStore(root / "cold.ckpt").load(
            kind="sweep", fingerprint=fingerprint
        )
        CheckpointStore(root / "warm.ckpt").save(
            kind="sweep",
            fingerprint=fingerprint,
            state={"chunks": full["chunks"][: sweep["prefix"]]},
        )
        store = None
        if sweep["stored"] is not None:
            _explorer(chunk_size).explore_arrays(
                sweep["stored"], store=ResultStore(root / "store")
            )
            store = ResultStore(root / "store")
        explorer = _explorer(chunk_size)
        if sweep["warm"] is not None:
            explorer.explore_arrays(sweep["warm"])
        misses = explorer.cache.misses
        result = explorer.explore_arrays(
            grid,
            checkpoint=root / "warm.ckpt",
            resume=True,
            store=store,
            quarantine=QuarantineLedger(root / "ledger.json"),
        )

        known = {
            _key(params)
            for source in (sweep["stored"], sweep["warm"])
            for params in source or ()
        }
        unknown = sum(
            1
            for row, params in enumerate(points)
            if row // chunk_size >= sweep["prefix"]
            and row not in sweep["poison"]
            and _key(params) not in known
        )
        assert explorer.last_sweep.fresh_points == unknown
        assert explorer.cache.misses - misses == unknown
        assert result.params == reference.params
        assert result.designs == reference.designs
        assert result.quarantined == reference.quarantined
        for name in ("perf", "ncf_fixed_work", "ncf_fixed_time", "codes"):
            assert (
                getattr(result, name).tobytes()
                == getattr(reference, name).tobytes()
            )
        assert_same_entries(explorer.cache, cold.cache)
        assert (root / "warm.ckpt").read_bytes() == (root / "cold.ckpt").read_bytes()
