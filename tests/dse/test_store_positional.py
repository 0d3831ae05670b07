"""Positional store reads: a sweep of the very grid (and chunk size)
that wrote a store's records maps chunk *k* to the record stamped with
its grid tag and *k* — no key block, no digest — while every other grid
and chunking keeps the digest lookup and the join; damage still means
a recompute, never a wrong answer."""

from __future__ import annotations

import pytest

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse.batch import BatchExplorer
from repro.dse.factories import AsymmetricMulticoreFactory, SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.dse.store import _RECORD, GridKeys, PointKeys, ResultStore
from repro.resilience.chunklog import ChunkLog

from .test_parallel_columnar import assert_same_entries

BASELINE = DesignPoint.baseline("1-BCE single core")
FRACTIONS = linear_range(0.5, 0.99, 8)
#: 128 points: four 32-row chunks, or 48 + 48 + 32 rows.
GRID = ParameterGrid({"cores": list(range(1, 17)), "f": FRACTIONS})
#: Half of GRID's cores, half new.
DELTA_GRID = ParameterGrid({"cores": list(range(9, 25)), "f": FRACTIONS})


def _explorer(chunk_size: int = 32, factory=None) -> BatchExplorer:
    return BatchExplorer(
        factory=factory if factory is not None else SymmetricMulticoreFactory(),
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
    )


def _sweep(grid, chunk_size: int = 32, store=None, factory=None):
    explorer = _explorer(chunk_size, factory)
    result = explorer.explore_arrays(grid, store=store)
    return explorer, result


def _assert_same(result, explorer, reference, reference_explorer) -> None:
    assert result.designs == reference.designs
    for name in ("perf", "ncf_fixed_work", "ncf_fixed_time", "codes"):
        column, expected = getattr(result, name), getattr(reference, name)
        assert column.tobytes() == expected.tobytes()
    assert_same_entries(explorer.cache, reference_explorer.cache)


@pytest.fixture
def key_work(monkeypatch):
    """Counts the per-chunk key work a digest lookup needs: key blocks
    built, key bytes encoded and chunk digests taken."""
    calls = {"block": 0, "to_bytes": 0, "digest": 0}

    def counting(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counting(GridKeys, "block")
    counting(PointKeys, "to_bytes")
    counting(PointKeys, "digest")
    return calls


class TestSameGrid:
    def test_warm_read_is_positional(self, tmp_path, key_work):
        _sweep(GRID, store=ResultStore(tmp_path))
        cold_explorer, cold = _sweep(GRID)
        for name in key_work:
            key_work[name] = 0
        store = ResultStore(tmp_path)
        explorer, warm = _sweep(GRID, store=store)
        assert key_work == {"block": 0, "to_bytes": 0, "digest": 0}
        assert store.stats().positional_chunks == 4
        assert store.stats().disk_hits == len(GRID)
        assert explorer.last_sweep.fresh_points == 0
        assert explorer.last_sweep.store_chunks == 4
        _assert_same(warm, explorer, cold, cold_explorer)

    def test_invalid_corners_read_positionally(self, tmp_path):
        grid = ParameterGrid({"n": [2, 3, 4, 8], "m": [1, 2, 4], "f": [0.5, 0.9]})
        factory = AsymmetricMulticoreFactory()
        _sweep(grid, 8, ResultStore(tmp_path), factory)
        cold_explorer, cold = _sweep(grid, 8, factory=factory)
        store = ResultStore(tmp_path)
        explorer, warm = _sweep(grid, 8, store, factory)
        assert store.stats().positional_chunks == 3
        assert explorer.last_sweep.fresh_points == 0
        _assert_same(warm, explorer, cold, cold_explorer)

    def test_records_carry_grid_tag_and_chunk(self, tmp_path):
        _sweep(GRID, 48, ResultStore(tmp_path))
        (run,) = tmp_path.glob("sweeps/*.log")
        records, damage = ChunkLog(run).read()
        assert damage is None
        heads = [_RECORD.unpack_from(payload) for _, payload in records[1:]]
        assert [chunk for _, _, chunk, _ in heads] == [0, 1, 2]
        assert len({tag for _, tag, _, _ in heads}) == 1


class TestOtherGrids:
    def test_other_chunk_size_takes_the_join(self, tmp_path, key_work):
        _sweep(GRID, 32, ResultStore(tmp_path))
        cold_explorer, cold = _sweep(GRID, 16)
        store = ResultStore(tmp_path)
        explorer, warm = _sweep(GRID, 16, store)
        assert store.stats().positional_chunks == 0
        assert store.stats().corrupt == 0
        assert key_work["block"] > 0
        assert explorer.last_sweep.fresh_points == 0
        assert explorer.last_sweep.store_points == len(GRID)
        _assert_same(warm, explorer, cold, cold_explorer)

    def test_delta_grid_takes_the_join(self, tmp_path, key_work):
        _sweep(GRID, store=ResultStore(tmp_path))
        cold_explorer, cold = _sweep(DELTA_GRID)
        store = ResultStore(tmp_path)
        explorer, delta = _sweep(DELTA_GRID, store=store)
        assert store.stats().positional_chunks == 0
        assert store.stats().corrupt == 0
        assert key_work["digest"] > 0
        assert explorer.last_sweep.store_points == len(DELTA_GRID) // 2
        assert explorer.last_sweep.fresh_points == len(DELTA_GRID) // 2
        _assert_same(delta, explorer, cold, cold_explorer)

    def test_chunks_another_grid_stored_first_are_served(self, tmp_path):
        # One core count per 8-row chunk: the small grid's four chunks
        # are the big grid's first four, by key but not by grid tag.
        small = ParameterGrid({"cores": [1, 2, 3, 4], "f": FRACTIONS})
        _sweep(small, 8, ResultStore(tmp_path))
        first_explorer, _ = _sweep(GRID, 8, ResultStore(tmp_path))
        assert first_explorer.last_sweep.store_points == len(small)
        cold_explorer, cold = _sweep(GRID, 8)
        store = ResultStore(tmp_path)
        explorer, warm = _sweep(GRID, 8, store)
        assert store.stats().positional_chunks == 12
        assert store.stats().corrupt == 0
        assert explorer.last_sweep.store_chunks == 16
        assert explorer.last_sweep.fresh_points == 0
        _assert_same(warm, explorer, cold, cold_explorer)


class TestDamage:
    def _warm_after(self, tmp_path, damage):
        """Write GRID's three 48-row-chunk records, let *damage* edit
        the run file, then sweep warm: byte-identical to a cold sweep."""
        _sweep(GRID, 48, ResultStore(tmp_path))
        (run,) = tmp_path.glob("sweeps/*.log")
        damage(run)
        cold_explorer, cold = _sweep(GRID, 48)
        store = ResultStore(tmp_path)
        explorer, warm = _sweep(GRID, 48, store)
        _assert_same(warm, explorer, cold, cold_explorer)
        return store, explorer

    def test_truncated_record_recomputes(self, tmp_path):
        def truncate(run):
            run.write_bytes(run.read_bytes()[:-5])

        store, explorer = self._warm_after(tmp_path, truncate)
        assert store.stats().corrupt == 1
        assert store.stats().positional_chunks == 2
        assert explorer.last_sweep.fresh_points == 32  # the last chunk

    def test_corrupted_record_recomputes(self, tmp_path):
        def flip(run):
            data = bytearray(run.read_bytes())
            data[len(data) // 2] ^= 0xFF  # inside the middle record
            run.write_bytes(bytes(data))

        store, explorer = self._warm_after(tmp_path, flip)
        assert store.stats().corrupt == 1
        assert explorer.last_sweep.fresh_points > 0
        # The recompute rewrote the dropped chunks: warm again.
        healed = ResultStore(tmp_path)
        again, _ = _sweep(GRID, 48, healed)
        assert again.last_sweep.fresh_points == 0
        assert healed.stats().positional_chunks == 3

    def test_record_of_another_row_count_is_not_served(self, tmp_path):
        """A record whose checksum holds but whose head claims chunk 0
        of this grid while holding the 32 rows of chunk 2 is discarded:
        the chunk recomputes, and no lookup serves that record."""

        def restamp(run):
            log = ChunkLog(run)
            (header, *chunks), _ = log.read()
            kind, payload = chunks[2]
            digest, tag, _, size = _RECORD.unpack_from(payload)
            forged = _RECORD.pack(digest, tag, 0, size) + payload[_RECORD.size :]
            log.reset([header, (kind, forged)])

        store, explorer = self._warm_after(tmp_path, restamp)
        assert store.stats().corrupt == 1
        assert store.stats().positional_chunks == 0
        assert explorer.last_sweep.fresh_points == len(GRID)

    @pytest.mark.parametrize("chunk_size", [32, 16])
    def test_undecodable_record_recomputes_on_every_path(self, tmp_path, chunk_size):
        """A record whose checksum holds but whose outcome bytes are 8
        short: the positional read (same chunking) and the join (halved
        chunking) both discard it, count it as corrupt and recompute its
        rows, bit-exact with a cold sweep, cache included."""
        _sweep(GRID, 32, ResultStore(tmp_path))
        (run,) = tmp_path.glob("sweeps/*.log")
        log = ChunkLog(run)
        (header, *chunks), _ = log.read()
        kind, payload = chunks[1]
        chunks[1] = (kind, payload[:-8])
        log.reset([header, *chunks])
        cold_explorer, cold = _sweep(GRID, chunk_size)
        store = ResultStore(tmp_path)
        explorer, warm = _sweep(GRID, chunk_size, store)
        _assert_same(warm, explorer, cold, cold_explorer)
        assert store.stats().corrupt == 1
        assert explorer.last_sweep.fresh_points == 32  # chunk 1's rows
        assert explorer.last_sweep.store_points == len(GRID) - 32

    def test_undecodable_record_is_not_probed(self, tmp_path):
        """The digest lookup a scalar probe takes discards it too."""
        _sweep(GRID, 32, ResultStore(tmp_path))
        (run,) = tmp_path.glob("sweeps/*.log")
        log = ChunkLog(run)
        (header, *chunks), _ = log.read()
        kind, payload = chunks[1]
        log.reset([header, *chunks[:1], (kind, payload[:-8]), *chunks[2:]])
        session = ResultStore(tmp_path).sweep_session(SymmetricMulticoreFactory())
        grid = list(GRID)
        probe = session.probe(grid[32:64])
        assert probe.missing == list(range(32))
        assert session.store.stats().corrupt == 1
        served = session.probe(grid[:32])
        assert served.missing == []
