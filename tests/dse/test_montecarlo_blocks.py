"""Block boundaries of the Monte-Carlo samplers.

Both samplers draw, combine and classify in blocks of
``montecarlo._BLOCK`` samples. Sample counts one below, at, one above
and two blocks past a boundary must give the probabilities, the
checkpoint records (byte for byte), the store segments and the final
generator state of one unblocked draw of the whole stream — serially,
on a pool, at any ``checkpoint_every``, after a kill and resume, and
when replayed from a store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import CATEGORIES, category_counts, classify_arrays
from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import montecarlo
from repro.dse.store import ResultStore, decode_segment, encode_segment
from repro.resilience import CheckpointStore
from repro.resilience.chunklog import ChunkLog

B = montecarlo._BLOCK
SIZES = [B - 1, B, B + 1, 2 * B + 3]
EVERY = [1000, B, 3 * B + 1]
SEED = 11
SIGMA = 0.1

#: NCF crosses 1 inside the alpha band, so verdicts vary.
DESIGN = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
BASELINE = DesignPoint.baseline("baseline")
WEIGHT = EMBODIED_DOMINATED


def _verdicts(samples: int, **kwargs):
    return montecarlo.sample_verdicts(
        DESIGN, BASELINE, WEIGHT, samples=samples, seed=SEED, **kwargs
    )


def _noise(samples: int, **kwargs):
    return montecarlo.sample_measurement_noise(
        DESIGN, BASELINE, WEIGHT.alpha, relative_sigma=SIGMA,
        samples=samples, seed=SEED, **kwargs,
    )


def _unblocked_verdicts(n: int) -> tuple[np.ndarray, dict]:
    """Codes and post-draw state of one whole-array draw of *n* samples."""
    rng = np.random.default_rng(SEED)
    lo, hi = WEIGHT.band
    alphas = rng.uniform(lo, hi, size=n)
    area = DESIGN.area_ratio(BASELINE)
    fw = alphas * area + (1.0 - alphas) * DESIGN.energy_ratio(BASELINE)
    ft = alphas * area + (1.0 - alphas) * DESIGN.power_ratio(BASELINE)
    return classify_arrays(fw, ft), rng.bit_generator.state


def _unblocked_noise(n: int) -> tuple[np.ndarray, dict]:
    rng = np.random.default_rng(SEED)
    noise = rng.lognormal(mean=0.0, sigma=np.log1p(SIGMA), size=(n, 3))
    alpha = WEIGHT.alpha
    area = DESIGN.area_ratio(BASELINE) * noise[:, 0]
    energy = DESIGN.energy_ratio(BASELINE) * noise[:, 1]
    power = DESIGN.power_ratio(BASELINE) * noise[:, 2]
    fw = alpha * area + (1.0 - alpha) * energy
    ft = alpha * area + (1.0 - alpha) * power
    return classify_arrays(fw, ft), rng.bit_generator.state


SAMPLERS = {
    "verdicts": (_verdicts, _unblocked_verdicts),
    "noise": (_noise, _unblocked_noise),
}


@pytest.fixture(params=sorted(SAMPLERS))
def sampler(request):
    return SAMPLERS[request.param]


@pytest.fixture(params=SIZES, ids=["B-1", "B", "B+1", "2B+3"])
def samples(request) -> int:
    return request.param


def _expected_probabilities(codes: np.ndarray) -> dict[str, float]:
    counts = category_counts(codes)
    return {c.name.lower(): counts[c] / codes.size for c in CATEGORIES}


def _probabilities(result) -> dict[str, float]:
    return {c.name.lower(): getattr(result, c.name.lower()) for c in CATEGORIES}


def _expected_records(unblocked, samples: int, every: int) -> list[bytes]:
    """Each ``every``-sample segment as one unblocked draw would record
    it: its codes and the generator state after its last sample."""
    codes, _ = unblocked(samples)
    return [
        encode_segment(start, codes[start : start + every], unblocked(
            min(start + every, samples)
        )[1])
        for start in range(0, samples, every)
    ]


def _chunk_records(path) -> list[bytes]:
    records, damage = ChunkLog(path).read()
    assert damage is None
    return [payload for _, payload in records[1:]]


class Killed(BaseException):
    """Out-of-band kill (BaseException so nothing swallows it)."""


def test_serial_matches_one_unblocked_draw(sampler, samples):
    run, unblocked = sampler
    codes, _ = unblocked(samples)
    assert _probabilities(run(samples)) == _expected_probabilities(codes)


@pytest.mark.parametrize("every", EVERY, ids=["1000", "B", "3B+1"])
def test_checkpoint_records_match_one_unblocked_draw(
    sampler, samples, every, tmp_path
):
    run, unblocked = sampler
    ckpt = tmp_path / "mc.ckpt"
    result = run(samples, checkpoint=ckpt, checkpoint_every=every)
    records = _chunk_records(ckpt)
    assert records == _expected_records(unblocked, samples, every)
    # The last record carries the final state of the unblocked draw.
    assert decode_segment(records[-1])[2] == unblocked(samples)[1]
    assert _probabilities(result) == _expected_probabilities(unblocked(samples)[0])


def test_pool_writes_the_serial_checkpoint_bytes(sampler, samples, tmp_path):
    run, unblocked = sampler
    serial, pooled = tmp_path / "serial.ckpt", tmp_path / "pooled.ckpt"
    a = run(samples, checkpoint=serial, checkpoint_every=1000)
    b = run(samples, checkpoint=pooled, checkpoint_every=1000, workers=2)
    assert a == b
    assert pooled.read_bytes() == serial.read_bytes()
    assert _probabilities(run(samples, workers=2)) == _probabilities(a)


@pytest.mark.parametrize("every", [1000, B], ids=["1000", "B"])
def test_kill_and_resume_writes_the_uninterrupted_bytes(
    sampler, samples, every, tmp_path, monkeypatch
):
    run, _ = sampler
    whole = tmp_path / "whole.ckpt"
    reference = run(samples, checkpoint=whole, checkpoint_every=every)
    # With one segment the kill lands after the last commit: the resume
    # then replays a complete checkpoint.
    commits = {"n": 0}
    real_commit = CheckpointStore.commit

    def killed_after_first(self, **kwargs):
        committed = real_commit(self, **kwargs)
        commits["n"] += 1
        if commits["n"] == 1:
            raise Killed()
        return committed

    killed = tmp_path / "killed.ckpt"
    with monkeypatch.context() as patch:
        patch.setattr(CheckpointStore, "commit", killed_after_first)
        with pytest.raises(Killed):
            run(samples, checkpoint=killed, checkpoint_every=every)
    assert len(_chunk_records(killed)) == 1
    resumed = run(samples, checkpoint=killed, resume=True, checkpoint_every=every)
    assert resumed == reference
    assert killed.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("every", EVERY, ids=["1000", "B", "3B+1"])
def test_store_replay_is_identical_and_draws_nothing(
    sampler, samples, every, tmp_path
):
    run, unblocked = sampler
    root = tmp_path / "store"
    first = run(samples, store=ResultStore(root), checkpoint_every=every)
    segments = sorted((root / "mc").glob("*"))
    assert len(segments) == 1
    stored = segments[0].read_bytes()
    assert _chunk_records(segments[0]) == _expected_records(unblocked, samples, every)
    replay_store = ResultStore(root)
    replay = run(samples, store=replay_store, checkpoint_every=every)
    assert replay == first
    assert replay_store.stats().misses == 0
    assert replay_store.stats().disk_hits == samples
    assert segments[0].read_bytes() == stored
