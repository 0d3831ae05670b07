"""Checkpointed Monte-Carlo: the sample stream survives a kill."""

from __future__ import annotations

import pytest

from repro.core.design import DesignPoint
from repro.core.errors import CheckpointError, ConfigurationError, ValidationError
from repro.core.scenario import BALANCED
from repro.dse.montecarlo import sample_measurement_noise, sample_verdicts
from repro.resilience import CheckpointStore, truncate_checkpoint

SAMPLES = 8192


class Killed(BaseException):
    """Out-of-band kill signal (BaseException so nothing swallows it)."""


@pytest.fixture
def design() -> DesignPoint:
    return DesignPoint("candidate", area=1.2, perf=1.4, power=1.1)


@pytest.fixture
def mc_baseline() -> DesignPoint:
    return DesignPoint.baseline("baseline")


@pytest.fixture
def kill_after(monkeypatch):
    """Kill the sampler after its Nth checkpoint commit."""

    def arm(count: int):
        commits = {"n": 0}
        real_commit = CheckpointStore.commit

        def bombed(self, **kwargs):
            committed = real_commit(self, **kwargs)
            commits["n"] += 1
            if commits["n"] == count:
                raise Killed()
            return committed

        monkeypatch.setattr(CheckpointStore, "commit", bombed)

    return arm


class TestSampleVerdicts:
    def test_chunked_equals_single_shot(self, design, mc_baseline, tmp_path):
        reference = sample_verdicts(design, mc_baseline, BALANCED, samples=SAMPLES, seed=9)
        chunked = sample_verdicts(
            design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
            checkpoint=tmp_path / "v.ckpt", checkpoint_every=1000,
        )
        assert chunked == reference

    def test_kill_and_resume_bit_exact(self, design, mc_baseline, tmp_path, kill_after):
        reference = sample_verdicts(design, mc_baseline, BALANCED, samples=SAMPLES, seed=9)
        ckpt = tmp_path / "v.ckpt"
        kill_after(3)
        with pytest.raises(Killed):
            sample_verdicts(
                design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
                checkpoint=ckpt, checkpoint_every=1000,
            )
        resumed = sample_verdicts(
            design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
            checkpoint=ckpt, resume=True, checkpoint_every=1000,
        )
        assert resumed == reference

    def test_resume_chunking_may_differ(self, design, mc_baseline, tmp_path, kill_after):
        """The stream is split-invariant: resuming with a different
        chunk size still reproduces the single-shot probabilities."""
        reference = sample_verdicts(design, mc_baseline, BALANCED, samples=SAMPLES, seed=9)
        ckpt = tmp_path / "v.ckpt"
        kill_after(2)
        with pytest.raises(Killed):
            sample_verdicts(
                design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
                checkpoint=ckpt, checkpoint_every=1000,
            )
        resumed = sample_verdicts(
            design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
            checkpoint=ckpt, resume=True, checkpoint_every=577,
        )
        assert resumed == reference

    def test_resume_across_worker_counts(self, design, mc_baseline, tmp_path, kill_after):
        """workers is an execution knob, not part of the stream
        identity: a checkpoint written serially resumes on a pool (and
        lands on the single-shot probabilities, bit for bit)."""
        reference = sample_verdicts(design, mc_baseline, BALANCED, samples=SAMPLES, seed=9)
        ckpt = tmp_path / "v.ckpt"
        kill_after(2)
        with pytest.raises(Killed):
            sample_verdicts(
                design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
                checkpoint=ckpt, checkpoint_every=1000,
            )
        resumed = sample_verdicts(
            design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
            checkpoint=ckpt, resume=True, checkpoint_every=1000, workers=2,
        )
        assert resumed == reference

    def test_seed_mismatch_refused(self, design, mc_baseline, tmp_path):
        ckpt = tmp_path / "v.ckpt"
        sample_verdicts(design, mc_baseline, BALANCED, samples=SAMPLES, seed=9,
                        checkpoint=ckpt)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            sample_verdicts(design, mc_baseline, BALANCED, samples=SAMPLES, seed=10,
                            checkpoint=ckpt, resume=True)

    def test_resume_requires_checkpoint(self, design, mc_baseline):
        with pytest.raises(ConfigurationError, match="requires a checkpoint"):
            sample_verdicts(design, mc_baseline, BALANCED, resume=True)

    def test_rejects_bad_chunking(self, design, mc_baseline, tmp_path):
        with pytest.raises(ValidationError, match="checkpoint_every"):
            sample_verdicts(
                design, mc_baseline, BALANCED,
                checkpoint=tmp_path / "v.ckpt", checkpoint_every=0,
            )


class TestSampleMeasurementNoise:
    def test_kill_and_resume_bit_exact(self, design, mc_baseline, tmp_path, kill_after):
        reference = sample_measurement_noise(
            design, mc_baseline, 0.5, samples=SAMPLES, seed=4
        )
        ckpt = tmp_path / "n.ckpt"
        kill_after(3)
        with pytest.raises(Killed):
            sample_measurement_noise(
                design, mc_baseline, 0.5, samples=SAMPLES, seed=4,
                checkpoint=ckpt, checkpoint_every=1000,
            )
        resumed = sample_measurement_noise(
            design, mc_baseline, 0.5, samples=SAMPLES, seed=4,
            checkpoint=ckpt, resume=True, checkpoint_every=1000,
        )
        assert resumed == reference

    def test_damaged_checkpoint_restarts_cold(self, design, mc_baseline, tmp_path):
        reference = sample_measurement_noise(
            design, mc_baseline, 0.5, samples=SAMPLES, seed=4
        )
        ckpt = tmp_path / "n.ckpt"
        sample_measurement_noise(
            design, mc_baseline, 0.5, samples=SAMPLES, seed=4, checkpoint=ckpt
        )
        truncate_checkpoint(ckpt)
        resumed = sample_measurement_noise(
            design, mc_baseline, 0.5, samples=SAMPLES, seed=4,
            checkpoint=ckpt, resume=True,
        )
        assert resumed == reference

    def test_sigma_mismatch_refused(self, design, mc_baseline, tmp_path):
        ckpt = tmp_path / "n.ckpt"
        sample_measurement_noise(
            design, mc_baseline, 0.5, samples=SAMPLES, seed=4, checkpoint=ckpt
        )
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            sample_measurement_noise(
                design, mc_baseline, 0.5, relative_sigma=0.2,
                samples=SAMPLES, seed=4, checkpoint=ckpt, resume=True,
            )
