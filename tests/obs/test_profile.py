"""Bottleneck attribution over trace reports."""

from __future__ import annotations

import pytest

from repro.core.errors import ValidationError
from repro.obs.profile import CATEGORIES, profile_report, render_profile


def _shard(worker, start, dur, compute, shm=0.0):
    return {
        "name": "shard",
        "worker": worker,
        "seq": start,
        "t_rel": start,
        "dur_s": dur,
        "attrs": {"compute_s": compute, "shm_s": shm},
    }


def _report(events, *, wall=1.0, k_start=0.2, k_dur=0.6, workers=2) -> dict:
    return {
        "schema": "focal-trace/1",
        "manifest": {"command": "sweep"},
        "trace": [
            {
                "name": "sweep",
                "start_s": 0.0,
                "duration_s": wall,
                "attributes": {"workers": workers},
                "children": [
                    {
                        "name": "kernels",
                        "start_s": k_start,
                        "duration_s": k_dur,
                        "children": [],
                    }
                ],
            }
        ],
        "metrics": [],
        "events": events,
    }


class TestProfileReport:
    def test_categories_tile_the_wall_clock(self):
        # Two workers busy [0.2, 0.8): worker 1 computes 0.5 of its 0.6
        # window, worker 2 computes 0.3 and writes shm for 0.1.
        report = _report(
            [
                _shard(1, 0.2, 0.6, compute=0.5),
                _shard(2, 0.2, 0.6, compute=0.3, shm=0.1),
            ]
        )
        profile = profile_report(report)
        assert set(profile.seconds) == set(CATEGORIES)
        total = sum(profile.seconds.values())
        assert total == pytest.approx(profile.wall_s, rel=1e-9)
        assert sum(profile.shares.values()) == pytest.approx(1.0)
        assert profile.seconds["serial"] == pytest.approx(0.4)
        assert profile.seconds["compute"] == pytest.approx(0.8 / 2)

    def test_straggler_covers_missing_and_idle_workers(self):
        # Planned 4 workers; only one reports, busy half the kernel.
        report = _report([_shard(1, 0.2, 0.3, compute=0.3)], workers=4)
        profile = profile_report(report)
        assert profile.observed_workers == 1
        assert profile.workers == 4
        # 3 silent workers x 0.6 plus the reporter's idle 0.3, over 4.
        assert profile.seconds["straggler"] == pytest.approx(
            (3 * 0.6 + 0.3) / 4
        )
        assert sum(profile.seconds.values()) == pytest.approx(profile.wall_s)

    def test_clock_skew_cannot_produce_negative_categories(self):
        # A shard claiming to start before the kernel phase and run past
        # its end — the clamps absorb it, the identity still holds.
        report = _report([_shard(1, 0.0, 2.0, compute=5.0)])
        profile = profile_report(report)
        assert all(v >= 0.0 for v in profile.seconds.values())
        assert sum(profile.seconds.values()) == pytest.approx(profile.wall_s)

    def test_amdahl_bound_and_top_cost(self):
        report = _report(
            [
                _shard(1, 0.2, 0.6, compute=0.6),
                _shard(2, 0.2, 0.6, compute=0.6),
            ]
        )
        profile = profile_report(report)
        # t1 = serial + compute = 0.4 + 1.2; ideal = 0.4 + 1.2/2
        assert profile.amdahl_attainable == pytest.approx(1.6 / 1.0)
        assert profile.achieved_speedup_estimate == pytest.approx(1.6 / 1.0)
        assert profile.top_cost in CATEGORIES

    def test_requires_a_trace_report(self):
        with pytest.raises(ValidationError):
            profile_report({"metrics": []})

    def test_requires_a_completed_sweep_span(self):
        report = _report([_shard(1, 0.2, 0.3, compute=0.2)])
        report["trace"][0]["duration_s"] = None
        with pytest.raises(ValidationError, match="sweep"):
            profile_report(report)

    def test_requires_a_parallel_kernel_phase(self):
        report = _report([_shard(1, 0.2, 0.3, compute=0.2)], workers=0)
        with pytest.raises(ValidationError, match="parallel"):
            profile_report(report)

    def test_requires_worker_events(self):
        with pytest.raises(ValidationError, match="events"):
            profile_report(_report([]))

    def test_reuse_split_from_sweep_attributes(self):
        report = _report([_shard(1, 0.2, 0.6, compute=0.5)])
        report["trace"][0]["attributes"].update(
            store_points=60,
            store_memory_points=10,
            store_disk_points=50,
            memo_points=5,
            fresh_points=35,
            store_chunks=3,
            delta_chunks=1,
            store_reuse_ratio=0.6,
        )
        profile = profile_report(report)
        assert profile.reuse == {
            "store_memory": 10,
            "store_disk": 50,
            "memo": 5,
            "fresh": 35,
            "store_chunks": 3,
            "delta_chunks": 1,
            "reuse_ratio": 0.6,
        }

    def test_no_store_attributes_means_no_reuse_section(self):
        profile = profile_report(_report([_shard(1, 0.2, 0.6, compute=0.5)]))
        assert profile.reuse is None

    def test_fully_reused_sweep_explained_in_kernel_error(self):
        report = _report([], workers=0)
        report["trace"][0]["children"] = []
        report["trace"][0]["attributes"].update(
            store_points=100,
            store_memory_points=0,
            store_disk_points=100,
            memo_points=0,
            fresh_points=0,
            store_reuse_ratio=1.0,
        )
        with pytest.raises(ValidationError, match="served entirely from reuse"):
            profile_report(report)


class TestRenderProfile:
    def test_page_has_attribution_workers_and_verdict(self):
        report = _report(
            [
                _shard(1, 0.2, 0.6, compute=0.5),
                _shard(2, 0.2, 0.6, compute=0.3, shm=0.1),
            ]
        )
        page = render_profile(profile_report(report))
        assert "wall-clock attribution" in page
        for category in CATEGORIES:
            assert category in page
        assert "per-worker kernel phase" in page
        assert "top cost center" in page
        assert "attainable" in page

    def test_missing_workers_noted(self):
        report = _report([_shard(1, 0.2, 0.3, compute=0.3)], workers=4)
        page = render_profile(profile_report(report))
        assert "only 1 of 4 planned workers" in page

    def test_reuse_section_rendered_when_present(self):
        report = _report([_shard(1, 0.2, 0.6, compute=0.5)])
        report["trace"][0]["attributes"].update(
            store_points=60,
            store_memory_points=10,
            store_disk_points=50,
            memo_points=5,
            fresh_points=35,
            store_chunks=3,
            delta_chunks=1,
            store_reuse_ratio=0.6,
        )
        page = render_profile(profile_report(report))
        assert "point provenance" in page
        assert "store (memory)" in page
        assert "store (disk)" in page
        assert "memoized" in page
        assert "1 stitched delta" in page

    def test_no_reuse_section_without_store(self):
        page = render_profile(
            profile_report(_report([_shard(1, 0.2, 0.6, compute=0.5)]))
        )
        assert "point provenance" not in page


class TestComputeIsCpuTime:
    def test_compute_fits_in_the_cpus_the_workers_shared(self, tmp_path):
        """Worker ``compute_s`` is CPU time, so 4 workers time-slicing
        on fewer CPUs cannot report more compute than those CPUs had
        during the kernel phase (wall-clock timing reported about 4x
        the kernel wall on 2 CPUs)."""
        import json
        import os

        from repro.cli import main

        workers = 4
        out = tmp_path / "trace.json"
        argv = [
            "profile", "--bench", "--workers", str(workers), "--cores", "64",
            "--fractions", "250", "--iters", "2500", "--chunk-size", "2048",
            "--trace", str(out),
        ]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        profile = profile_report(report)
        compute = sum(
            row["attrs"]["compute_s"]
            for row in report["events"]
            if row.get("name") == "shard"
        )
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cpus = os.cpu_count() or 1
        bound = profile.kernel_s * min(workers, cpus) * 1.05 + 0.02
        assert compute > 0.0
        assert compute <= bound, (compute, profile.kernel_s, cpus)
        assert profile.compute_total_s <= bound
