"""Pins the reference-second arithmetic of calibration.py.

Run with: python3 -m pytest bench/test_calibration.py
"""

import time

import pytest

import calibration


def test_scale_is_the_mean_speed_over_the_samples():
    assert calibration.scale([0.001] * 4) == pytest.approx(1.0)
    # half the span at nominal speed, half twice as slow
    assert calibration.scale([0.001, 0.002]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        calibration.scale([])


def test_local_scales_use_the_samples_near_each_span_or_the_fallback():
    slow = [(t / 100, 0.002) for t in range(100)]  # 0.00 .. 0.99 s
    fast = [(1 + t / 100, 0.0005) for t in range(100)]  # 1.00 .. 1.99 s
    spans = [(0.5, 0.51), (1.5, 1.51), (5.0, 5.01)]
    assert calibration.local_scales(slow + fast, spans, fallback=7.0) == pytest.approx([0.5, 2.0, 7.0])


def test_sampler_takes_samples_while_the_process_works_and_stops_cleanly():
    sampler = calibration.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    taken = len(sampler.samples)
    assert taken >= 3
    assert sampler.spent == pytest.approx(sum(d for _, d in sampler.samples))
    time.sleep(2 * calibration.INTERVAL_S)
    assert len(sampler.samples) == taken
