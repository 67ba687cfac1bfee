"""Each request's CPU time is scaled by the calibration samples around it."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
from calibration import REFERENCE_S as R  # noqa: E402


def test_scales_use_the_samples_just_before_and_after():
    # samples before requests 0 and 2, and after the last request (3)
    samples = [(0, R), (2, 3 * R), (3, 2 * R)]
    assert calibration.scales(samples, 3) == pytest.approx([1 / 2, 1 / 2, 2 / 5])


def test_sampler_brackets_every_request():
    sampler = calibration.Sampler()
    for i in range(3):
        sampler.tick(i)
    sampler.tick(3, force=True)
    at = [i for i, _ in sampler.samples]
    assert at[0] == 0 and at[-1] == 3 and at == sorted(set(at))
    assert len(calibration.scales(sampler.samples, 3)) == 3
