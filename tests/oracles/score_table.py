"""The pinned reference builder of the noisy placement score table.

This is the score-table build as it stood before the in-place builder
in :meth:`repro.intensity.api.CarbonIntensityService._build_score_table`
replaced it: every lead-time chunk gathers the wrapped truth windows
with an ``(n, chunk)`` modulo index, scales them by a fresh noise
factor array and reduces the clipped product row by row.  The fast
builder must reproduce its bytes exactly (``tests/test_intensity_api``).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.intensity.trace import IntensityTrace

#: The lead-time chunk width the noise stream is drawn in.
SCORE_CHUNK_HOURS = 512


def build_score_table(
    trace: IntensityTrace,
    window: int,
    *,
    seed: int,
    forecast_error: float,
) -> np.ndarray:
    """Per-start-hour forecast window means of ``trace`` (reference)."""
    if forecast_error == 0.0:
        return trace.forward_window_mean(window)
    n = len(trace)
    rng = np.random.default_rng(
        (seed, zlib.crc32(trace.region_code.encode("utf-8")), window)
    )
    base = np.arange(n)[:, None]
    acc = np.zeros(n)
    for k0 in range(0, window, SCORE_CHUNK_HOURS):
        k1 = min(k0 + SCORE_CHUNK_HOURS, window)
        lead = np.sqrt(np.arange(k0 + 1, k1 + 1, dtype=float))
        idx = (base + np.arange(k0, k1)[None, :]) % n
        factor = 1.0 + forecast_error * lead * rng.standard_normal((n, k1 - k0))
        acc += np.maximum(trace.values[idx] * factor, 0.0).sum(axis=1)
    return acc / window
