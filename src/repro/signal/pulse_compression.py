"""Matched-filter pulse compression.

The first processing block of the SAR chain (paper Fig. 1): correlate
each received echo with the transmitted replica so a point target
collapses from a long chirp to a narrow compressed pulse.  Implemented
as FFT-based fast convolution, the standard approach the paper's
related-work section contrasts with time-domain correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _next_fast_len(n: int) -> int:
    """Smallest power of two >= n (good enough for our sizes)."""
    m = 1
    while m < n:
        m <<= 1
    return m


@dataclass
class MatchedFilter:
    """Frequency-domain matched filter for a fixed replica.

    The conjugated, time-reversed replica spectrum is precomputed once;
    :meth:`apply` then compresses a whole pulse batch with two FFTs.

    Parameters
    ----------
    replica:
        Complex transmit replica (baseband).
    normalize:
        If True (default), scale so an exact echo of the replica
        compresses to peak magnitude ~1 regardless of pulse length.
    """

    replica: np.ndarray
    normalize: bool = True

    def __post_init__(self) -> None:
        replica = np.asarray(self.replica, dtype=np.complex128)
        if replica.ndim != 1 or replica.size == 0:
            raise ValueError("replica must be a non-empty 1-D array")
        self.replica = replica
        gain = np.sum(np.abs(replica) ** 2)
        self._scale = 1.0 / gain if (self.normalize and gain > 0) else 1.0

    def apply(self, echoes: np.ndarray) -> np.ndarray:
        """Compress echoes along the last axis.

        Returns an array of the same shape holding the cross-correlation
        at non-negative lags: an echo that is the replica delayed by
        ``d`` samples peaks at index ``d``.
        """
        echoes = np.asarray(echoes, dtype=np.complex128)
        n = echoes.shape[-1]
        m = self.replica.size
        nfft = _next_fast_len(n + m - 1)
        spec = np.fft.fft(echoes, nfft, axis=-1)
        ref = np.conj(np.fft.fft(self.replica, nfft))
        out = np.fft.ifft(spec * ref, axis=-1)
        return out[..., :n] * self._scale


def pulse_compress(echoes: np.ndarray, replica: np.ndarray) -> np.ndarray:
    """One-shot helper: matched-filter ``echoes`` against ``replica``."""
    return MatchedFilter(replica).apply(echoes)
