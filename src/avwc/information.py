"""Exact entropy and mutual information on finite alphabets, in bits.

The convention 0*log 0 = 0 is handled exactly, never by epsilon flooring, so
values are exact on simplex boundaries: ``xlog2x`` takes one unmasked log of
max(x, smallest subnormal), which is x itself for every x > 0, and writes +0.0
where x <= 0.  ``mi_batch`` is the one mutual-information kernel, for the
bounds' batches and for code leakage I(J; Z) = ``mi_batch(uniform_J, p(z | j))``;
``mi_from_arrays`` is its one-pair form and ``entropy_from_array`` gives H(p).
"""

from __future__ import annotations

import numpy as np


_SMALLEST_SUBNORMAL = np.nextafter(0.0, 1.0)


def xlog2x(values: np.ndarray) -> np.ndarray:
    """Elementwise x*log2(x) with the 0*log 0 = 0 convention; x <= 0 gives +0.0."""
    values = np.asarray(values, dtype=float)
    logs = np.asarray(np.maximum(values, _SMALLEST_SUBNORMAL))  # every log finite, x > 0 unchanged
    np.log2(logs, out=logs)
    np.multiply(values, logs, out=logs)
    logs[values <= 0.0] = 0.0  # zeros and roundoff negatives contribute +0.0
    return logs


def entropy_from_array(probs: np.ndarray) -> float:
    return float(-np.sum(xlog2x(probs)))


def mi_batch(px: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """I(p, W) = H(pW) - sum_x p(x) H(W(.|x)) over a batch of input laws and channels.

    ``px`` has shape (..., A) and ``rows`` shape (..., A, B); their leading
    axes broadcast against each other and give the shape of the result.
    Tiny negative roundoff clamps to 0.
    """
    px = np.asarray(px, dtype=float)[..., None, :]
    out = px @ rows
    cond = px @ xlog2x(rows).sum(axis=-1)[..., None]
    return np.maximum(cond[..., 0, 0] - xlog2x(out).sum(axis=(-2, -1)), 0.0)


def mi_from_arrays(px: np.ndarray, rows: np.ndarray) -> float:
    """I(p, W) for one input law ``px`` (A,) and one channel ``rows`` (A, B)."""
    return float(mi_batch(px, rows))
