"""Exact entropy, mutual information and KL divergence on finite alphabets, in bits.

Conventions 0*log 0 = 0 and 0*log(0/0) = 0 are handled exactly, never by
epsilon flooring, so values are exact on simplex boundaries: ``xlog2x`` takes
one unmasked log of max(x, smallest subnormal), which is x itself for every
x > 0, and writes +0.0 where x <= 0; the KL forms mask their zero terms.
``mi_batch`` is the one mutual-information kernel, for the bounds' batches
and for code leakage I(J; Z) = ``mi_batch(uniform_J, p(z | j))``.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import Channel, Distribution


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


def entropy(p: Distribution) -> float:
    """Shannon entropy in bits."""
    return entropy_from_array(p.probs)


def mutual_information(p: Distribution, w: Channel) -> float:
    """Mutual information between the input p and the output of channel w, in bits."""
    if p.support_size != w.input_size:
        raise ValueError("input distribution does not match channel input size")
    return mi_from_arrays(p.probs, w.rows)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D(p || q) in bits; returns math.inf when absolute continuity fails."""
    if p.support_size != q.support_size:
        raise ValueError("divergence requires equal support sizes")
    mask = p.probs > 0.0
    if np.any(q.probs[mask] == 0.0):
        return math.inf
    pm = p.probs[mask]
    qm = q.probs[mask]
    return float(np.sum(pm * (np.log2(pm) - np.log2(qm))))


def joint_mutual_information(
    p_joint,
    first_size: int | None = None,
    second_size: int | None = None,
) -> float:
    """I(J; Z) from a joint over pairs.

    Accepts either a 2-D array indexed [j, z] or a flat Distribution over
    lexicographic (j, z) pairs together with the two factor sizes.
    """
    if isinstance(p_joint, Distribution):
        if first_size is None or second_size is None:
            raise ValueError("factor sizes are required for a flat joint distribution")
        if first_size * second_size != p_joint.support_size:
            raise ValueError("factor sizes do not multiply to the joint support size")
        joint = p_joint.probs.reshape(first_size, second_size)
    else:
        joint = np.asarray(p_joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint distribution must be a 2-D array")
    total = float(joint.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint entries sum to {total!r}, not 1")
    # KL form sum p(j, z) log p(j, z) / (p(j) p(z)): exactly 0 for a product joint
    mask = joint > 0.0
    prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    value = float(np.sum(joint[mask] * (np.log2(joint[mask]) - np.log2(prod[mask]))))
    return value if value > 0.0 else 0.0
