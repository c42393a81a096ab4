"""Strong typicality machinery with exhaustively verified measure bounds.

A word is typical for p when every per-symbol frequency sits within delta of
p and no zero-probability symbol occurs; conditional typicality constrains
joint pair frequencies against the channel law the same way.  The slack
functions feeding the cardinality and pointwise-probability bounds are a
configuration choice (classical type-counting slack); the verification
report recomputes every inequality by enumeration and returns raw margins.
The n-fold word laws come from ``channels.output_law`` (``iid_extension`` for
input words); ``cond_typical_mask`` tests a batch of words, and the lemma
checks walk them in chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    Distribution,
    check_enumeration,
    chunks,
    iid_extension,
    output_law,
    word_matrix,
)
from .information import entropy_from_array, xlog2x

#: exponent constant in the measure bounds, 1/(2 ln 2)
TYPICALITY_C = 1.0 / (2.0 * math.log(2.0))
_FREQ_EPS = 1e-12  # guards exact boundary comparisons against roundoff


@dataclass(frozen=True)
class TypicalityParams:
    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be at least 1")
        if not self.delta > 0:
            raise ValueError("delta must be positive")


def typicality_slack(delta: float, input_size: int, output_size: int, n: int) -> float:
    """Slack added to/subtracted from the entropy exponents in the set bounds."""
    return 2.0 * input_size * output_size * delta * math.log2(max(n, 2))


def typical_mask(p: Distribution, tp: TypicalityParams, words: np.ndarray) -> np.ndarray:
    """Boolean mask of typicality for p over the rows of an (m, n) array of words."""
    k = p.support_size
    mask = np.ones(len(words), dtype=bool)
    for a in range(k):
        counts = (words == a).sum(axis=1)
        if p.probs[a] == 0.0:
            mask &= counts == 0
        else:
            mask &= np.abs(counts / tp.n - p.probs[a]) <= tp.delta + _FREQ_EPS
    return mask


def typical_set(p: Distribution, tp: TypicalityParams) -> list[tuple[int, ...]]:
    """Typical words for p, in lexicographic order."""
    words = word_matrix(p.support_size, tp.n)
    mask = typical_mask(p, tp, words)
    return [tuple(int(v) for v in row) for row in words[mask]]


def cond_typical_mask(w: Channel, x_word, tp: TypicalityParams, outputs: np.ndarray) -> np.ndarray:
    """Mask of conditional typicality given ``x_word`` over the rows of ``outputs``.

    ``x_word`` is one input word (n,) or a batch (m, n) and ``outputs`` an
    (r, n) array of output words, usually all |B|^n of them, giving an (r,)
    or (m, r) mask; the joint counts come from one matmul per symbol pair.
    """
    x = np.asarray(x_word, dtype=int)
    if x.ndim not in (1, 2) or x.shape[-1] != tp.n:
        raise ValueError("conditioning word length does not match the block length")
    xs = x.reshape(-1, tp.n)
    at_b = [(outputs == b).T.astype(float) for b in range(w.output_size)]
    mask = np.ones((len(xs), len(outputs)), dtype=bool)
    for a in range(w.input_size):
        at_a = (xs == a).astype(float)
        share = at_a.sum(axis=1, keepdims=True) / tp.n
        for b in range(w.output_size):
            counts = at_a @ at_b[b]
            mask &= np.abs(counts / tp.n - share * w.rows[a, b]) <= tp.delta + _FREQ_EPS
            if w.rows[a, b] == 0.0:
                mask &= counts == 0
    return mask.reshape(x.shape[:-1] + (len(outputs),))


def cond_typical_set(w: Channel, x_word, tp: TypicalityParams) -> list[tuple[int, ...]]:
    """Conditionally typical output words given ``x_word``, lexicographic order."""
    outputs = word_matrix(w.output_size, tp.n)
    mask = cond_typical_mask(w, x_word, tp, outputs)
    return [tuple(int(v) for v in row) for row in outputs[mask]]


def typical_rows(w: Channel, x_words: np.ndarray, tp: TypicalityParams, outputs: np.ndarray) -> np.ndarray:
    """W^n(y | x) on the y conditionally typical given x, else 0: one row per word of the (m, n) batch."""
    stack = np.broadcast_to(w.rows, (tp.n,) + w.rows.shape)
    return output_law(x_words[:, None, :], stack) * cond_typical_mask(w, x_words, tp, outputs)


@dataclass(frozen=True, eq=False)
class TypicalityReport:
    n: int
    delta: float
    input_mass: float
    input_bound: float
    input_margin: float
    cond_mass_min: float
    cond_bound: float
    cond_margin: float
    typical_output_count: int
    alpha_inv: float
    alpha_margin: float
    beta: float
    beta_max: float
    beta_margin: float
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_typicality_bounds(p: Distribution, w: Channel, tp: TypicalityParams) -> TypicalityReport:
    """Recompute the typical-set measure, cardinality and pointwise bounds exactly.

    All four inequalities are theorems, so a negative margin indicates an
    implementation bug rather than an unlucky instance; the sweep tests treat
    any violation as fatal.
    """
    if p.support_size != w.input_size:
        raise ValueError("input distribution does not match channel input size")
    a_size = p.support_size
    b_size = w.output_size
    n = tp.n
    check_enumeration(a_size**n * b_size**n, "typicality verification")

    in_words = word_matrix(a_size, n)
    out_words = word_matrix(b_size, n)

    in_mask = typical_mask(p, tp, in_words)
    input_mass = float(iid_extension(p, n).probs[in_mask].sum())
    exponent = 2.0 ** (-n * TYPICALITY_C * tp.delta**2)
    input_bound = 1.0 - (n + 1) ** a_size * exponent
    input_margin = input_mass - input_bound

    # conditional mass and pointwise maximum, one chunk of input words at a time
    row_mass, beta_max = np.empty(len(in_words)), 0.0
    for chunk in chunks(len(in_words), len(out_words)):
        typical_probs = typical_rows(w, in_words[chunk], tp, out_words)
        row_mass[chunk] = typical_probs.sum(axis=1)
        beta_max = max(beta_max, float(typical_probs[in_mask[chunk]].max(initial=0.0)))
    cond_bound = 1.0 - (n + 1) ** (a_size * b_size) * exponent
    cond_mass_min = min(1.0, float(row_mass.min()))
    cond_margin = cond_mass_min - cond_bound

    slack = typicality_slack(tp.delta, a_size, b_size, n)
    out_dist = Distribution(p.probs @ w.rows)
    wide = TypicalityParams(n, 2.0 * a_size * tp.delta)
    typical_output_count = int(typical_mask(out_dist, wide, out_words).sum())
    alpha_inv = 2.0 ** (n * (entropy_from_array(out_dist.probs) + slack))
    alpha_margin = alpha_inv - typical_output_count

    cond_entropy = float(-p.probs @ np.sum(xlog2x(w.rows), axis=1))
    beta = 2.0 ** (-n * (cond_entropy - slack))
    beta_margin = beta - beta_max

    violations = []
    if input_margin < 0:
        violations.append("input-measure")
    if cond_margin < 0:
        violations.append("conditional-measure")
    if alpha_margin < 0:
        violations.append("output-cardinality")
    if beta_margin < 0:
        violations.append("pointwise-probability")
    return TypicalityReport(
        n=n,
        delta=tp.delta,
        input_mass=input_mass,
        input_bound=input_bound,
        input_margin=input_margin,
        cond_mass_min=cond_mass_min,
        cond_bound=cond_bound,
        cond_margin=cond_margin,
        typical_output_count=typical_output_count,
        alpha_inv=alpha_inv,
        alpha_margin=alpha_margin,
        beta=beta,
        beta_max=beta_max,
        beta_margin=beta_margin,
        violations=tuple(violations),
    )
