"""Wiretap codes at desk scale: construction, decoding and exact evaluation.

A code stores a J x L array of codewords (message j is sent by drawing the
randomization index l uniformly) and its decoder as an assignment map from
output-word index to message index or erasure, which makes decoding sets
disjoint by representation.

Every exact evaluation runs on the n-fold law kernel ``channels.output_law``
(p(y^n | j) for all codewords and a batch of channel stacks at once):
``sequence_table`` applies it to chunks of state sequences under the
working-memory budget of ``channels.chunks``, and the one-sequence functions
are front-ends over it.
Leakage, I(J; Z^n) with J uniform, is ``information.mi_batch`` on those laws;
it is never estimated by sampling because sampled mutual-information
estimates are biased, so oversized instances are refused instead.
Typicality decoding tests all codewords in one ``cond_typical_mask`` call per
channel; the secrecy-event check walks the typical inputs in chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .bounds import BoundOptions, min_mi_over_mixtures
from .channels import (
    AVWC,
    Distribution,
    StateSequence,
    check_enumeration,
    chunks,
    iid_extension,
    index_to_word,
    mixture_channel,
    output_law,
    sequence_symbols,
    word_matrix,
)
from .errors import DegenerateRateError
from .information import entropy_from_array, mi_batch, mi_from_arrays
from .typicality import (
    TYPICALITY_C,
    TypicalityParams,
    cond_typical_mask,
    typical_mask,
    typical_rows,
    typicality_slack,
)

ERASURE = -1
TIE_TOL = 1e-12  # values this close to the maximum tie; the first in lexicographic order wins


@dataclass(frozen=True, eq=False)
class WiretapCode:
    """Block code with stochastic (uniform over l) encoding and disjoint decoding sets."""

    n: int
    input_size: int
    output_size: int
    codewords: np.ndarray  # (J, L, n) integer array
    decoder: np.ndarray  # (output_size**n,) message index or ERASURE

    def __post_init__(self):
        codewords = np.asarray(self.codewords, dtype=int)
        decoder = np.asarray(self.decoder, dtype=int)
        if codewords.ndim != 3 or codewords.shape[2] != self.n:
            raise ValueError("codewords must be a (J, L, n) array")
        if codewords.size == 0:
            raise ValueError("code must carry at least one codeword")
        if codewords.min() < 0 or codewords.max() >= self.input_size:
            raise ValueError("codeword symbols outside the input alphabet")
        if decoder.shape != (self.output_size**self.n,):
            raise ValueError("decoder must assign every output word")
        if decoder.min() < ERASURE or decoder.max() >= codewords.shape[0]:
            raise ValueError("decoder assigns an unknown message index")
        codewords.setflags(write=False)
        decoder.setflags(write=False)
        object.__setattr__(self, "codewords", codewords)
        object.__setattr__(self, "decoder", decoder)

    @property
    def j_count(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def l_count(self) -> int:
        return int(self.codewords.shape[1])


@dataclass(frozen=True, eq=False)
class ReductionReport:
    success: bool
    k_count: int
    epsilon: float
    attempts: int
    worst_mean_error: float
    worst_mean_leakage: float


@dataclass(frozen=True, eq=False)
class RandomCode:
    """Family of wiretap codes, each member selected with probability 1/len(members).

    Both random codes of the construction are uniform: robustification picks
    one of the n! permutations and reduction one of K drawn members.
    """

    members: Sequence[WiretapCode]
    origin: Literal["permutation-family", "reduced", "explicit"]
    verification: ReductionReport | None = None

    def member_count(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class EvalReport:
    worst_state_error: float
    worst_state_sequence: StateSequence
    worst_leakage_bits: float
    worst_leakage_sequence: StateSequence
    per_sequence: tuple | None


# ---------------------------------------------------------------------------
# exact evaluation: one state-sequence table on the output-law kernel
# ---------------------------------------------------------------------------

def message_success(law: np.ndarray, decoder: np.ndarray) -> np.ndarray:
    """p(decoder(Y^n) = j | j) per message j, from a (..., J, |B|^n) law and a (..., |B|^n) decoder."""
    hits = decoder[..., None, :] == np.arange(law.shape[-2])[:, None]  # one-hot, (..., J, |B|^n)
    return (law * hits).sum(axis=-1)


def _error(code: WiretapCode, channels: np.ndarray) -> np.ndarray:
    """1 - (1/J) sum_j p(decoder(Y^n) = j | j) for each stack in the batch."""
    return 1.0 - message_success(output_law(code.codewords, channels), code.decoder).mean(axis=-1)


def _leakage(code: WiretapCode, channels: np.ndarray) -> np.ndarray:
    uniform = np.full(code.j_count, 1.0 / code.j_count)
    return mi_batch(uniform, output_law(code.codewords, channels))


def _sequence_channels(stack: np.ndarray, code: WiretapCode, s, state_count: int) -> np.ndarray:
    symbols = sequence_symbols(s, state_count)
    if len(symbols) != code.n:
        raise ValueError("state sequence length does not match the block length")
    return stack[list(symbols)]


def _mixture_channels(
    stack: np.ndarray, code: WiretapCode, q_list: Sequence[Distribution]
) -> np.ndarray:
    if len(q_list) != code.n:
        raise ValueError("need one mixture weight vector per position")
    return np.stack([np.tensordot(q.probs, stack, axes=1) for q in q_list])


def error_probability(code: WiretapCode, avwc: AVWC, s) -> float:
    """Exact average error probability of the code for one state sequence."""
    return float(_error(code, _sequence_channels(avwc.main_stack, code, s, avwc.state_count)))


def leakage_bits(code: WiretapCode, avwc: AVWC, s) -> float:
    """Exact I(J; Z^n) in bits for one state sequence, J uniform over messages."""
    return float(_leakage(code, _sequence_channels(avwc.eaves_stack, code, s, avwc.state_count)))


def error_under_product_mixture(code: WiretapCode, avwc: AVWC, q_list: Sequence[Distribution]) -> float:
    """Exact error when position i sees the state-averaged channel for q_list[i]."""
    return float(_error(code, _mixture_channels(avwc.main_stack, code, q_list)))


def leakage_under_product_mixture(code: WiretapCode, avwc: AVWC, q_list: Sequence[Distribution]) -> float:
    """Exact I(J; Z^n) when position i sees the state-averaged eavesdropper channel."""
    return float(_leakage(code, _mixture_channels(avwc.eaves_stack, code, q_list)))


def sequence_table(
    code: WiretapCode, avwc: AVWC, objectives: Sequence[str] = ("error", "leakage")
) -> dict[str, np.ndarray]:
    """Error and/or leakage of the code at every state sequence, lexicographic order.

    Each requested objective maps to an (|S|^n,) array.  Each chunk of
    sequences takes one ``output_law`` call per objective, and working memory
    is the chunk budget of ``channels.chunks``, never |S|^n output laws.
    """
    sequences = word_matrix(avwc.state_count, code.n)
    metrics = {"error": (_error, avwc.main_stack), "leakage": (_leakage, avwc.eaves_stack)}
    table = {}
    for name in objectives:
        metric, stack = metrics[name]
        table[name] = np.empty(len(sequences))
        for chunk in chunks(len(sequences), code.j_count * code.l_count * stack.shape[-1] ** code.n):
            table[name][chunk] = metric(code, stack[sequences[chunk]])
    return table


def _check_alphabets(code: WiretapCode, avwc: AVWC) -> None:
    """Refuse a code whose input or output alphabet is not the channel family's."""
    if avwc.input_size != code.input_size or avwc.main_output_size != code.output_size:
        raise ValueError("code alphabets do not match the channel family")


def first_maximum(values: np.ndarray) -> int:
    """Flat index of the first entry within ``TIE_TOL`` of the maximum (row-major order)."""
    flat = np.ravel(values)
    return int(np.flatnonzero(flat >= flat.max() - TIE_TOL)[0])


def evaluate_code(code: WiretapCode, avwc: AVWC, keep_table: bool = False) -> EvalReport:
    """Exact worst-case error and leakage over all state sequences.

    Every state sequence and every output word is enumerated, or the call is
    refused under the enumeration cap; nothing is estimated by sampling.  The
    worst sequence of each objective is the lexicographically first one whose
    value lies within ``TIE_TOL`` (1e-12) of the maximum, reported with its
    own value.  ``keep_table`` keeps the per-sequence (sequence, error,
    leakage) rows.
    """
    _check_alphabets(code, avwc)
    n = code.n
    s_count = avwc.state_count
    check_enumeration(
        s_count**n * avwc.main_output_size**n * code.j_count * code.l_count,
        "exhaustive error evaluation",
    )
    check_enumeration(
        s_count**n * avwc.eaves_output_size**n * code.j_count * code.l_count,
        "exact leakage evaluation (sampling is refused: sampled mutual-information "
        "estimates are biased)",
    )
    table = sequence_table(code, avwc)

    def worst(name: str) -> tuple[float, StateSequence]:
        at = first_maximum(table[name])
        return float(table[name][at]), StateSequence(index_to_word(at, s_count, n), s_count)

    worst_error, worst_error_seq = worst("error")
    worst_leak, worst_leak_seq = worst("leakage")
    per_sequence = None
    if keep_table:
        sequences = [StateSequence(symbols, s_count) for symbols in word_matrix(s_count, n).tolist()]
        per_sequence = tuple(zip(sequences, table["error"].tolist(), table["leakage"].tolist()))
    return EvalReport(
        worst_state_error=worst_error,
        worst_state_sequence=worst_error_seq,
        worst_leakage_bits=worst_leak,
        worst_leakage_sequence=worst_leak_seq,
        per_sequence=per_sequence,
    )


# ---------------------------------------------------------------------------
# random codebooks
# ---------------------------------------------------------------------------

def codebook_rates(p: Distribution, avwc: AVWC, n: int, tau: float) -> tuple[int, int, float, float]:
    """(J_n, L_n) and the two exponent terms behind them."""
    w_min = float(min_mi_over_mixtures(p.probs[None], avwc.main_stack, BoundOptions())[0][0])
    v_max = max(mi_from_arrays(p.probs, rows) for rows in avwc.eaves_stack)
    j_exponent = n * (w_min - v_max - tau)
    l_exponent = n * (v_max + tau / 4.0)
    return math.floor(2.0**j_exponent), math.floor(2.0**l_exponent), j_exponent, l_exponent


def sample_codeword_indices(weights: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Counter-based sampling: draw ``count`` indices, one Philox stream each.

    Identical seeds reproduce identical draws bit for bit, independent of
    evaluation order, which keeps parallel builders deterministic.
    """
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    picks = np.empty(count, dtype=int)
    for t in range(count):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, t]))
        picks[t] = int(np.searchsorted(cdf, rng.random(), side="right"))
    return picks


def build_random_codebook(
    p: Distribution,
    avwc: AVWC,
    n: int,
    tau: float,
    seed: int,
    delta: float = 0.2,
    j_count: int | None = None,
    l_count: int | None = None,
) -> WiretapCode:
    """Sample a codebook from the typicality-pruned product law and attach a decoder.

    Message and randomization counts follow the rate exponents: J_n from the
    gap between the worst state-averaged main-channel rate and the best
    eavesdropper rate less tau, L_n from the eavesdropper rate plus tau/4.
    A negative message exponent raises with the computed value.  Explicit
    ``j_count``/``l_count`` overrides skip the rate formula, which the rate
    exponents make unavoidable for deliberate experiments at tiny n.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    tp = TypicalityParams(n, delta)
    j_exp = None  # no rate exponent when both counts are given
    if j_count is None or l_count is None:
        rate_j, rate_l, j_exp, l_exp = codebook_rates(p, avwc, n, tau)
        if j_count is None:
            j_count = rate_j
        if l_count is None:
            l_count = rate_l
        if j_count < 1:
            raise DegenerateRateError(
                f"message-count exponent {j_exp!r} yields J_n < 1; "
                "the requested tau exceeds the achievable rate gap",
                exponent=j_exp,
            )
    l_count = max(1, l_count)

    words = word_matrix(p.support_size, n)
    mask = typical_mask(p, tp, words)
    if not mask.any():
        raise DegenerateRateError(
            f"the typical set for delta={delta!r} at n={n} is empty; "
            "no pruned distribution exists",
            exponent=j_exp,
        )
    support = words[mask]
    weights = iid_extension(p, n).probs[mask]
    weights = weights / weights.sum()

    picks = sample_codeword_indices(weights, j_count * l_count, seed)
    codewords = support[picks].reshape(j_count, l_count, n)
    code = WiretapCode(
        n=n,
        input_size=avwc.input_size,
        output_size=avwc.main_output_size,
        codewords=codewords,
        decoder=np.full(avwc.main_output_size**n, ERASURE),
    )
    decoder = decode_rule(code, avwc, tp)
    return replace(code, decoder=decoder)


def decode_rule(code: WiretapCode, avwc: AVWC, tp: TypicalityParams) -> np.ndarray:
    """Typicality decoding assignment.

    An output word belongs to message j when it is conditionally typical for
    some codeword of j under some state-averaged main channel from the grid
    (each state's channel, plus the uniform mixture when |S| > 1), and for no
    other message; ambiguous or untypical words are erased.
    """
    if tp.n != code.n:
        raise ValueError("typicality parameters built for a different block length")
    grid = [Distribution.point_mass(avwc.state_count, s) for s in range(avwc.state_count)]
    if avwc.state_count > 1:
        grid.append(Distribution.uniform(avwc.state_count))
    outputs = word_matrix(code.output_size, code.n)
    check_enumeration(len(outputs) * code.j_count * code.l_count * len(grid), "typicality decoding")
    words = code.codewords.reshape(-1, code.n)
    claimed = np.zeros((code.j_count, len(outputs)), dtype=bool)
    for q in grid:
        mask = cond_typical_mask(mixture_channel(list(avwc.main), q), words, tp, outputs)
        claimed |= mask.reshape(code.j_count, code.l_count, -1).any(axis=1)
    counts = claimed.sum(axis=0)
    decoder = np.full(len(outputs), ERASURE)
    unique = counts == 1
    decoder[unique] = np.argmax(claimed[:, unique], axis=0)
    return decoder


# ---------------------------------------------------------------------------
# concentration bound and secrecy events
# ---------------------------------------------------------------------------

def chernoff_bound(l_count: int, epsilon: float, mu: float) -> float:
    """Two-sided relative-deviation bound 2*exp(-L*eps^2*mu/3) for [0,1] variables."""
    if l_count < 1:
        raise ValueError("l_count must be at least 1")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    if not 0.0 < mu <= 1.0:
        raise ValueError("mu must lie in (0, 1]")
    return 2.0 * math.exp(-l_count * epsilon**2 * mu / 3.0)


def secrecy_event_failure_bound(
    l_count: int, n: int, out_size: int, mi_eaves: float, delta: float, in_size: int
) -> float:
    """Union bound over output words for one secrecy event failing; may exceed 1."""
    g = 2.0 * typicality_slack(delta, in_size, out_size, n) + 3.0 * (TYPICALITY_C / 2.0) * delta**2
    return 2.0 * out_size**n * math.exp(-l_count * 2.0 ** (-n * (mi_eaves + g)) / 3.0)


@dataclass(frozen=True, eq=False)
class SecrecyEventReport:
    epsilon: float
    per_message: tuple  # tuples (j, q_index, holds, max_deviation)
    theta_mass: tuple[float, ...]
    band_support: tuple[int, ...]

    @property
    def all_hold(self) -> bool:
        return all(item[2] for item in self.per_message)


def check_secrecy_events(
    code: WiretapCode, avwc: AVWC, tp: TypicalityParams, p: Distribution
) -> SecrecyEventReport:
    """Check the relative-deviation band events behind the codebook secrecy argument.

    For each point-mass mixture weight q the truncated reference density is
    built from the pruned design input law ``p``, and for every message the
    l-averaged truncated conditional densities must stay inside the
    (1 +- epsilon) band around it at every output word, with the lemma's
    epsilon = 2^(-n (c/2) delta^2).
    """
    if tp.n != code.n:
        raise ValueError("typicality parameters built for a different block length")
    n = code.n
    epsilon = 2.0 ** (-n * (TYPICALITY_C / 2.0) * tp.delta**2)

    in_words = word_matrix(avwc.input_size, n)
    out_words = word_matrix(avwc.eaves_output_size, n)
    check_enumeration(len(in_words) * len(out_words), "secrecy event check")
    in_mask = typical_mask(p, tp, in_words)
    if not in_mask.any():
        raise ValueError("empty typical set: no pruned distribution exists")
    pruned = iid_extension(p, n).probs[in_mask]
    pruned = pruned / pruned.sum()
    typical_in = in_words[in_mask]

    slack = typicality_slack(tp.delta, avwc.input_size, avwc.eaves_output_size, n)
    per_message = []
    theta_masses = []
    band_supports = []
    for q_index, v_q in enumerate(avwc.eaves):
        out_entropy = entropy_from_array(p.probs @ v_q.rows)
        alpha = 2.0 ** (-n * (out_entropy + slack))
        # truncated densities V_q^n(z | x) on the conditionally typical z, one chunk of words at a time
        theta_raw = np.zeros(len(out_words))
        for chunk in chunks(len(typical_in), len(out_words)):
            weighted = pruned[chunk, None] * typical_rows(v_q, typical_in[chunk], tp, out_words)
            theta_raw = np.vstack([theta_raw, weighted]).sum(axis=0)  # adds row after row, as one sum would
        band = theta_raw >= epsilon * alpha
        theta = theta_raw * band
        theta_masses.append(float(theta.sum()))
        band_supports.append(int(band.sum()))

        density = typical_rows(v_q, code.codewords.reshape(-1, n), tp, out_words)
        avg = (density.reshape(code.j_count, code.l_count, -1).sum(axis=1) / code.l_count) * band  # (J, c^n)
        lo = (1.0 - epsilon) * theta
        hi = (1.0 + epsilon) * theta
        pad = 1e-12 * (1.0 + theta)
        holds = np.all((avg >= lo - pad) & (avg <= hi + pad), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            deviation = np.where(theta > 0.0, np.abs(avg - theta) / theta, np.where(avg > 0, np.inf, 0.0))
        per_message.extend(
            (j, q_index, bool(holds[j]), float(deviation[j].max())) for j in range(code.j_count)
        )
    return SecrecyEventReport(
        epsilon=epsilon,
        per_message=tuple(per_message),
        theta_mass=tuple(theta_masses),
        band_support=tuple(band_supports),
    )
