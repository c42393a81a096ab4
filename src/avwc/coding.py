"""Wiretap codes at desk scale: construction, decoding and exact evaluation.

A code stores a J x L array of codewords (message j is sent by drawing the
randomization index l uniformly) and its decoder as an assignment map from
output-word index to message index or erasure, which makes decoding sets
disjoint by representation.

Every exact evaluation runs on one kernel, ``output_law`` (p(y^n | j) for all
codewords at once): ``sequence_table`` applies it at every state sequence and
the one-sequence functions are front-ends over it.  Leakage, I(J; Z^n) with J
uniform, is ``information.mi_batch`` on those laws; it is never estimated
by sampling because sampled mutual-information estimates are biased, so
oversized instances are refused instead.  Typicality decoding and the
secrecy-event check test all codewords in one ``cond_typical_mask`` call
per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

import numpy as np

from .channels import (
    AVWC,
    Distribution,
    StateSequence,
    check_enumeration,
    iid_extension,
    index_to_word,
    mixture_channel,
    product_rows_matrix,
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
    typicality_slack,
)

ERASURE = -1


@dataclass(frozen=True, eq=False)
class WiretapCode:
    """Block code with stochastic (uniform over l) encoding and disjoint decoding sets."""

    n: int
    input_size: int
    output_size: int
    codewords: np.ndarray  # (J, L, n) integer array
    decoder: np.ndarray  # (output_size**n,) message index or ERASURE
    design_p: Distribution | None = None
    design_delta: float | None = None

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

    def decoding_set(self, j: int) -> np.ndarray:
        """Output-word indices decoded to message j."""
        return np.nonzero(self.decoder == j)[0]


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
    """Family of wiretap codes with a selection distribution."""

    members: Sequence[WiretapCode]
    mu: Distribution
    origin: Literal["permutation-family", "reduced", "explicit"]
    verification: ReductionReport | None = None

    def __post_init__(self):
        if len(self.members) != self.mu.support_size:
            raise ValueError("selection distribution length must match the member count")

    def member_count(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class EvalReport:
    worst_state_error: float | None
    worst_state_sequence: StateSequence | None
    worst_leakage_bits: float | None
    worst_leakage_sequence: StateSequence | None
    per_sequence: tuple | None


# ---------------------------------------------------------------------------
# exact evaluation: one output-law kernel, one state-sequence table
# ---------------------------------------------------------------------------

def output_law(codewords: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """p(y^n | j), averaged over l, as a (J, |B|^n) array in lexicographic output order.

    ``codewords`` is a (J, L, n) array and ``channels`` an (n, |A|, |B|)
    stack whose entry i acts at position i.  All J*L codewords advance
    together: position i multiplies every partial law by the row its
    codeword selects.
    """
    j_count, l_count, n = codewords.shape
    words = codewords.reshape(j_count * l_count, n)
    law = np.ones((len(words), 1))
    for i in range(n):
        law = (law[:, :, None] * channels[i][words[:, i]][:, None, :]).reshape(len(words), -1)
    return law.reshape(j_count, l_count, -1).mean(axis=1)


def message_success(law: np.ndarray, decoder: np.ndarray) -> np.ndarray:
    """p(decoder(Y^n) = j | j) for every message j, from the (J, |B|^n) output law."""
    hits = np.flatnonzero(decoder != ERASURE)
    return np.bincount(decoder[hits], weights=law[decoder[hits], hits], minlength=len(law))


def _error(code: WiretapCode, channels: np.ndarray) -> float:
    """1 - (1/J) sum_j p(decoder(Y^n) = j | j)."""
    return 1.0 - float(message_success(output_law(code.codewords, channels), code.decoder).mean())


def _leakage(code: WiretapCode, channels: np.ndarray) -> float:
    uniform = np.full(code.j_count, 1.0 / code.j_count)
    return float(mi_batch(uniform, output_law(code.codewords, channels)))


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
    return _error(code, _sequence_channels(avwc.main_stack, code, s, avwc.state_count))


def leakage_bits(code: WiretapCode, avwc: AVWC, s) -> float:
    """Exact I(J; Z^n) in bits for one state sequence, J uniform over messages."""
    return _leakage(code, _sequence_channels(avwc.eaves_stack, code, s, avwc.state_count))


def error_under_product_mixture(code: WiretapCode, avwc: AVWC, q_list: Sequence[Distribution]) -> float:
    """Exact error when position i sees the state-averaged channel for q_list[i]."""
    return _error(code, _mixture_channels(avwc.main_stack, code, q_list))


def leakage_under_product_mixture(code: WiretapCode, avwc: AVWC, q_list: Sequence[Distribution]) -> float:
    """Exact I(J; Z^n) when position i sees the state-averaged eavesdropper channel."""
    return _leakage(code, _mixture_channels(avwc.eaves_stack, code, q_list))


def sequence_table(
    code: WiretapCode, avwc: AVWC, objectives: Sequence[str] = ("error", "leakage")
) -> dict[str, np.ndarray]:
    """Error and/or leakage of the code at every state sequence, lexicographic order.

    Each requested objective maps to an (|S|^n,) array.  Working memory is
    the output law of one sequence, never |S|^n of them.
    """
    sequences = word_matrix(avwc.state_count, code.n)
    metrics = {"error": (_error, avwc.main_stack), "leakage": (_leakage, avwc.eaves_stack)}
    table = {}
    for name in objectives:
        metric, stack = metrics[name]
        table[name] = np.array([metric(code, stack[s]) for s in sequences])
    return table


def _sampled_error(code: WiretapCode, avwc: AVWC, symbols, samples: int, seed: int, counter: int) -> float:
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, counter]))
    js = rng.integers(0, code.j_count, size=samples)
    ls = rng.integers(0, code.l_count, size=samples)
    errors = 0
    b = avwc.main_output_size
    for j, l in zip(js, ls):
        word_index = 0
        for i, si in enumerate(symbols):
            row = avwc.main_stack[si][code.codewords[j, l, i]]
            word_index = word_index * b + rng.choice(b, p=row)
        if code.decoder[word_index] != j:
            errors += 1
    return errors / samples


def evaluate_code(
    code: WiretapCode,
    avwc: AVWC,
    mode: Literal["exhaustive", "sampled"] = "exhaustive",
    objectives: Sequence[str] = ("error", "leakage"),
    keep_table: bool = False,
    samples: int = 2000,
    seed: int = 0,
) -> EvalReport:
    """Worst-case error and leakage over all state sequences.

    Exhaustive mode enumerates every state sequence and every output word.
    Sampled mode Monte-Carlo estimates the error only; leakage is exact or
    the call is refused, never sampled.
    """
    n = code.n
    s_count = avwc.state_count
    check_enumeration(s_count**n, "state sequence enumeration")
    want_error = "error" in objectives
    want_leakage = "leakage" in objectives
    if want_error and mode == "exhaustive":
        check_enumeration(
            s_count**n * avwc.main_output_size**n * code.j_count * code.l_count,
            "exhaustive error evaluation",
        )
    if want_leakage:
        check_enumeration(
            s_count**n * avwc.eaves_output_size**n * code.j_count * code.l_count,
            "exact leakage evaluation (sampling is refused: sampled mutual-information "
            "estimates are biased)",
        )

    exact = {"error": want_error and mode == "exhaustive", "leakage": want_leakage}
    table = sequence_table(code, avwc, [name for name, wanted in exact.items() if wanted])
    sequences = list(StateSequence.all_sequences(s_count, n))
    if want_error and mode == "sampled":
        table["error"] = np.array(
            [
                _sampled_error(code, avwc, seq.symbols, samples, seed, counter)
                for counter, seq in enumerate(sequences)
            ]
        )

    def worst(name: str):
        if name not in table:
            return None, None
        at = int(np.argmax(table[name]))  # the first maximum: lexicographically smallest
        return float(table[name][at]), sequences[at]

    worst_error, worst_error_seq = worst("error")
    worst_leak, worst_leak_seq = worst("leakage")
    columns = [table[name].tolist() if name in table else [None] * len(sequences) for name in exact]
    return EvalReport(
        worst_state_error=worst_error,
        worst_state_sequence=worst_error_seq,
        worst_leakage_bits=worst_leak,
        worst_leakage_sequence=worst_leak_seq,
        per_sequence=tuple(zip(sequences, *columns)) if keep_table else None,
    )


def worst_state_search(
    code: WiretapCode,
    avwc: AVWC,
    objective: Literal["error", "leakage"] = "error",
    mode: Literal["exhaustive", "greedy"] = "exhaustive",
) -> tuple[StateSequence, float]:
    """Arg max over state sequences of error or leakage.

    Exhaustive mode returns the true maximizer (lexicographically smallest on
    ties); greedy coordinate ascent from the constant sequences returns a
    lower bound on the maximum.
    """
    metric: Callable = error_probability if objective == "error" else leakage_bits
    n, s_count = code.n, avwc.state_count
    if mode == "exhaustive":
        values = sequence_table(code, avwc, (objective,))[objective]
        best = int(np.argmax(values))
        return StateSequence(index_to_word(best, s_count, n), s_count), float(values[best])

    best_symbols, best_val = None, -1.0
    for start_state in range(s_count):
        symbols = [start_state] * n
        val = metric(code, avwc, StateSequence(tuple(symbols), s_count))
        improved = True
        while improved:
            improved = False
            for pos in range(n):
                for state in range(s_count):
                    if state == symbols[pos]:
                        continue
                    trial = symbols.copy()
                    trial[pos] = state
                    trial_val = metric(code, avwc, StateSequence(tuple(trial), s_count))
                    if trial_val > val + 1e-15:
                        symbols, val = trial, trial_val
                        improved = True
        if val > best_val:
            best_symbols, best_val = symbols, val
    return StateSequence(tuple(best_symbols), s_count), best_val


# ---------------------------------------------------------------------------
# random codebooks
# ---------------------------------------------------------------------------

def codebook_rates(
    p: Distribution, avwc: AVWC, n: int, tau: float, opts=None
) -> tuple[int, int, float, float]:
    """(J_n, L_n) and the two exponent terms behind them."""
    from .bounds import BoundOptions, min_mi_over_mixtures

    opts = opts or BoundOptions()
    w_min, _ = min_mi_over_mixtures(p.probs, avwc.main_stack, opts)
    v_max = max(mi_from_arrays(p.probs, rows) for rows in avwc.eaves_stack)
    j_exponent = n * (w_min - v_max - tau)
    l_exponent = n * (v_max + tau / 4.0)
    return math.floor(2.0**j_exponent), math.floor(2.0**l_exponent), j_exponent, l_exponent


def sample_codeword_indices(
    weights: np.ndarray, count: int, seed: int, stream_offset: int = 0
) -> np.ndarray:
    """Counter-based sampling: draw ``count`` indices, one Philox stream each.

    Identical seeds reproduce identical draws bit for bit, independent of
    evaluation order, which keeps parallel builders deterministic.
    """
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    picks = np.empty(count, dtype=int)
    for t in range(count):
        rng = np.random.Generator(
            np.random.Philox(key=seed, counter=[0, 0, 0, stream_offset + t])
        )
        picks[t] = int(np.searchsorted(cdf, rng.random(), side="right"))
    return picks


def build_random_codebook(
    p: Distribution,
    avwc: AVWC,
    n: int,
    tau: float,
    seed: int,
    delta: float = 0.2,
    q_grid: Sequence[Distribution] | None = None,
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
        design_p=p,
        design_delta=delta,
    )
    decoder = decode_rule(code, avwc, tp, q_grid=q_grid)
    return replace(code, decoder=decoder)


def default_q_grid(state_count: int) -> list[Distribution]:
    """Point masses on each state plus the uniform mixture."""
    grid = [Distribution.point_mass(state_count, s) for s in range(state_count)]
    if state_count > 1:
        grid.append(Distribution.uniform(state_count))
    return grid


def decode_rule(
    code: WiretapCode,
    avwc: AVWC,
    tp: TypicalityParams,
    q_grid: Sequence[Distribution] | None = None,
) -> np.ndarray:
    """Typicality decoding assignment.

    An output word belongs to message j when it is conditionally typical for
    some codeword of j under some state-averaged main channel from the grid,
    and for no other message; ambiguous or untypical words are erased.
    """
    if tp.n != code.n:
        raise ValueError("typicality parameters built for a different block length")
    grid = list(q_grid) if q_grid is not None else default_q_grid(avwc.state_count)
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
    code: WiretapCode,
    avwc: AVWC,
    tp: TypicalityParams,
    epsilon: float | None = None,
    p: Distribution | None = None,
) -> SecrecyEventReport:
    """Check the relative-deviation band events behind the codebook secrecy argument.

    For each point-mass mixture weight q the truncated reference density is
    built from the pruned input law, and for every message the l-averaged
    truncated conditional densities must stay inside the (1 +- epsilon) band
    around it at every output word.
    """
    design_p = p or code.design_p
    if design_p is None:
        raise ValueError("a design input distribution is required (code carries none)")
    if tp.n != code.n:
        raise ValueError("typicality parameters built for a different block length")
    n = code.n
    if epsilon is None:
        epsilon = 2.0 ** (-n * (TYPICALITY_C / 2.0) * tp.delta**2)

    in_words = word_matrix(avwc.input_size, n)
    out_words = word_matrix(avwc.eaves_output_size, n)
    check_enumeration(len(in_words) * len(out_words), "secrecy event check")
    in_mask = typical_mask(design_p, tp, in_words)
    if not in_mask.any():
        raise ValueError("empty typical set: no pruned distribution exists")
    pruned = iid_extension(design_p, n).probs[in_mask]
    pruned = pruned / pruned.sum()
    code_index = code.codewords @ avwc.input_size ** np.arange(n - 1, -1, -1)  # (J, L)

    slack = typicality_slack(tp.delta, avwc.input_size, avwc.eaves_output_size, n)
    per_message = []
    theta_masses = []
    band_supports = []
    for q_index, v_q in enumerate(avwc.eaves):
        out_entropy = entropy_from_array(design_p.probs @ v_q.rows)
        alpha = 2.0 ** (-n * (out_entropy + slack))
        # truncated density of every input word: V_q^n(z | x) on its conditionally typical z
        density = product_rows_matrix([v_q.rows] * n) * cond_typical_mask(v_q, in_words, tp, out_words)

        theta_raw = (pruned[:, None] * density[in_mask]).sum(axis=0)
        band = theta_raw >= epsilon * alpha
        theta = theta_raw * band
        theta_masses.append(float(theta.sum()))
        band_supports.append(int(band.sum()))

        avg = (density[code_index].sum(axis=1) / code.l_count) * band  # (J, c^n)
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
