"""Permutation robustification, random-code reduction and elimination of randomness.

A permutation member applies the inverse positional shuffle to every codeword
and decoding set, so its error and leakage at a state sequence equal the base
code's at the shuffled sequence.  Robustification and reduction therefore
read the base code's state-sequence table (``coding.sequence_table``): a
member's table is that table re-indexed by its permutation, and averages over
the whole group are means over type classes, which cost O(|S|^n).  ``PermutationFamily`` unranks
a member's permutation from its index and never lists the n! of them; only
the explicit reference average in ``permutation_mean_error`` walks the group.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    AVWC,
    Distribution,
    check_enumeration,
    iid_extension,
    sequence_symbols,
    simplex_grid,
    word_matrix,
)
from .coding import (
    ERASURE,
    RandomCode,
    ReductionReport,
    WiretapCode,
    error_probability,
    message_success,
    output_law,
    sequence_table,
)
from .errors import PrefixSearchFailureError, ReductionFailureError
from .information import mi_batch


def permute_word(word: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Positional shuffle: entry i of the result is word[sigma[i]]."""
    return tuple(int(word[sigma[i]]) for i in range(len(sigma)))


def _apply_inverse_permutation(code: WiretapCode, sigma: Sequence[int]) -> WiretapCode:
    """Member code with codewords and decoding sets shuffled by the inverse map."""
    n = code.n
    sigma = tuple(sigma)
    sigma_inv = tuple(int(v) for v in np.argsort(sigma))
    codewords = code.codewords[:, :, list(sigma_inv)]
    outputs = word_matrix(code.output_size, n)
    powers = code.output_size ** np.arange(n - 1, -1, -1)
    permuted_indices = outputs[:, list(sigma)] @ powers
    decoder = code.decoder[permuted_indices]
    return WiretapCode(
        n=n,
        input_size=code.input_size,
        output_size=code.output_size,
        codewords=codewords,
        decoder=decoder,
        design_p=code.design_p,
        design_delta=code.design_delta,
    )


class PermutationFamily(Sequence[WiretapCode]):
    """Lazy view of the permutation orbit of a base code.

    Member i is built from the i-th permutation in ``itertools.permutations``
    order, unranked from i in the factorial number system, so the n!
    permutations are never listed.
    """

    def __init__(self, base: WiretapCode):
        self._base = base

    @property
    def base(self) -> WiretapCode:
        return self._base

    def permutation(self, index: int) -> tuple[int, ...]:
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("permutation index out of range")
        pool = list(range(self._base.n))
        sigma = []
        for place in range(self._base.n - 1, -1, -1):
            digit, index = divmod(index, math.factorial(place))
            sigma.append(pool.pop(digit))
        return tuple(sigma)

    def __len__(self) -> int:
        return math.factorial(self._base.n)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return _apply_inverse_permutation(self._base, self.permutation(index))


def robustify(code: WiretapCode, avwc: AVWC) -> RandomCode:
    """Uniformly selected permutation family of the code, members materialized lazily."""
    if avwc.input_size != code.input_size or avwc.main_output_size != code.output_size:
        raise ValueError("code alphabets do not match the channel family")
    factorial = math.factorial(code.n)
    check_enumeration(factorial, "permutation family")
    family = PermutationFamily(code)
    return RandomCode(members=family, mu=Distribution.uniform(factorial), origin="permutation-family")


def type_class_sequences(s, state_count: int) -> list[tuple[int, ...]]:
    """Distinct sequences sharing the type of s, lexicographic order."""
    symbols = sequence_symbols(s, state_count)
    check_enumeration(state_count ** len(symbols), "type class enumeration")
    key = sorted(symbols)
    return [
        seq
        for seq in itertools.product(range(state_count), repeat=len(symbols))
        if sorted(seq) == key
    ]


def permutation_mean_error(
    code: WiretapCode, avwc: AVWC, s, method: str = "type"
) -> float:
    """Mean error of the permutation family at s.

    ``type`` averages the base code over the type class of s (every group
    element weights class members equally); ``explicit`` loops over all n!
    members and must agree to roundoff.
    """
    symbols = sequence_symbols(s, avwc.state_count)
    if method == "type":
        seqs = type_class_sequences(symbols, avwc.state_count)
        return float(np.mean([error_probability(code, avwc, seq) for seq in seqs]))
    if method == "explicit":
        total = 0.0
        count = 0
        for sigma in itertools.permutations(range(code.n)):
            member = _apply_inverse_permutation(code, sigma)
            total += error_probability(member, avwc, symbols)
            count += 1
        return total / count
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True, eq=False)
class RobustificationReport:
    gamma: float
    min_slack: float
    bound_coefficient: float
    per_sequence: tuple  # (symbols, group-averaged success, bound)

    @property
    def passed(self) -> bool:
        return self.min_slack >= -1e-12


def verify_robustification(
    code: WiretapCode, avwc: AVWC, q_set: Sequence[Distribution] | None = None
) -> RobustificationReport:
    """Exact check of the permutation-averaging inequality for every state sequence.

    gamma is the worst shortfall of the code's expected success under the
    i.i.d. extensions of the supplied weight vectors (state types of length n
    by default); each group-averaged success must then reach
    1 - 3 (n+1)^{|S|} gamma.
    """
    n, s_count = code.n, avwc.state_count
    check_enumeration(s_count**n, "robustification verification")
    sequences = word_matrix(s_count, n)
    success = 1.0 - sequence_table(code, avwc, ("error",))["error"]

    if q_set is None:
        q_set = [Distribution(p) for p in simplex_grid(s_count, n)]
    gamma = 0.0
    for q in q_set:
        gamma = max(gamma, 1.0 - float(iid_extension(q, n).probs @ success))

    coefficient = 3.0 * (n + 1) ** s_count
    bound = 1.0 - coefficient * gamma
    # the group average at s is the mean success over the type class of s
    counts = (sequences[:, :, None] == np.arange(s_count)).sum(axis=1)
    _, type_index = np.unique(counts, axis=0, return_inverse=True)
    type_index = type_index.reshape(-1)  # numpy 2.0.0 returns it as a column
    averaged = np.bincount(type_index, weights=success) / np.bincount(type_index)
    return RobustificationReport(
        gamma=gamma,
        min_slack=float(np.min(averaged - bound)),
        bound_coefficient=coefficient,
        per_sequence=tuple(
            (tuple(s), float(averaged[t]), bound) for s, t in zip(sequences.tolist(), type_index)
        ),
    )


# ---------------------------------------------------------------------------
# random code reduction
# ---------------------------------------------------------------------------

def reduction_count(n: int, input_size: int, state_count: int, epsilon: float) -> int:
    """Smallest member count satisfying the reduction sampling bound."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    bound = 2.0 * n * math.log2(input_size) * (1.0 + n * math.log2(state_count)) / epsilon
    return int(math.floor(bound)) + 1


def _member_tables(members: Sequence[WiretapCode], avwc: AVWC):
    """index -> the member's error and leakage tables, each member evaluated at most once.

    A permutation member evaluates nothing: its value at s is the base code's
    value at the shuffled sequence (s[sigma[0]], ..., s[sigma[n-1]]).
    """
    if not isinstance(members, PermutationFamily):
        return functools.cache(lambda index: sequence_table(members[index], avwc))
    base = sequence_table(members.base, avwc)
    n, s_count = members.base.n, avwc.state_count
    sequences = word_matrix(s_count, n)
    powers = s_count ** np.arange(n - 1, -1, -1)

    def table(index: int) -> dict[str, np.ndarray]:
        shuffled = sequences[:, list(members.permutation(index))] @ powers
        return {name: values[shuffled] for name, values in base.items()}

    return table


def reduce_random_code(
    rc: RandomCode,
    avwc: AVWC,
    k_count: int | str | None = None,
    epsilon: float = 0.25,
    seed: int = 0,
    retry_cap: int = 20,
) -> RandomCode:
    """Draw K member codes i.i.d. from the selection law and verify the means.

    The reduced family must satisfy, for every state sequence, mean error and
    mean leakage at most epsilon; verification is exhaustive and attached to
    the returned code.  On failure the draw is retried with fresh counters up
    to ``retry_cap`` times before giving up with diagnostics.

    ``k_count`` may be an explicit integer, "bound" (default: the sampling
    bound), "n3" (cubic-in-blocklength preset), or "all" (keep every member
    exactly once, no sampling; requires a uniform selection law).
    """
    members = rc.members
    if len(members) == 0:
        raise ValueError("random code has no members")
    sample_n = members[0].n
    full_sample = False
    if k_count is None or k_count == "bound":
        k = reduction_count(sample_n, avwc.input_size, avwc.state_count, epsilon)
    elif k_count == "n3":
        k = sample_n**3
    elif k_count == "all":
        if not np.allclose(rc.mu.probs, 1.0 / len(members), atol=1e-12):
            raise ValueError("the 'all' preset needs a uniformly selected family")
        k = len(members)
        full_sample = True
    elif isinstance(k_count, int):
        k = k_count
    else:
        raise ValueError(f"unknown k_count preset {k_count!r}")
    if k < 1:
        raise ValueError("k_count must be at least 1")
    if retry_cap < 1:
        raise ValueError("retry_cap must be at least 1")

    check_enumeration(avwc.state_count**sample_n, "reduction verification")
    member_table = _member_tables(members, avwc)
    cdf = np.cumsum(rc.mu.probs)
    cdf[-1] = 1.0
    best = None
    for attempt in range(1 if full_sample else retry_cap):
        if full_sample:
            picks = list(range(k))
        else:
            rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, attempt, 0]))
            picks = [int(np.searchsorted(cdf, rng.random(), side="right")) for _ in range(k)]
        tables = [member_table(index) for index in picks]
        mean_err = np.mean([table["error"] for table in tables], axis=0)
        mean_leak = np.mean([table["leakage"] for table in tables], axis=0)
        worst_err = float(mean_err.max())
        worst_leak = float(mean_leak.max())
        if best is None or max(worst_err, worst_leak) < max(best[0], best[1]):
            best = (worst_err, worst_leak)
        if worst_err <= epsilon and worst_leak <= epsilon:
            report = ReductionReport(
                success=True,
                k_count=k,
                epsilon=epsilon,
                attempts=attempt + 1,
                worst_mean_error=worst_err,
                worst_mean_leakage=worst_leak,
            )
            chosen = [members[i] for i in picks]
            return RandomCode(
                members=chosen,
                mu=Distribution.uniform(k),
                origin="reduced",
                verification=report,
            )
    raise ReductionFailureError(
        f"no draw of {k} members met epsilon={epsilon!r} within {retry_cap} attempts",
        diagnostics={
            "best_worst_mean_error": best[0],
            "best_worst_mean_leakage": best[1],
            "attempts": retry_cap,
            "estimated_failure_probability": 1.0,
        },
    )


# ---------------------------------------------------------------------------
# elimination of randomness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PrefixCode:
    codewords: np.ndarray  # (K, prefix_len)
    decoder: np.ndarray  # (output_size**prefix_len,) member index

    @property
    def k_count(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def length(self) -> int:
        return int(self.codewords.shape[1])


def _constant_composition_pool(length: int, alphabet: int, minimum: int) -> list[tuple[int, ...]]:
    """Words of whole composition classes, most balanced first, until ``minimum`` are pooled."""
    compositions = sorted(
        (tuple(int(c) for c in np.rint(p * length)) for p in simplex_grid(alphabet, length)),
        key=lambda c: (max(c), c),
    )
    pool: list[tuple[int, ...]] = []
    for comp in compositions:
        symbols = [s for s, cnt in enumerate(comp) for _ in range(cnt)]
        pool.extend(type_class_sequences(symbols, alphabet))
        if len(pool) >= minimum:
            break
    return pool


def search_prefix_code(
    avwc: AVWC, k_count: int, prefix_len: int, subset_cap: int = 200_000
) -> PrefixCode:
    """Deterministic K-codeword prefix code over the main channel family.

    Codewords come from a constant-composition pool (most balanced
    compositions first); subsets are scored by minimum pairwise Hamming
    distance with total distance as tie break, exhaustively when small and
    greedily otherwise.  Decoding is maximum likelihood under the uniform
    state mixture.
    """
    a = avwc.input_size
    if k_count > a**prefix_len:
        raise PrefixSearchFailureError(
            f"{k_count} prefix messages cannot fit into {a}^{prefix_len} words"
        )
    pool = _constant_composition_pool(prefix_len, a, k_count)
    if len(pool) < k_count:
        pool = [tuple(row) for row in word_matrix(a, prefix_len)]

    def score(words: Sequence[tuple[int, ...]]) -> tuple[int, int]:
        dists = [
            sum(1 for u, v in zip(w1, w2) if u != v)
            for w1, w2 in itertools.combinations(words, 2)
        ]
        return (min(dists), sum(dists)) if dists else (prefix_len, 0)

    best_words = None
    best_score = (-1, -1)
    if math.comb(len(pool), k_count) <= subset_cap:
        for subset in itertools.combinations(pool, k_count):
            sc = score(subset)
            if sc > best_score:
                best_score = sc
                best_words = subset
    else:
        chosen = [pool[0]]
        while len(chosen) < k_count:
            def min_dist(word):
                return min(sum(1 for u, v in zip(word, w) if u != v) for w in chosen)
            candidate = max((w for w in pool if w not in chosen), key=lambda w: (min_dist(w), w))
            chosen.append(candidate)
        best_words = tuple(chosen)

    codewords = np.array(best_words, dtype=int)
    uniform = Distribution.uniform(avwc.state_count)
    mixed = np.tensordot(uniform.probs, avwc.main_stack, axes=1)
    # p(y | codeword i) of the K-message, L = 1 code under the mixed channel at every position
    likelihood = output_law(codewords[:, None, :], np.broadcast_to(mixed, (prefix_len,) + mixed.shape))
    decoder = np.argmax(likelihood, axis=0)
    return PrefixCode(codewords=codewords, decoder=decoder)


@dataclass(frozen=True, eq=False)
class EliminationReport:
    prefix_len: int
    k_count: int
    worst_total_error: float
    worst_error_sequence: tuple[int, ...]
    worst_prefix_error: float
    worst_mean_member_error: float
    error_decomposition_margin: float
    worst_payload_leakage: float
    worst_leakage_sequence: tuple[int, ...]
    worst_mean_member_leakage: float
    leakage_margin: float

    @property
    def passed(self) -> bool:
        return self.error_decomposition_margin >= -1e-12 and self.leakage_margin >= -1e-9


@dataclass(frozen=True, eq=False)
class EliminationResult:
    code: WiretapCode
    prefix: PrefixCode
    report: EliminationReport


def eliminate_randomness(
    reduced: RandomCode,
    avwc: AVWC,
    prefix_len: int,
    prefix_code: PrefixCode | None = None,
) -> EliminationResult:
    """Concatenate a member-identifying prefix with each member code.

    The returned deterministic code transmits (member index, payload) pairs;
    decoding first identifies the member from the prefix block and then the
    payload with that member's decoder.  The report verifies, exactly and for
    every state sequence of the combined length, that the total error is at
    most prefix error plus mean member error, and that the payload leakage is
    at most the mean member leakage.
    """
    members = list(reduced.members)
    k = len(members)
    if k == 0:
        raise ValueError("reduced code has no members")
    if not np.allclose(reduced.mu.probs, 1.0 / k, atol=1e-12):
        raise ValueError("elimination requires a uniformly selected family")
    base = members[0]
    for m in members:
        if (m.n, m.j_count, m.l_count) != (base.n, base.j_count, base.l_count):
            raise ValueError("members must share block length and code size")

    prefix = prefix_code or search_prefix_code(avwc, k, prefix_len)
    if prefix.k_count != k or prefix.length != prefix_len:
        raise ValueError("prefix code shape does not match the member count")

    n, j_count, l_count = base.n, base.j_count, base.l_count
    b = avwc.main_output_size
    total_len = prefix_len + n
    check_enumeration(avwc.state_count**total_len, "elimination verification")
    check_enumeration(b**total_len * k * j_count * l_count, "combined code evaluation")

    # combined codewords (member i's message j is message i*J + j) and decoder
    member_words = np.stack([m.codewords for m in members])  # (K, J, L, n)
    prefix_words = np.broadcast_to(
        prefix.codewords[:, None, None, :], (k, j_count, l_count, prefix_len)
    )
    codewords = np.concatenate([prefix_words, member_words], axis=3)
    blocks = np.stack([m.decoder for m in members])[prefix.decoder]  # (b^prefix_len, b^n)
    decoder = np.where(blocks == ERASURE, ERASURE, prefix.decoder[:, None] * j_count + blocks)
    combined = WiretapCode(
        n=total_len,
        input_size=avwc.input_size,
        output_size=b,
        codewords=codewords.reshape(k * j_count, l_count, total_len),
        decoder=decoder.ravel(),
    )

    # the prefix block is a K-message, L = 1 code whose message is the member index
    prefix_states = word_matrix(avwc.state_count, prefix_len)
    prefix_as_code = prefix.codewords[:, None, :]
    prefix_success = np.array(
        [
            message_success(output_law(prefix_as_code, avwc.main_stack[s]), prefix.decoder)
            for s in prefix_states
        ]
    )  # (|S|^prefix_len, K)
    eaves_prefix_rows = np.stack(
        [output_law(prefix_as_code, avwc.eaves_stack[s]) for s in prefix_states]
    )  # (|S|^prefix_len, K, c^prefix_len)

    # payload: member errors from their tables, eavesdropper laws from the kernel
    payload_states = word_matrix(avwc.state_count, n)
    member_err = np.stack([sequence_table(m, avwc, ("error",))["error"] for m in members], axis=1)
    all_members = member_words.reshape(k * j_count, l_count, n)  # one K*J-message code
    uniform_j = np.full(j_count, 1.0 / j_count)
    member_leak = np.empty((len(payload_states), k))
    leak = np.empty((len(prefix_states), len(payload_states)))  # payload leakage per (prefix, payload)
    for t, s in enumerate(payload_states):
        cond = output_law(all_members, avwc.eaves_stack[s]).reshape(k, j_count, -1)  # p_i(z^n | j)
        member_leak[t] = mi_batch(uniform_j, cond)
        # member identity acts as encoder randomness: p(u, z^n | j) = mean_i p_i(u) p_i(z^n | j)
        joint = np.einsum("piu,ijz->pjuz", eaves_prefix_rows, cond) / k
        leak[:, t] = mi_batch(uniform_j, joint.reshape(len(prefix_states), j_count, -1))

    # every (prefix, payload) pair at once; row-major order is lexicographic
    total = 1.0 - (prefix_success[:, None, :] * (1.0 - member_err)[None, :, :]).mean(axis=2)
    bound = (1.0 - prefix_success).mean(axis=1)[:, None] + member_err.mean(axis=1)[None, :]
    worst_pre, worst_pay = np.unravel_index(int(np.argmax(total)), total.shape)
    leak_pre, leak_pay = np.unravel_index(int(np.argmax(leak)), leak.shape)

    report = EliminationReport(
        prefix_len=prefix_len,
        k_count=k,
        worst_total_error=float(total[worst_pre, worst_pay]),
        worst_error_sequence=tuple(
            prefix_states[worst_pre].tolist() + payload_states[worst_pay].tolist()
        ),
        worst_prefix_error=float((1.0 - prefix_success).mean(axis=1).max()),
        worst_mean_member_error=float(member_err.mean(axis=1).max()),
        error_decomposition_margin=float((bound - total).min()),
        worst_payload_leakage=float(leak[leak_pre, leak_pay]),
        worst_leakage_sequence=tuple(
            prefix_states[leak_pre].tolist() + payload_states[leak_pay].tolist()
        ),
        worst_mean_member_leakage=float(member_leak.mean(axis=1).max()),
        leakage_margin=float((member_leak.mean(axis=1)[None, :] - leak).min()),
    )
    return EliminationResult(code=combined, prefix=prefix, report=report)
