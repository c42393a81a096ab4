"""Permutation robustification, random-code reduction and elimination of randomness.

A permutation member applies the inverse positional shuffle to every codeword
and decoding set, so its error and leakage at a state sequence equal the base
code's at the shuffled sequence.  Robustification and reduction therefore
read the base code's state-sequence table (``coding.sequence_table``): a
member's table is that table re-indexed by its permutation, and averages over
the whole group are means over type classes, which cost O(|S|^n).  ``PermutationFamily`` unranks
a member's permutation from its index and never lists the n! of them; only
the explicit reference average in ``permutation_mean_error`` walks the group,
so only it is held to the enumeration cap at n!.

Elimination checks the combined code without building its laws: all K*J
member messages take one ``output_law`` call per chunk of payload sequences
and channel, the chunks sized from those member laws alone, and the payload
leakage of one payload sequence comes from one matmul of the prefix rows
against the member laws, laid out for a single ``mi_batch`` call over every
prefix sequence.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    AVWC,
    Distribution,
    check_enumeration,
    chunks,
    iid_extension,
    output_law,
    sequence_symbols,
    simplex_grid,
    word_matrix,
)
from .coding import (
    ERASURE,
    RandomCode,
    ReductionReport,
    WiretapCode,
    _check_alphabets,
    error_probability,
    first_maximum,
    message_success,
    sequence_table,
)
from .errors import PrefixSearchFailureError, ReductionFailureError, ResourceLimitError
from .information import mi_batch

_SUBSET_CAP = 200_000  # most prefix-codeword subsets scored exhaustively
_RETRY_CAP = 20  # fresh draws a reduction tries before it fails


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
    )


class PermutationFamily(Sequence[WiretapCode]):
    """Lazy view of the permutation orbit of a base code.

    Member i is built from the i-th permutation in ``itertools.permutations``
    order, unranked from i in the factorial number system, so the n!
    permutations are never listed.
    """

    def __init__(self, base: WiretapCode):
        if math.factorial(base.n) > sys.maxsize:  # a Sequence's length is an index-sized int
            raise ResourceLimitError(f"a permutation family of {base.n}! members is too long to index")
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

    def __getitem__(self, index: int) -> WiretapCode:
        return _apply_inverse_permutation(self._base, self.permutation(index))


def robustify(code: WiretapCode, avwc: AVWC) -> RandomCode:
    """Uniformly selected permutation family of the code, members materialized lazily."""
    _check_alphabets(code, avwc)
    return RandomCode(members=PermutationFamily(code), origin="permutation-family")


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
    members, refused above the enumeration cap, and must agree to roundoff.
    """
    symbols = sequence_symbols(s, avwc.state_count)
    if method == "type":
        seqs = type_class_sequences(symbols, avwc.state_count)
        return float(np.mean([error_probability(code, avwc, seq) for seq in seqs]))
    if method == "explicit":
        check_enumeration(math.factorial(code.n), "explicit permutation average")
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


def verify_robustification(code: WiretapCode, avwc: AVWC) -> RobustificationReport:
    """Exact check of the permutation-averaging inequality for every state sequence.

    gamma is the worst shortfall of the code's expected success under the
    i.i.d. extensions of the state types of length n; each group-averaged
    success must then reach 1 - 3 (n+1)^{|S|} gamma.
    """
    _check_alphabets(code, avwc)
    n, s_count = code.n, avwc.state_count
    check_enumeration(s_count**n, "robustification verification")
    sequences = word_matrix(s_count, n)
    success = 1.0 - sequence_table(code, avwc, ("error",))["error"]

    gamma = 0.0
    for q in (Distribution(p) for p in simplex_grid(s_count, n)):
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
    k_count: int | None = None,
    epsilon: float = 0.25,
    seed: int = 0,
) -> RandomCode:
    """Draw K member codes i.i.d. and uniformly from the family and verify the means.

    The reduced family must satisfy, for every state sequence, mean error and
    mean leakage at most epsilon; verification is exhaustive and attached to
    the returned code.  On failure the draw is retried with fresh counters up
    to ``_RETRY_CAP`` (20) times before giving up with diagnostics.
    ``k_count`` defaults to the sampling bound ``reduction_count``.  The i-th
    pick of a draw is member floor(r * len(members)) for the i-th uniform r
    of the attempt's Philox stream, so no selection law over the n!
    permutation members is ever built.
    """
    members = rc.members
    count = len(members)
    if count == 0:
        raise ValueError("random code has no members")
    sample_n = members[0].n
    k = k_count
    if k is None:
        k = reduction_count(sample_n, avwc.input_size, avwc.state_count, epsilon)
    if k < 1:
        raise ValueError("k_count must be at least 1")

    check_enumeration(avwc.state_count**sample_n, "reduction verification")
    member_table = _member_tables(members, avwc)
    best = None
    for attempt in range(_RETRY_CAP):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, attempt, 0]))
        picks = [int(rng.random() * count) for _ in range(k)]
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
            return RandomCode(members=chosen, origin="reduced", verification=report)
    raise ReductionFailureError(
        f"no draw of {k} members met epsilon={epsilon!r} within {_RETRY_CAP} attempts",
        diagnostics={
            "best_worst_mean_error": best[0],
            "best_worst_mean_leakage": best[1],
            "attempts": _RETRY_CAP,
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


def search_prefix_code(avwc: AVWC, k_count: int, prefix_len: int) -> PrefixCode:
    """Deterministic K-codeword prefix code over the main channel family.

    Codewords come from a constant-composition pool (most balanced
    compositions first); subsets are scored by minimum pairwise Hamming
    distance with total distance as tie break, exhaustively when there are at
    most 200000 subsets and greedily otherwise.  Decoding is maximum
    likelihood under the uniform state mixture.
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
    if math.comb(len(pool), k_count) <= _SUBSET_CAP:
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
    """Worst cases of the combined code.  ``passed`` (CLI ``checks_pass``) only checks
    total error <= prefix error + mean member error and payload leakage <= mean member
    leakage, which hold for every code by theorem; ``worst_total_error`` shows reliability
    (on ``adder`` a J = L = 2 code at n = 5 passes with a worst total error of 0.9375)."""

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


def eliminate_randomness(reduced: RandomCode, avwc: AVWC, prefix_len: int) -> EliminationResult:
    """Concatenate a member-identifying prefix with each member code.

    The returned deterministic code transmits (member index, payload) pairs;
    decoding first identifies the member from the prefix block and then the
    payload with that member's decoder.  The report verifies, exactly and for
    every state sequence of the combined length, that the total error is at
    most prefix error plus mean member error, and that the payload leakage is
    at most the mean member leakage; ties within 1e-12 go to the first sequence.
    """
    members = list(reduced.members)
    k = len(members)
    if k == 0:
        raise ValueError("reduced code has no members")
    base = members[0]
    for m in members:
        _check_alphabets(m, avwc)
        if (m.n, m.j_count, m.l_count) != (base.n, base.j_count, base.l_count):
            raise ValueError("members must share block length and code size")

    prefix = search_prefix_code(avwc, k, prefix_len)

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
    prefix_success = message_success(
        output_law(prefix_as_code, avwc.main_stack[prefix_states]), prefix.decoder
    )  # (|S|^prefix_len, K)
    eaves_prefix_rows = output_law(prefix_as_code, avwc.eaves_stack[prefix_states])  # (P, K, c^prefix_len)
    # member identity acts as encoder randomness: p(u, z^n | j) = sum_i (p_i(u) / K) p_i(z^n | j)
    prefix_weights = eaves_prefix_rows.transpose(0, 2, 1).reshape(-1, k) / k  # (P*U, K)

    # payload: all K*J member messages in one output_law call per chunk of sequences and channel
    payload_states = word_matrix(avwc.state_count, n)
    all_members = member_words.reshape(k * j_count, l_count, n)
    member_decoders = np.stack([m.decoder for m in members])  # (K, b^n)
    uniform_j = np.full(j_count, 1.0 / j_count)
    member_err, member_leak = np.empty((2, len(payload_states), k))
    leak = np.empty((len(prefix_states), len(payload_states)))  # payload leakage per (prefix, payload)
    c = avwc.eaves_output_size
    # one payload sequence's joint at a time, (P*U, K) @ (K, Z) per message j, in one buffer: a fresh
    # joint per sequence let malloc trim and regrow the heap top, which made the stage's time vary
    joint = np.empty((j_count, len(prefix_weights), c**n))
    for chunk in chunks(len(payload_states), k * j_count * l_count * max(b, c) ** n):
        states = payload_states[chunk]
        main = output_law(all_members, avwc.main_stack[states]).reshape(len(states), k, j_count, -1)
        member_err[chunk] = 1.0 - message_success(main, member_decoders).mean(axis=-1)
        cond = output_law(all_members, avwc.eaves_stack[states]).reshape(len(states), k, j_count, -1)
        member_leak[chunk] = mi_batch(uniform_j, cond)
        for t, laws in enumerate(cond, chunk.start):
            np.matmul(prefix_weights, laws.transpose(1, 0, 2), out=joint)  # (J, P*U, Z), read as (J, P, U*Z)
            leak[:, t] = mi_batch(uniform_j, joint.reshape(j_count, len(prefix_states), -1).swapaxes(0, 1))

    # every (prefix, payload) pair at once; row-major order is lexicographic
    total = 1.0 - (prefix_success[:, None, :] * (1.0 - member_err)[None, :, :]).mean(axis=2)
    bound = (1.0 - prefix_success).mean(axis=1)[:, None] + member_err.mean(axis=1)[None, :]
    worst_pre, worst_pay = np.unravel_index(first_maximum(total), total.shape)
    leak_pre, leak_pay = np.unravel_index(first_maximum(leak), leak.shape)

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
