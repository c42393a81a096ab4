"""Independent brute-force reference for code evaluation and the prefix search.

Deliberately written with plain Python loops, dictionaries and math.log2,
sharing no enumeration helpers or numpy kernels with the package, so it can
serve as a second implementation when checking exact error and leakage
values and the prefix codewords.
"""

import itertools
import math


def brute_error(codewords, decoder_map, main_rows_per_state, state_seq):
    """Average decoding error; codewords[j][l] are symbol tuples.

    ``decoder_map`` maps output tuples to a message index (missing = erasure).
    ``main_rows_per_state[s][x][y]`` is the transition probability.
    """
    n = len(state_seq)
    j_count = len(codewords)
    output_size = len(main_rows_per_state[0][0])
    total_success = 0.0
    uses = 0
    for j, words in enumerate(codewords):
        for word in words:
            uses += 1
            for y in itertools.product(range(output_size), repeat=n):
                if decoder_map.get(tuple(y), None) != j:
                    continue
                prob = 1.0
                for i in range(n):
                    prob *= main_rows_per_state[state_seq[i]][word[i]][y[i]]
                total_success += prob
    return 1.0 - total_success / uses


def brute_leakage(codewords, eaves_rows_per_state, state_seq):
    """I(J; Z^n) in bits with J uniform and l-averaged conditionals."""
    n = len(state_seq)
    j_count = len(codewords)
    output_size = len(eaves_rows_per_state[0][0])
    cond = {}
    for j, words in enumerate(codewords):
        for y in itertools.product(range(output_size), repeat=n):
            total = 0.0
            for word in words:
                prob = 1.0
                for i in range(n):
                    prob *= eaves_rows_per_state[state_seq[i]][word[i]][y[i]]
                total += prob
            cond[(j, y)] = total / len(words)

    marginal = {}
    for (j, y), value in cond.items():
        marginal[y] = marginal.get(y, 0.0) + value / j_count

    info = 0.0
    for (j, y), value in cond.items():
        joint = value / j_count
        if joint > 0.0:
            info += joint * math.log2(joint / ((1.0 / j_count) * marginal[y]))
    return max(info, 0.0)


def brute_worst_case(codewords, decoder_map, main_rows, eaves_rows, state_count, n):
    """Max error and max leakage over all state sequences."""
    worst_error = -1.0
    worst_leak = -1.0
    for seq in itertools.product(range(state_count), repeat=n):
        err = brute_error(codewords, decoder_map, main_rows, seq)
        leak = brute_leakage(codewords, eaves_rows, seq)
        worst_error = max(worst_error, err)
        worst_leak = max(worst_leak, leak)
    return worst_error, worst_leak


def composition_classes(length, alphabet):
    """The words' composition classes in (max count, counts) order, each lexicographic."""
    words = list(itertools.product(range(alphabet), repeat=length))
    counts = {w: tuple(w.count(s) for s in range(alphabet)) for w in words}
    order = sorted(set(counts.values()), key=lambda c: (max(c), c))
    return [[w for w in words if counts[w] == comp] for comp in order]


def composition_pool(classes, minimum):
    """Whole classes, in order, until at least ``minimum`` words are pooled."""
    pool = []
    for members in classes:
        pool += members
        if len(pool) >= minimum:
            break
    return pool


def prefix_words(alphabet, k_count, prefix_len, subset_cap):
    """Prefix codewords: the first subset of the pool with the best (min, total) pairwise
    Hamming distance when at most ``subset_cap`` subsets exist, else greedily the word
    farthest from those chosen, ties to the lexicographically last."""
    pool = composition_pool(composition_classes(prefix_len, alphabet), k_count)

    def dist(u, v):
        return sum(1 for x, y in zip(u, v) if x != y)

    def score(words):
        dists = [dist(u, v) for u, v in itertools.combinations(words, 2)]
        return (min(dists), sum(dists)) if dists else (prefix_len, 0)

    if math.comb(len(pool), k_count) <= subset_cap:
        return list(max(itertools.combinations(pool, k_count), key=score))
    chosen = [pool[0]]
    while len(chosen) < k_count:
        rest = (w for w in pool if w not in chosen)
        chosen.append(max(rest, key=lambda w: (min(dist(w, c) for c in chosen), w)))
    return chosen
