"""Independent references for every result a round produces.

Nothing here calls an avwc kernel: entropies come from ``math.log2``,
mutual information from its divergence form, simplex grids and code
evaluation from code written here.  Each check returns a list of failure
messages; an empty list means the result is correct.

* closed forms from the binary entropy function for the sample specs;
* a dense-grid search for max_p min_q I(p, W_q) and the secrecy lower bound
  on binary-input instances;
* the convex-hull test for symmetrisability of binary-input families;
* a plain-Python error/leakage evaluator (loops and dictionaries only);
* a numpy evaluator over all output words, used where every state sequence
  or every one of n! permutation members has to be evaluated;
* the inequalities the paper's lemmas state for robustification, reduction
  and elimination of randomness.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from workloads import FAILED

VALUE_TOL = 1e-6        # closed forms against optimizer results
GRID_TOL = 1e-6         # dense-grid oracle against optimizer results
EXACT_TOL = 1e-12       # two exact evaluations of one probability
LEAK_TOL = 1e-9         # two exact evaluations of one mutual information


def h2(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# bound values of the sample specs; see sample_specs/*.avwc
CLOSED_FORMS = {
    "single_bsc": {
        "lower": h2(0.3) - h2(0.1),
        "upper": h2(0.3) - h2(0.1),
        "multi": h2(0.3) - h2(0.1),
        "capacity": 1 - h2(0.1),
    },
    "degraded_pair": {
        "lower": h2(0.4) - h2(0.15),
        "upper": h2(0.4) - h2(0.15),
        "multi": h2(0.4) - h2(0.15),
        "capacity": 1 - h2(0.15),
    },
    "adder": {"lower": 0.5, "upper": 0.5, "multi": 0.5, "capacity": 0.5},
}


# -- information-theoretic references ------------------------------------------

def _compositions(dim: int, total: int) -> np.ndarray:
    """All nonnegative integer vectors of length dim summing to total."""
    if dim == 1:
        return np.array([[total]])
    return np.concatenate(
        [
            np.column_stack([np.full(len(rest), first), rest])
            for first in range(total + 1)
            for rest in [_compositions(dim - 1, total - first)]
        ]
    )


def _simplex_points(dim: int, denominator: int) -> np.ndarray:
    return _compositions(dim, denominator) / denominator


def _mi_binary(p1: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """I(X; Y) for P(X = 1) = p1 (shape P) and channels rows (shape Q, 2, B) -> (P, Q).

    Divergence form sum_x p(x) sum_y W(y|x) log2(W(y|x) / pW(y)).
    """
    p = np.stack([1.0 - p1, p1], axis=1)                        # (P, 2)
    out = np.einsum("px,qxb->pqb", p, rows)                      # (P, Q, B)
    total = np.zeros(out.shape[:2])
    for x in range(2):
        w = rows[:, x, :][None, :, :]                            # (1, Q, B)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(w > 0, w * np.log2(w / out), 0.0).sum(axis=2)
            total += np.where(p[:, x][:, None] > 0, p[:, x][:, None] * term, 0.0)
    return total


def grid_saddle(main: np.ndarray, eaves: np.ndarray | None) -> float:
    """max_p [min_q I(p, W_q) - max_s I(p, V_s)] by dense grids, binary input.

    ``eaves=None`` gives the AVC capacity max_p min_q I(p, W_q).  A coarse
    pass (p step 1/200, q step 1/60) locates the saddle; a fine pass (p step
    1/5000, q step 1/1200 in a box around the coarse q) refines it.  The
    eavesdropper maximum over mixtures sits on a state because I(p, V) is
    convex in V.
    """
    s_count = main.shape[0]

    def value(p1, q_points):
        mixed = np.einsum("qs,sab->qab", q_points, main)
        inner = _mi_binary(p1, mixed)                            # (P, Q)
        best_q = inner.argmin(axis=1)
        val = inner.min(axis=1)
        if eaves is not None:
            val = val - _mi_binary(p1, eaves).max(axis=1)
        return val, q_points[best_q]

    p_coarse = np.linspace(0.0, 1.0, 201)
    val, qs = value(p_coarse, _simplex_points(s_count, 60))
    k = int(np.argmax(val))
    p_fine = np.linspace(max(0.0, p_coarse[k] - 0.01), min(1.0, p_coarse[k] + 0.01), 101)
    if s_count == 1:
        return float(value(p_fine, np.ones((1, 1)))[0].max())
    box = _simplex_points(s_count, 1200)
    box = box[np.all(np.abs(box - qs[k]) <= 0.05 + 1e-12, axis=1)]
    return float(value(p_fine, box)[0].max())


def hull_distance(main: np.ndarray, denominator: int = 60) -> float:
    """Grid distance between conv{W_s(.|0)} and conv{W_s(.|1)}, binary input.

    A binary-input family is symmetrisable iff the two hulls meet (U(.|1)
    mixes the rows for input 0 into a point that U(.|0) reaches from the
    rows for input 1).  The grid distance is within 2 (|S| - 1) / denominator
    of the true one.
    """
    q = _simplex_points(main.shape[0], denominator)
    left = q @ main[:, 0, :]
    right = q @ main[:, 1, :]
    return float(np.abs(left[:, None, :] - right[None, :, :]).max(axis=2).min())


# -- code evaluation references ------------------------------------------------

def py_error(code, rows, seq) -> float:
    """Average error by plain loops: rows[s][x][y] per state, seq the state sequence."""
    n = len(seq)
    words = code.codewords.tolist()
    decoder = code.decoder.tolist()
    out_size = len(rows[0][0])
    success = 0.0
    for j, row_words in enumerate(words):
        for word in row_words:
            for index, y in enumerate(itertools.product(range(out_size), repeat=n)):
                if decoder[index] != j:
                    continue
                prob = 1.0
                for i in range(n):
                    prob *= rows[seq[i]][word[i]][y[i]]
                success += prob
    return 1.0 - success / (len(words) * len(words[0]))


def py_leakage(groups, rows, seq) -> float:
    """I(J; Z^n) by plain loops; groups[j] lists the words sent for message j."""
    n = len(seq)
    out_size = len(rows[0][0])
    cond = {}
    for j, words in enumerate(groups):
        for y in itertools.product(range(out_size), repeat=n):
            total = 0.0
            for word in words:
                prob = 1.0
                for i in range(n):
                    prob *= rows[seq[i]][word[i]][y[i]]
                total += prob
            cond[j, y] = total / len(words)
    marginal = {}
    for (j, y), value in cond.items():
        marginal[y] = marginal.get(y, 0.0) + value / len(groups)
    info = 0.0
    for (j, y), value in cond.items():
        joint = value / len(groups)
        if joint > 0.0:
            info += joint * math.log2(joint / (marginal[y] / len(groups)))
    return max(info, 0.0)


def _output_words(size: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(size), repeat=n)), dtype=np.int64)


def _word_probs(stack, seq, words, outputs) -> np.ndarray:
    """P(y | x, s) for words (..., n) and all outputs (Y, n) -> (..., Y)."""
    probs = np.ones(words.shape[:-1] + (len(outputs),))
    for i, s in enumerate(seq):
        probs *= stack[s][words[..., i][..., None], outputs[:, i]]
    return probs


def np_error(code, stack, seq, outputs) -> float:
    probs = _word_probs(stack, seq, code.codewords, outputs)     # (J, L, Y)
    hits = code.decoder[None, :] == np.arange(code.j_count)[:, None]
    return 1.0 - float((probs * hits[:, None, :]).sum()) / (code.j_count * code.l_count)


def np_leakage(code, stack, seq, outputs) -> float:
    cond = _word_probs(stack, seq, code.codewords, outputs).mean(axis=1)   # (J, Z)
    joint = cond / code.j_count
    marg = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0, joint * np.log2(joint / (marg[None, :] / code.j_count)), 0.0)
    return max(float(terms.sum()), 0.0)


def explicit_member_error(code, stack, seq, chunk: int = 2520) -> float:
    """Mean error over all n! permuted codes (pi x_jl, pi D_j) at one sequence.

    Each member is built and evaluated on its own, with no use of the
    type-class shortcut: codeword symbol i of member pi is x_{pi(i)}, and y
    decodes to j when the inverse-permuted word does under the base code.
    P(y | w, s) is tabulated once for every input word w.
    """
    n = code.n
    a_size, b_size = stack.shape[1], stack.shape[2]
    outputs = _output_words(b_size, n)
    table = _word_probs(stack, seq, _output_words(a_size, n), outputs)     # (A^n, Y)
    out_powers = b_size ** np.arange(n - 1, -1, -1)
    in_powers = a_size ** np.arange(n - 1, -1, -1)
    flat = code.codewords.reshape(-1, n)                         # (C, n)
    messages = np.repeat(np.arange(code.j_count), code.l_count)  # message of each row
    perms = np.array(list(itertools.permutations(range(n))))
    total = 0.0
    for start in range(0, len(perms), chunk):
        pi = perms[start : start + chunk]                        # (M, n)
        inverse = np.argsort(pi, axis=1)
        words = flat[:, pi].transpose(1, 0, 2)                   # (M, C, n)
        probs = table[words @ in_powers]                         # (M, C, Y)
        back = outputs[:, inverse].transpose(1, 0, 2) @ out_powers   # (M, Y)
        decoded = code.decoder[back]                             # (M, Y)
        hits = decoded[:, None, :] == messages[None, :, None]
        total += float(probs[hits].sum())
    return 1.0 - total / (len(perms) * len(flat))


# -- checks --------------------------------------------------------------------

def _close(what, got, want, tol) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: {got!r} differs from reference {want!r} by more than {tol}"]


def _at_most(what, lhs, rhs, tol) -> list[str]:
    return [] if lhs <= rhs + tol else [f"{what}: {lhs!r} exceeds {rhs!r}"]


def _sample_sequences(rng, state_count, n, count):
    return [tuple(rng.randrange(state_count) for _ in range(n)) for _ in range(count)]


def check_bounds(job, results) -> list[str]:
    lab, a = job.label, job.avwc
    res = {name: results.get((lab, name)) for name in ("structure", "lower", "capacity", "upper", "multi")}
    if any(r is FAILED for r in res.values()):
        return []  # counted as failed operations, not as wrong results
    errors = []
    main, eaves = np.asarray(a.main_stack), np.asarray(a.eaves_stack)

    sym, best = res["structure"]
    gap = hull_distance(main)
    slack = 2.0 * (a.state_count - 1) / 60
    if gap > 1e-12 and gap <= slack:
        errors.append(f"{lab}: hull distance {gap} too small to decide symmetrisability")
    elif sym.symmetrisable != (gap <= 1e-12):
        errors.append(f"{lab}: symmetrisable={sym.symmetrisable} but hull distance is {gap}")
    # every eavesdropper channel here is binary symmetric; the least noisy one degrades the rest
    noise = np.abs(eaves[:, 0, 0] - 0.5)
    if not best.exists:
        errors.append(f"{lab}: no best eavesdropper channel found for a BSC family")
    elif noise[int(np.argmax(best.q_star.probs))] < noise.max() - 1e-12:
        errors.append(f"{lab}: best eavesdropper state is not the least noisy BSC")

    cap = res["capacity"]
    if cap.symmetrisable != sym.symmetrisable:
        errors.append(f"{lab}: avc_capacity and structure disagree on symmetrisability")
    want_det = 0.0 if sym.symmetrisable else cap.value
    errors += _close(f"{lab} deterministic capacity", cap.deterministic_value, want_det, 0.0)

    if lab in CLOSED_FORMS:
        for name, want in CLOSED_FORMS[lab].items():
            if res[name] is not None:
                errors += _close(f"{lab} {name}", res[name].value, want, VALUE_TOL)
    else:
        errors += _close(f"{lab} lower vs grid", res["lower"].value, grid_saddle(main, eaves), GRID_TOL)
        errors += _close(f"{lab} capacity vs grid", cap.value, grid_saddle(main, None), GRID_TOL)
    errors += _at_most(f"{lab} lower <= capacity", res["lower"].value, cap.value, 1e-9)
    errors += _at_most(f"{lab} lower <= upper", res["lower"].value, res["upper"].value, 1e-9)
    return errors


def check_code(job, results) -> list[str]:
    lab, a, code = job.label, job.avwc, job.code
    res = {name: results.get((lab, name)) for name in ("evaluate", "robustify", "reduce", "reduced-file", "eliminate", "lemmas")}
    if any(r is FAILED for r in res.values()):
        return []
    errors = []
    rng = random.Random(job.check_seed)
    n, s_count = code.n, a.state_count
    main, eaves = np.asarray(a.main_stack), np.asarray(a.eaves_stack)
    main_rows, eaves_rows = main.tolist(), eaves.tolist()
    outputs = _output_words(a.main_output_size, n)
    eaves_outputs = _output_words(a.eaves_output_size, n)
    sequences = list(itertools.product(range(s_count), repeat=n))

    # evaluate: worst case over every sequence, then plain loops at the reported
    # worst sequences and a seeded sample of others
    rep = res["evaluate"]
    errs = [np_error(code, main, s, outputs) for s in sequences]
    leaks = [np_leakage(code, eaves, s, eaves_outputs) for s in sequences]
    errors += _close(f"{lab} worst error", rep.worst_state_error, max(errs), EXACT_TOL)
    errors += _close(f"{lab} worst leakage", rep.worst_leakage_bits, max(leaks), LEAK_TOL)
    groups = [list(map(tuple, words)) for words in code.codewords.tolist()]
    worst_err_seq = rep.worst_state_sequence.symbols
    worst_leak_seq = rep.worst_leakage_sequence.symbols
    errors += _close(f"{lab} error at worst", py_error(code, main_rows, worst_err_seq), rep.worst_state_error, EXACT_TOL)
    errors += _close(f"{lab} leakage at worst", py_leakage(groups, eaves_rows, worst_leak_seq), rep.worst_leakage_bits, LEAK_TOL)
    for seq in _sample_sequences(rng, s_count, n, 3):
        errors += _at_most(f"{lab} error at {seq}", py_error(code, main_rows, seq), rep.worst_state_error, EXACT_TOL)
        errors += _at_most(f"{lab} leakage at {seq}", py_leakage(groups, eaves_rows, seq), rep.worst_leakage_bits, LEAK_TOL)

    # robustification: the inequality holds, and the type-class average the
    # report uses equals the explicit average over all n! members
    family, rob = res["robustify"]
    if family.member_count() != math.factorial(n):
        errors.append(f"{lab}: permutation family has {family.member_count()} members, not {n}!")
    if not rob.min_slack >= 0.0:
        errors.append(f"{lab}: robustification min_slack {rob.min_slack} < 0")
    averaged = {row[0]: row[1] for row in rob.per_sequence}
    for seq in _sample_sequences(rng, s_count, n, 2):
        want = 1.0 - explicit_member_error(code, main, seq)
        errors += _close(f"{lab} permutation average at {seq}", averaged[seq], want, EXACT_TOL)

    # reduction: the reported worst means are the means of the chosen members
    reduced, parsed = res["reduce"], res["reduced-file"]
    ver = reduced.verification
    members = list(reduced.members)
    if not all(
        np.array_equal(m.codewords, p.codewords) and np.array_equal(m.decoder, p.decoder)
        for m, p in zip(members, parsed.members)
    ):
        errors.append(f"{lab}: reduced code changed in the random-code file round trip")
    member_err = np.array([[np_error(m, main, s, outputs) for s in sequences] for m in members])
    member_leak = np.array([[np_leakage(m, eaves, s, eaves_outputs) for s in sequences] for m in members])
    errors += _close(f"{lab} reduced worst mean error", ver.worst_mean_error, member_err.mean(axis=0).max(), EXACT_TOL)
    errors += _close(f"{lab} reduced worst mean leakage", ver.worst_mean_leakage, member_leak.mean(axis=0).max(), LEAK_TOL)
    errors += _at_most(f"{lab} reduced worst mean error <= epsilon", ver.worst_mean_error, ver.epsilon, 0.0)

    # elimination: total error <= prefix error + mean member error, payload
    # leakage <= mean member leakage, and the combined code reproduces both
    elim = res["eliminate"].report
    combined = res["eliminate"].code
    errors += _at_most(f"{lab} error decomposition", elim.worst_total_error, elim.worst_prefix_error + elim.worst_mean_member_error, EXACT_TOL)
    errors += _at_most(f"{lab} payload leakage", elim.worst_payload_leakage, elim.worst_mean_member_leakage, LEAK_TOL)
    if elim.error_decomposition_margin < -EXACT_TOL or elim.leakage_margin < -LEAK_TOL:
        errors.append(f"{lab}: elimination margins {elim.error_decomposition_margin}, {elim.leakage_margin} < 0")
    errors += _close(f"{lab} mean member error", elim.worst_mean_member_error, member_err.mean(axis=0).max(), EXACT_TOL)
    errors += _close(f"{lab} combined error at worst", py_error(combined, main_rows, elim.worst_error_sequence), elim.worst_total_error, EXACT_TOL)
    for seq in _sample_sequences(rng, s_count, combined.n, 2):
        errors += _at_most(f"{lab} combined error at {seq}", py_error(combined, main_rows, seq), elim.worst_total_error, EXACT_TOL)
    # payload j is sent with randomness (member i, l): group the combined rows by j
    j_count = members[0].j_count
    words = combined.codewords.tolist()
    payload = [[tuple(w) for i in range(len(members)) for w in words[i * j_count + j]] for j in range(j_count)]
    errors += _close(f"{lab} payload leakage at worst", py_leakage(payload, eaves_rows, elim.worst_leakage_sequence), elim.worst_payload_leakage, LEAK_TOL)

    # verify-lemmas: the typicality bounds are theorems, and the typical-set
    # mass is recomputed by plain loops
    p = 1.0 / a.input_size
    for report in res["lemmas"]:
        if not report.passed:
            errors.append(f"{lab}: typicality bound violated: {report.violations}")
        mass = 0.0
        for word in itertools.product(range(a.input_size), repeat=report.n):
            if all(abs(word.count(x) / report.n - p) <= report.delta + 1e-12 for x in range(a.input_size)):
                mass += p ** report.n
        errors += _close(f"{lab} typical-set mass", report.input_mass, mass, EXACT_TOL)
    return errors


def check(prep, results) -> list[str]:
    errors = []
    for job in prep.bound_jobs:
        errors += check_bounds(job, results)
    for job in prep.code_jobs:
        errors += check_code(job, results)
    return errors
