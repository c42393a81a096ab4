"""Workload inputs and the operations one measured round runs.

Every input derives from the run's ``--seed``.  Bound instances are the
sample specs (``bounds-s2``, and ``single_bsc`` for ``code-pipeline``) or a
fixed three-state instance (``bounds-s3``), each relabelled by a seeded
permutation of states, inputs and outputs.  Relabelling leaves every bound,
closed form and structural answer unchanged while moving the optimizers onto
a different path, so the oracles stay exact and the work per round stays
nearly constant from seed to seed.  Codebooks are drawn with seeds taken
from the same stream.

Every call into avwc goes through a module attribute (``bounds.X``), so the
tracer's wrappers take effect when they are installed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from avwc import bounds, codefile, coding, pipeline, specfile, structure, typicality
from avwc.channels import AVWC, Channel, Distribution
from avwc.errors import AvwcError

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "sample_specs"

WORKLOADS = ("bounds-s2", "bounds-s3", "code-pipeline")

# Fewer starts, iterations and grid points than BoundOptions(), so that a
# round of either bounds workload takes about 3 s and a run holds about ten
# rounds: the median over rounds then rides out the host's slow spells.
# Every code path of the default options is still taken (golden section for
# two states, Frank-Wolfe and the grid+probe outer scan for three), and the
# closed forms are met to 1e-12.  threads stays at its default of 1.
BOUND_OPTS = bounds.BoundOptions(
    starts=3,
    p_grid_denominator=16,
    ascent_iters=30,
    golden_iters=30,
    q_grid_denominator=4,
    outer_q_points=5,
    refine_rounds=1,
    aux_starts=2,
    aux_iters=20,
)

# Seed of the fixed three-state instance (see s3_instance); --seed only relabels it.
S3_INSTANCE_SEED = 2012

END_TO_END_OPS = (
    "lower_s",
    "capacity_s",
    "upper_s",
    "multiletter_s",
    "evaluate_s",
    "robustify_s",
    "reduce_s",
    "eliminate_s",
)


@dataclass
class BoundJob:
    label: str            # sample-spec name or "s3"
    avwc: AVWC
    multiletter: bool


@dataclass
class CodeJob:
    label: str
    avwc: AVWC
    code: coding.WiretapCode
    k_count: int
    prefix_len: int
    typ_n: int
    check_seed: int


@dataclass
class Prepared:
    name: str
    seed: int
    bound_jobs: list = field(default_factory=list)
    code_jobs: list = field(default_factory=list)


# -- inputs --------------------------------------------------------------------

def s3_instance() -> AVWC:
    """|A| = 2, |S| = 3: a Z channel, its mirror and a nearly clean BSC.

    Mixing the two Z channels gives a binary symmetric channel that is worse
    than either, so the inner minimiser lies inside the edge between states
    0 and 1, never on a vertex; the clean third state is never chosen.  The
    eavesdropper sees a BSC whose crossover depends on the state.  Z-channel
    parameters lie in [0.35, 0.45], so a0 + a1 < 1 and the main family is
    not symmetrisable.
    """
    rng = random.Random(S3_INSTANCE_SEED)
    draw = lambda lo, hi: round(rng.uniform(lo, hi), 4)  # noqa: E731
    a0, a1, b = draw(0.35, 0.45), draw(0.35, 0.45), draw(0.02, 0.06)
    main = (
        [[1.0, 0.0], [a0, 1.0 - a0]],
        [[1.0 - a1, a1], [0.0, 1.0]],
        [[1.0 - b, b], [b, 1.0 - b]],
    )
    eaves = tuple([[1.0 - c, c], [c, 1.0 - c]] for c in (draw(0.3, 0.45) for _ in range(3)))
    return AVWC(
        tuple(Channel(np.array(m)) for m in main), tuple(Channel(np.array(v)) for v in eaves)
    )


def relabel(avwc: AVWC, rng: random.Random) -> AVWC:
    """The same AVWC under seeded permutations of states, inputs and outputs."""
    s = rng.sample(range(avwc.state_count), avwc.state_count)
    a = rng.sample(range(avwc.input_size), avwc.input_size)
    b = rng.sample(range(avwc.main_output_size), avwc.main_output_size)
    c = rng.sample(range(avwc.eaves_output_size), avwc.eaves_output_size)
    main = avwc.main_stack[s][:, a][:, :, b]
    eaves = avwc.eaves_stack[s][:, a][:, :, c]
    return AVWC(tuple(Channel(m.copy()) for m in main), tuple(Channel(v.copy()) for v in eaves))


def _spec_round_trip(avwc: AVWC):
    """Write the instance as spec text and parse it back, as a user's file would be."""
    names = lambda k: tuple(str(i) for i in range(k))  # noqa: E731
    spec = specfile.ChannelSpecFile(
        avwc=avwc,
        state_names=names(avwc.state_count),
        input_labels=names(avwc.input_size),
        main_output_labels=names(avwc.main_output_size),
        eaves_output_labels=names(avwc.eaves_output_size),
    )
    return specfile.parse_spec(specfile.serialize_spec(spec)).avwc


def _code_job(label, avwc, rng, n, k_count, prefix_len) -> CodeJob:
    """Random J = L = 2 codebook at block length n, passed through a code file."""
    p = Distribution.uniform(avwc.input_size)
    code = coding.build_random_codebook(
        p, avwc, n, tau=0.05, seed=rng.randrange(2**31), delta=0.2, j_count=2, l_count=2
    )
    code = codefile.parse_code(codefile.serialize_code(code))
    return CodeJob(label, avwc, code, k_count, prefix_len, n, rng.randrange(2**31))


def prepare(name: str, seed: int) -> Prepared:
    """Everything a round needs; this is what setup_s times."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    prep = Prepared(name, seed)
    if name == "bounds-s2":
        for label, multi in (("degraded_pair", True), ("adder", True), ("single_bsc", False)):
            spec = specfile.load_spec(str(SPEC_DIR / f"{label}.avwc"))
            prep.bound_jobs.append(BoundJob(label, relabel(spec.avwc, rng), multi))
        degraded = prep.bound_jobs[0].avwc
        prep.code_jobs.append(_code_job("degraded_pair", degraded, rng, 7, 4, 2))
    elif name == "bounds-s3":
        avwc = _spec_round_trip(relabel(s3_instance(), rng))
        prep.bound_jobs.append(BoundJob("s3", avwc, True))
        prep.code_jobs.append(_code_job("s3", avwc, rng, 5, 4, 2))
    else:
        spec = specfile.load_spec(str(SPEC_DIR / "degraded_pair.avwc"))
        degraded = relabel(spec.avwc, rng)
        for i in range(2):
            prep.code_jobs.append(_code_job(f"degraded_pair#{i}", degraded, rng, 8, 4, 3))
        single = specfile.load_spec(str(SPEC_DIR / "single_bsc.avwc"))
        prep.bound_jobs.append(BoundJob("single_bsc", relabel(single.avwc, rng), True))
    return prep


# -- one round -----------------------------------------------------------------

FAILED = object()  # result of an operation that raised, or whose input did


class Round:
    """Timed operations of one round; op times are summed per metric."""

    def __init__(self):
        self.seconds = dict.fromkeys(END_TO_END_OPS, 0.0)
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.results: dict = {}

    def op(self, metric, key, fn, *args):
        self.attempted += 1
        if any(arg is FAILED for arg in args):
            self.failed += 1
            self.results[key] = FAILED
            return FAILED
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (AvwcError, ValueError, ArithmeticError) as exc:
            result = FAILED
            self.failed += 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        if metric is not None:
            self.seconds[metric] += elapsed
        self.results[key] = result
        return result


def _structure(avwc: AVWC):
    sym = structure.test_symmetrisable(list(avwc.main), BOUND_OPTS.structure_tol)
    best = structure.find_best_eaves_channel(list(avwc.eaves), BOUND_OPTS.structure_tol)
    return sym, best


def _robustify(code, avwc):
    return pipeline.robustify(code, avwc), pipeline.verify_robustification(code, avwc)


def _reduce(code, avwc, k_count, seed):
    family = pipeline.robustify(code, avwc)
    # epsilon = 1 bounds both error and leakage (J = 2 carries at most one
    # bit), so the first draw is accepted on every seed and the work per
    # round does not depend on the codebook.
    return pipeline.reduce_random_code(family, avwc, k_count=k_count, epsilon=1.0, seed=seed)


def _random_code_round_trip(reduced):
    return codefile.parse_random_code(codefile.serialize_random_code(reduced))


def _verify_lemmas(avwc, n):
    p = Distribution.uniform(avwc.input_size)
    tp = typicality.TypicalityParams(n, 0.2)
    return [typicality.verify_typicality_bounds(p, ch, tp) for ch in avwc.main + avwc.eaves]


def run_round(prep: Prepared) -> Round:
    rnd = Round()
    for job in prep.bound_jobs:
        a, lab = job.avwc, job.label
        rnd.op(None, (lab, "structure"), _structure, a)
        rnd.op("lower_s", (lab, "lower"), bounds.secrecy_lower_bound, a, BOUND_OPTS)
        rnd.op("capacity_s", (lab, "capacity"), bounds.avc_capacity, list(a.main), BOUND_OPTS)
        rnd.op(
            "upper_s", (lab, "upper"), bounds.secrecy_upper_bound_single_letter, a, None, BOUND_OPTS
        )
        if job.multiletter:
            rnd.op("multiletter_s", (lab, "multi"), bounds.multiletter_bound, a, 2, None, BOUND_OPTS)
    for job in prep.code_jobs:
        a, lab = job.avwc, job.label
        rnd.op("evaluate_s", (lab, "evaluate"), coding.evaluate_code, job.code, a)
        rnd.op("robustify_s", (lab, "robustify"), _robustify, job.code, a)
        reduced = rnd.op("reduce_s", (lab, "reduce"), _reduce, job.code, a, job.k_count, job.check_seed)
        reduced = rnd.op(None, (lab, "reduced-file"), _random_code_round_trip, reduced)
        rnd.op("eliminate_s", (lab, "eliminate"), pipeline.eliminate_randomness, reduced, a, job.prefix_len)
        rnd.op(None, (lab, "lemmas"), _verify_lemmas, a, job.typ_n)
    return rnd


def fingerprint(results: dict) -> dict:
    """Numbers that must repeat bit for bit in every round of one run."""
    out = {}
    for key, res in results.items():
        if res is FAILED:
            out[key] = None
        elif key[1] in ("lower", "capacity", "upper", "multi"):
            out[key] = (res.value, res.deterministic_value)
        elif key[1] == "structure":
            out[key] = (res[0].symmetrisable, res[1].exists)
        elif key[1] == "evaluate":
            out[key] = (res.worst_state_error, res.worst_leakage_bits)
        elif key[1] == "robustify":
            out[key] = (res[1].gamma, res[1].min_slack)
        elif key[1] == "reduce":
            ver = res.verification
            out[key] = (ver.worst_mean_error, ver.worst_mean_leakage, ver.attempts)
        elif key[1] == "eliminate":
            rep = res.report
            out[key] = (rep.worst_total_error, rep.worst_payload_leakage)
        elif key[1] == "lemmas":
            out[key] = tuple(r.passed for r in res)
    return out
