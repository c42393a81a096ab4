"""In-memory tracer that wraps avwc's public functions from outside the package.

Three kinds of wrapper are installed by replacing a function's name in every
avwc module that looks it up at call time:

* ``leaf``  -- a per-call kernel (``mi_from_arrays``, ``error_probability``):
  a call count and a summed duration, charged to the enclosing frame as
  child time.  No frame is pushed, which keeps the cost per call low.
* ``frame`` -- a coarse call that may contain other wrapped calls: count,
  inclusive duration and self time (duration minus the time its children
  cover).  Self time is summed per layer.
* ``span``  -- a frame that is also recorded as ``(id, parent, name, start,
  end)`` and written to the trace file.

Counts and times accumulate in one ``Bucket``; the caller swaps buckets to
separate set-up from each measured round.  Nothing here runs unless
``install`` is called, so untraced runs execute avwc unmodified.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_clock = time.perf_counter


class Bucket:
    """Counts, inclusive times, per-layer self times and hook-derived values."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.values = defaultdict(float)
        self.distinct = defaultdict(set)


class _Frame:
    __slots__ = ("span_id", "child", "leaf_calls")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child = 0.0
        self.leaf_calls = defaultdict(int)


class Tracer:
    def __init__(self):
        self.bucket = Bucket()
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._origin = _clock()

    def new_bucket(self) -> Bucket:
        """Start accumulating into a fresh bucket and return the finished one."""
        done, self.bucket = self.bucket, Bucket()
        return done

    # -- wrappers -----------------------------------------------------------

    def leaf(self, name: str, layer: str, fn, on_result=None, by_parent: bool = False):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            result = fn(*args, **kwargs)
            elapsed = _clock() - start
            bucket = self.bucket
            bucket.calls[name] += 1
            bucket.seconds[name] += elapsed
            bucket.layer_self[layer] += elapsed
            if stack:
                stack[-1].child += elapsed
                if by_parent:
                    stack[-1].leaf_calls[name] += 1
            if on_result is not None:
                on_result(bucket, args, kwargs, result, None)
            return result

        return wrapper

    def frame(self, name: str, layer: str, fn, record: bool = False, on_result=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = 0
            if record:
                span_id = self._next_id
                self._next_id += 1
            frame = _Frame(span_id)
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - start
                bucket = self.bucket
                bucket.calls[name] += 1
                bucket.seconds[name] += elapsed
                bucket.layer_self[layer] += elapsed - frame.child
                if stack:
                    stack[-1].child += elapsed
                if record:
                    parent_id = next((f.span_id for f in reversed(stack) if f.span_id), 0)
                    self.spans.append(
                        (span_id, parent_id, name, start - self._origin, end - self._origin)
                    )
            if on_result is not None:
                on_result(bucket, args, kwargs, result, frame)
            return result

        return wrapper


def _patch(modules, attr: str, wrapper) -> None:
    """Rebind ``attr`` in every module that holds the original function."""
    for module in modules:
        setattr(module, attr, wrapper)


# -- hooks deriving counts from arguments and results -------------------------

def _ascent_stats(bucket, args, kwargs, result, frame):
    """Ascent iterations and the share of multistart ascents that improved."""
    trace = result[3]
    best = float("-inf")
    for item in trace:
        if item.get("stage") != "ascent":
            continue
        bucket.values["ascent_iters"] += item["iters"]
        bucket.values["ascents"] += 1
        if item["value"] > best + 1e-15:
            bucket.values["ascents_improved"] += 1
            best = item["value"]


def _type_class_seen(bucket, args, kwargs, result, frame):
    # the lexicographically first sequence identifies the type class
    bucket.distinct["type_classes"].add(result[0])


def _reduce_stats(bucket, args, kwargs, result, frame):
    rc, avwc = args[0], args[1]
    sequences = avwc.state_count ** rc.members[0].n
    bucket.values["member_evals"] += frame.leaf_calls["error_probability"] / sequences
    bucket.values["reduce_attempts"] += result.verification.attempts


def install(tracer: Tracer) -> None:
    """Wrap the avwc functions behind the per-layer metrics."""
    from avwc import (
        bounds,
        codefile,
        coding,
        feasibility,
        information,
        pipeline,
        specfile,
        structure,
        typicality,
    )

    leaves = [
        ("mi_from_arrays", "information", (information, bounds, coding), None),
        ("error_probability", "coding", (coding, pipeline), None),
        ("leakage_bits", "coding", (coding, pipeline), None),
        ("cond_typical_mask", "typicality", (typicality, coding), None),
        ("type_class_sequences", "pipeline", (pipeline,), _type_class_seen),
        ("solve_feasibility", "feasibility", (feasibility, structure), None),
        ("serialize_code", "codefile", (codefile,), None),
        ("parse_code", "codefile", (codefile,), None),
        ("parse_random_code", "codefile", (codefile,), None),
    ]
    frames = [
        ("min_mi_over_mixtures", "bounds", (bounds,), False, None),
        ("maximize_over_simplex", "bounds", (bounds,), True, _ascent_stats),
        ("_max_aux_gap", "bounds", (bounds,), True, None),
        ("secrecy_lower_bound", "bounds", (bounds,), True, None),
        ("avc_capacity", "bounds", (bounds,), True, None),
        ("secrecy_upper_bound_single_letter", "bounds", (bounds,), True, None),
        ("multiletter_bound", "bounds", (bounds,), True, None),
        ("test_symmetrisable", "structure", (structure, bounds), True, None),
        ("find_best_eaves_channel", "structure", (structure,), True, None),
        ("build_random_codebook", "coding", (coding,), True, None),
        ("decode_rule", "coding", (coding,), True, None),
        ("evaluate_code", "coding", (coding,), True, None),
        ("robustify", "pipeline", (pipeline,), True, None),
        ("verify_robustification", "pipeline", (pipeline,), True, None),
        ("reduce_random_code", "pipeline", (pipeline,), True, _reduce_stats),
        ("search_prefix_code", "pipeline", (pipeline,), True, None),
        ("eliminate_randomness", "pipeline", (pipeline,), True, None),
        ("verify_typicality_bounds", "typicality", (typicality,), True, None),
        ("serialize_random_code", "codefile", (codefile,), False, None),
        ("load_spec", "specfile", (specfile,), True, None),
        ("parse_spec", "specfile", (specfile,), True, None),
        ("serialize_spec", "specfile", (specfile,), True, None),
    ]
    for name, layer, modules, hook in leaves:
        wrapped = tracer.leaf(
            name, layer, getattr(modules[0], name), hook, by_parent=name == "error_probability"
        )
        _patch(modules, name, wrapped)
    for name, layer, modules, record, hook in frames:
        wrapped = tracer.frame(name, layer, getattr(modules[0], name), record, hook)
        _patch(modules, name, wrapped)


def layer_metrics(setup: Bucket, rounds: list[Bucket], median) -> dict:
    """Per-layer metrics: the set-up bucket plus the median round.

    Counts must repeat exactly from round to round (same inputs, same
    operations); times take the median over rounds.
    """

    def count(get):
        per_round = [get(b) for b in rounds]
        return get(setup) + median(per_round)

    def seconds(get):
        return get(setup) + median([get(b) for b in rounds])

    def ratio(num, den):
        n, d = count(num), count(den)
        return n / d if d else 0.0

    calls = lambda name: (lambda b: b.calls[name])  # noqa: E731
    secs = lambda name: (lambda b: b.seconds[name])  # noqa: E731
    layer = lambda name: (lambda b: b.layer_self[name])  # noqa: E731
    value = lambda name: (lambda b: b.values[name])  # noqa: E731
    return {
        "information.mi_calls": (count(calls("mi_from_arrays")), "count"),
        "information.mi_s": (seconds(secs("mi_from_arrays")), "s"),
        "bounds.inner_min_calls": (count(calls("min_mi_over_mixtures")), "count"),
        "bounds.inner_min_s": (seconds(secs("min_mi_over_mixtures")), "s"),
        "bounds.simplex_max_calls": (count(calls("maximize_over_simplex")), "count"),
        "bounds.simplex_max_s": (seconds(secs("maximize_over_simplex")), "s"),
        "bounds.ascent_iters": (count(value("ascent_iters")), "count"),
        "bounds.start_improve_ratio": (ratio(value("ascents_improved"), value("ascents")), "ratio"),
        "bounds.aux_gap_calls": (count(calls("_max_aux_gap")), "count"),
        "bounds.aux_gap_s": (seconds(secs("_max_aux_gap")), "s"),
        "bounds.self_s": (seconds(layer("bounds")), "s"),
        "structure.symmetrisable_s": (seconds(secs("test_symmetrisable")), "s"),
        "feasibility.solve_calls": (count(calls("solve_feasibility")), "count"),
        "coding.error_calls": (count(calls("error_probability")), "count"),
        "coding.error_s": (seconds(secs("error_probability")), "s"),
        "coding.leakage_calls": (count(calls("leakage_bits")), "count"),
        "coding.leakage_s": (seconds(secs("leakage_bits")), "s"),
        "coding.decode_rule_s": (seconds(secs("decode_rule")), "s"),
        "pipeline.type_class_calls": (count(calls("type_class_sequences")), "count"),
        "pipeline.type_class_s": (seconds(secs("type_class_sequences")), "s"),
        "pipeline.type_class_reuse_ratio": (
            ratio(lambda b: len(b.distinct["type_classes"]), calls("type_class_sequences")),
            "ratio",
        ),
        "pipeline.member_evals": (count(value("member_evals")), "count"),
        "pipeline.reduce_attempts": (count(value("reduce_attempts")), "count"),
        "pipeline.prefix_search_s": (seconds(secs("search_prefix_code")), "s"),
        "typicality.cond_mask_calls": (count(calls("cond_typical_mask")), "count"),
        "typicality.verify_s": (seconds(secs("verify_typicality_bounds")), "s"),
        "specfile.load_s": (seconds(layer("specfile")), "s"),
        "codefile.roundtrip_s": (seconds(layer("codefile")), "s"),
    }
