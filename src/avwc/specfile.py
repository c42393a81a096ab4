"""Channel-spec files: a line-oriented text format for AVWC instances.

Grammar (one directive per line, ``#`` starts a comment, blank lines ignored)::

    avwc 1
    states <count> [names <n1> <n2> ...]
    inputs <count> [labels <l1> <l2> ...]
    outputs main <count> [labels ...]
    outputs eaves <count> [labels ...]
    main <state-name-or-index>
    <row of probabilities>            # one line per input symbol
    ...
    eaves <state-name-or-index>
    ...
    dist <name> inputs|states <p1> <p2> ...

Every state needs one ``main`` and one ``eaves`` matrix.  Rows must sum to
one within 1e-9; numbers are parsed as decimal doubles.  Each size directive
(``states``, ``inputs``, ``outputs main``, ``outputs eaves``) appears once;
duplicate state names and duplicate matrix blocks are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import AVWC, Channel, Distribution, STOCHASTIC_ATOL
from .errors import SpecFormatError

FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class ChannelSpecFile:
    avwc: AVWC
    state_names: tuple[str, ...]
    input_labels: tuple[str, ...]
    main_output_labels: tuple[str, ...]
    eaves_output_labels: tuple[str, ...]
    distributions: dict = field(default_factory=dict)  # name -> (kind, Distribution)


def _parse_number(token: str, line_no: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SpecFormatError(f"expected a number, got {token!r}", line_no, column) from None
    if not np.isfinite(value):
        raise SpecFormatError(f"non-finite number {token!r}", line_no, column)
    return value


def _parse_int(token: str, line_no: int, what: str, low: int, high: int | None = None) -> int:
    """``token`` as an integer of at least ``low`` (and below ``high`` when given)."""
    try:
        value = int(token)
    except ValueError:
        raise SpecFormatError(f"expected an integer {what}, got {token!r}", line_no) from None
    if value < low or (high is not None and value >= high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high})"
        raise SpecFormatError(f"{what} must be {bound}, got {value}", line_no)
    return value


class _Reader:
    """The non-blank lines of a text, ``#`` comments stripped, as (line number, tokens) in order.

    The channel-spec, code and random-code formats all read their text through it.
    """

    def __init__(self, text: str):
        numbered = ((i, raw.split("#", 1)[0].split()) for i, raw in enumerate(text.splitlines(), 1))
        self.lines = [(i, tokens) for i, tokens in numbered if tokens]
        self.pos = 0
        self.last_line = self.lines[-1][0] if self.lines else 1  # where end-of-text errors point

    def next(self) -> tuple[int, list[str]] | None:
        if self.pos == len(self.lines):
            return None
        self.pos += 1
        return self.lines[self.pos - 1]

    def take(self, what: str) -> tuple[int, list[str]]:
        """The next line; ``what`` names the block for end-of-text errors."""
        item = self.next()
        if item is None:
            raise SpecFormatError(f"unexpected end of {what}", self.last_line)
        return item

    def expect(self, what: str, form: str) -> tuple[int, list[str]]:
        """The next line's number and its tokens at the ``<placeholder>`` words of ``form``.

        Every other word of ``form`` must appear as is, and the line has no other tokens.
        """
        line_no, tokens = self.take(what)
        words = form.split()
        if len(tokens) != len(words) or [t if w[0] == "<" else w for w, t in zip(words, tokens)] != tokens:
            raise SpecFormatError(f"expected '{form}'", line_no)
        return line_no, [t for w, t in zip(words, tokens) if w[0] == "<"]

    def header(self, magic: str) -> None:
        """Check that the next line is ``magic``, the format's name and version."""
        item = self.next()
        if item is None or item[1] != magic.split():
            raise SpecFormatError(f"expected header '{magic}'", item[0] if item else self.last_line)

    def expect_end(self, what: str) -> None:
        if self.pos != len(self.lines):
            raise SpecFormatError(f"trailing content after {what}", self.lines[self.pos][0])


_SIZE_DIRECTIVES = ("states", "inputs", "outputs main", "outputs eaves")


def _read_size(tokens: list[str], line_no: int, sizes: dict, labels: dict) -> None:
    """Read a size directive: a count of at least 1, then optionally 'names' (for
    states) or 'labels' and exactly that many entries.  Each directive may appear once."""
    width = 2 if tokens[0] == "outputs" else 1
    name = " ".join(tokens[:width])
    if name not in _SIZE_DIRECTIVES:
        raise SpecFormatError("'outputs' wants 'main' or 'eaves' and a count", line_no)
    if name in sizes:
        raise SpecFormatError(f"duplicate '{name}' directive", line_no)
    if len(tokens) == width:
        raise SpecFormatError(f"'{name}' needs a count", line_no)
    count = _parse_int(tokens[width], line_no, f"'{name}' count", 1)
    entries = tokens[width + 1 :]
    list_word = "names" if name == "states" else "labels"
    if entries and (entries[0] != list_word or len(entries) != 1 + count):
        raise SpecFormatError(f"'{name}' wants '{list_word}' plus exactly {count} entries", line_no)
    sizes[name] = count
    labels[name] = tuple(entries[1:]) if entries else tuple(str(i) for i in range(count))


def parse_spec(text: str) -> ChannelSpecFile:
    lines = _Reader(text)
    lines.header(f"avwc {FORMAT_VERSION}")

    sizes: dict[str, int] = {}
    labels: dict[str, tuple[str, ...]] = {}
    main_blocks: dict[int, np.ndarray] = {}
    eaves_blocks: dict[int, np.ndarray] = {}
    dists: dict[str, tuple[str, Distribution]] = {}

    def state_index(token: str, line_no: int) -> int:
        if token in labels["states"]:
            return labels["states"].index(token)
        return _parse_int(token, line_no, "state index", 0, sizes["states"])

    def read_matrix(rows: int, cols: int, what: str) -> np.ndarray:
        matrix = np.zeros((rows, cols))
        for r in range(rows):
            line_no, tokens = lines.take(f"{what} at row {r}")
            if len(tokens) != cols:
                raise SpecFormatError(
                    f"{what}: row {r} has {len(tokens)} entries, expected {cols}", line_no
                )
            for cidx, token in enumerate(tokens):
                value = _parse_number(token, line_no, cidx + 1)
                if value < 0:
                    raise SpecFormatError(f"{what}: row {r} has negative entry", line_no, cidx + 1)
                matrix[r, cidx] = value
            total = matrix[r].sum()
            if abs(total - 1.0) > STOCHASTIC_ATOL:
                raise SpecFormatError(f"{what}: row {r} sums to {total!r}, not 1", line_no)
        return matrix

    while (item := lines.next()) is not None:
        line_no, tokens = item
        keyword = tokens[0]
        if keyword in ("states", "inputs", "outputs"):
            _read_size(tokens, line_no, sizes, labels)
            if keyword == "states" and len(set(labels["states"])) != sizes["states"]:
                raise SpecFormatError("duplicate state names", line_no)
        elif keyword in ("main", "eaves"):
            if not {"states", "inputs", f"outputs {keyword}"} <= sizes.keys():
                raise SpecFormatError(
                    f"'{keyword}' block before 'states', 'inputs' and 'outputs {keyword}'", line_no
                )
            if len(tokens) != 2:
                raise SpecFormatError(f"'{keyword}' wants exactly one state", line_no)
            idx = state_index(tokens[1], line_no)
            blocks = main_blocks if keyword == "main" else eaves_blocks
            if idx in blocks:
                raise SpecFormatError(f"duplicate '{keyword}' matrix for state {tokens[1]}", line_no)
            blocks[idx] = read_matrix(
                sizes["inputs"], sizes[f"outputs {keyword}"], f"{keyword} matrix for state {tokens[1]}"
            )
        elif keyword == "dist":
            if len(tokens) < 4 or tokens[2] not in ("inputs", "states"):
                raise SpecFormatError("'dist' wants a name, 'inputs'|'states' and entries", line_no)
            name = tokens[1]
            if name in dists:
                raise SpecFormatError(f"duplicate distribution {name!r}", line_no)
            values = [_parse_number(tok, line_no, i + 4) for i, tok in enumerate(tokens[3:])]
            expected = sizes.get(tokens[2])
            if expected is None:
                raise SpecFormatError("'dist' before the relevant size directive", line_no)
            if len(values) != expected:
                raise SpecFormatError(
                    f"distribution {name!r} has {len(values)} entries, expected {expected}", line_no
                )
            try:
                dists[name] = (tokens[2], Distribution(np.asarray(values)))
            except ValueError as exc:
                raise SpecFormatError(f"distribution {name!r}: {exc}", line_no) from None
        else:
            raise SpecFormatError(f"unknown directive {keyword!r}", line_no)

    for required in _SIZE_DIRECTIVES:
        if required not in sizes:
            raise SpecFormatError(f"missing '{required}' directive", 1)
    state_count = sizes["states"]
    state_names = labels["states"]
    missing_main = [state_names[i] for i in range(state_count) if i not in main_blocks]
    missing_eaves = [state_names[i] for i in range(state_count) if i not in eaves_blocks]
    if missing_main:
        raise SpecFormatError(f"missing main matrices for states {missing_main}", 1)
    if missing_eaves:
        raise SpecFormatError(f"missing eaves matrices for states {missing_eaves}", 1)

    avwc = AVWC(
        main=tuple(Channel(main_blocks[i]) for i in range(state_count)),
        eaves=tuple(Channel(eaves_blocks[i]) for i in range(state_count)),
    )
    return ChannelSpecFile(
        avwc=avwc,
        state_names=state_names,
        input_labels=labels["inputs"],
        main_output_labels=labels["outputs main"],
        eaves_output_labels=labels["outputs eaves"],
        distributions=dists,
    )


def serialize_spec(spec: ChannelSpecFile) -> str:
    """Canonical text for a spec; parsing it back yields an identical AVWC."""
    avwc = spec.avwc
    out = [f"avwc {FORMAT_VERSION}"]
    out.append("states " + str(avwc.state_count) + " names " + " ".join(spec.state_names))
    out.append("inputs " + str(avwc.input_size) + " labels " + " ".join(spec.input_labels))
    out.append(
        "outputs main "
        + str(avwc.main_output_size)
        + " labels "
        + " ".join(spec.main_output_labels)
    )
    out.append(
        "outputs eaves "
        + str(avwc.eaves_output_size)
        + " labels "
        + " ".join(spec.eaves_output_labels)
    )
    for kind in ("main", "eaves"):
        family = avwc.main if kind == "main" else avwc.eaves
        for idx, channel in enumerate(family):
            out.append(f"{kind} {spec.state_names[idx]}")
            for row in channel.rows:
                out.append(" ".join(repr(float(v)) for v in row))
    for name, (kind, dist) in spec.distributions.items():
        out.append(f"dist {name} {kind} " + " ".join(repr(float(v)) for v in dist.probs))
    return "\n".join(out) + "\n"


def load_spec(path: str) -> ChannelSpecFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read())
