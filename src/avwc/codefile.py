"""Versioned text serialization for wiretap codes and reduced random codes.

Codewords are written as digit strings over the input alphabet (sizes up to
36 use 0-9a-z) and the decoder as an assignment list over all output words in
lexicographic order, ``-`` marking erasure.  A random code selects its
members uniformly, so its ``weights`` line always reads ``weights uniform``.
The formats are binary-free so pipeline stages can be chained between CLI
invocations and inspected by hand.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .coding import ERASURE, RandomCode, WiretapCode
from .errors import SpecFormatError

CODE_FORMAT_VERSION = 1
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _encode_word(word) -> str:
    return "".join(_DIGITS[int(v)] for v in word)


def _decode_word(token: str, alphabet: int, line_no: int) -> list[int]:
    out = []
    for ch in token:
        value = _DIGITS.find(ch)
        if value < 0 or value >= alphabet:
            raise SpecFormatError(f"symbol {ch!r} outside alphabet of size {alphabet}", line_no)
        out.append(value)
    return out


def serialize_code(code: WiretapCode) -> str:
    if code.input_size > len(_DIGITS) or code.output_size > len(_DIGITS):
        raise ValueError("text serialization supports alphabets up to 36 symbols")
    lines = [
        f"avwc-code {CODE_FORMAT_VERSION}",
        f"block_length {code.n}",
        f"input_size {code.input_size}",
        f"output_size {code.output_size}",
        f"message_count {code.j_count}",
        f"randomizer_count {code.l_count}",
    ]
    for j in range(code.j_count):
        for l in range(code.l_count):
            lines.append(f"codeword {j} {l} {_encode_word(code.codewords[j, l])}")
    lines.append("decoder")
    tokens = ["-" if v == ERASURE else str(int(v)) for v in code.decoder]
    for start in range(0, len(tokens), 32):
        lines.append(" ".join(tokens[start : start + 32]))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _LineReader:
    """The non-blank lines of a text with ``#`` comments stripped, read in order."""

    def __init__(self, text: str):
        stripped = ((i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(text.splitlines(), 1))
        self.lines = [(i, content) for i, content in stripped if content]
        self.pos = 0

    def take(self, what: str) -> tuple[int, str]:
        """The next line as (line number, content); ``what`` names the block for EOF errors."""
        if self.pos >= len(self.lines):
            raise SpecFormatError(f"unexpected end of {what}", self.lines[-1][0] if self.lines else 1)
        self.pos += 1
        return self.lines[self.pos - 1]

    def expect_end(self, what: str) -> None:
        if self.pos != len(self.lines):
            raise SpecFormatError(f"trailing content after {what}", self.lines[self.pos][0])


def _read_header_value(lines: _LineReader, key: str, what: str) -> int:
    line_no, content = lines.take(what)
    tokens = content.split()
    if len(tokens) != 2 or tokens[0] != key:
        raise SpecFormatError(f"expected '{key} <value>'", line_no)
    try:
        return int(tokens[1])
    except ValueError:
        raise SpecFormatError(f"expected an integer for {key}", line_no) from None


def _parse_code_block(lines: _LineReader) -> WiretapCode:
    take = partial(lines.take, "code block")
    line_no, content = take()
    if content.split() != ["avwc-code", str(CODE_FORMAT_VERSION)]:
        raise SpecFormatError(f"expected header 'avwc-code {CODE_FORMAT_VERSION}'", line_no)
    n, input_size, output_size, j_count, l_count = (
        _read_header_value(lines, key, "code block")
        for key in ("block_length", "input_size", "output_size", "message_count", "randomizer_count")
    )

    codewords = np.zeros((j_count, l_count, n), dtype=int)
    seen = np.zeros((j_count, l_count), dtype=bool)
    for _ in range(j_count * l_count):
        line_no, content = take()
        tokens = content.split()
        if len(tokens) != 4 or tokens[0] != "codeword":
            raise SpecFormatError("expected 'codeword <j> <l> <word>'", line_no)
        j, l = int(tokens[1]), int(tokens[2])
        if not (0 <= j < j_count and 0 <= l < l_count):
            raise SpecFormatError("codeword indices out of range", line_no)
        if seen[j, l]:
            raise SpecFormatError(f"duplicate codeword ({j}, {l})", line_no)
        word = _decode_word(tokens[3], input_size, line_no)
        if len(word) != n:
            raise SpecFormatError(f"codeword length {len(word)}, expected {n}", line_no)
        codewords[j, l] = word
        seen[j, l] = True

    line_no, content = take()
    if content.strip() != "decoder":
        raise SpecFormatError("expected 'decoder'", line_no)
    needed = output_size**n
    assignment: list[int] = []
    while len(assignment) < needed:
        line_no, content = take()
        for token in content.split():
            if token == "-":
                assignment.append(ERASURE)
            else:
                try:
                    value = int(token)
                except ValueError:
                    raise SpecFormatError(f"bad decoder token {token!r}", line_no) from None
                if not 0 <= value < j_count:
                    raise SpecFormatError(f"decoder message {value} out of range", line_no)
                assignment.append(value)
        if len(assignment) > needed:
            raise SpecFormatError("decoder has too many assignments", line_no)
    line_no, content = take()
    if content.strip() != "end":
        raise SpecFormatError("expected 'end'", line_no)
    return WiretapCode(
        n=n,
        input_size=input_size,
        output_size=output_size,
        codewords=codewords,
        decoder=np.asarray(assignment),
    )


def parse_code(text: str) -> WiretapCode:
    lines = _LineReader(text)
    code = _parse_code_block(lines)
    lines.expect_end("code block")
    return code


def serialize_random_code(rc: RandomCode) -> str:
    count = rc.member_count()
    lines = [
        f"avwc-random-code {CODE_FORMAT_VERSION}",
        f"member_count {count}",
        f"origin {rc.origin}",
        "weights uniform",
    ]
    for i in range(count):
        lines.append(f"member {i}")
        lines.append(serialize_code(rc.members[i]).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_random_code(text: str) -> RandomCode:
    lines = _LineReader(text)

    take = partial(lines.take, "random-code file")
    line_no, content = take()
    if content.split() != ["avwc-random-code", str(CODE_FORMAT_VERSION)]:
        raise SpecFormatError(f"expected header 'avwc-random-code {CODE_FORMAT_VERSION}'", line_no)
    count = _read_header_value(lines, "member_count", "random-code file")
    line_no, content = take()
    tokens = content.split()
    if len(tokens) != 2 or tokens[0] != "origin":
        raise SpecFormatError("expected 'origin <tag>'", line_no)
    origin = tokens[1]
    if origin not in ("permutation-family", "reduced", "explicit"):
        raise SpecFormatError(f"unknown origin {origin!r}", line_no)
    line_no, content = take()
    if content.split() != ["weights", "uniform"]:
        raise SpecFormatError("expected 'weights uniform': random codes select members uniformly", line_no)

    members = []
    for i in range(count):
        line_no, content = take()
        if content.split() != ["member", str(i)]:
            raise SpecFormatError(f"expected 'member {i}'", line_no)
        members.append(_parse_code_block(lines))
    lines.expect_end("members")
    return RandomCode(members=members, origin=origin)
