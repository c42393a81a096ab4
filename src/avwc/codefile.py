"""Versioned text serialization for wiretap codes and reduced random codes.

Codewords are written as digit strings over the input alphabet (sizes up to
36 use 0-9a-z) and the decoder as an assignment list over all output words in
lexicographic order, ``-`` marking erasure.  A random code selects its
members uniformly, so its ``weights`` line always reads ``weights uniform``.
The formats are binary-free so pipeline stages can be chained between CLI
invocations and inspected by hand.  They are read with the channel-spec
format's line reader and integer parser, so a malformed file raises
``SpecFormatError`` naming its line.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .coding import ERASURE, RandomCode, WiretapCode
from .errors import SpecFormatError
from .specfile import _parse_int, _Reader

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


def _parse_code_block(lines: _Reader) -> WiretapCode:
    expect = partial(lines.expect, "code block")
    lines.header(f"avwc-code {CODE_FORMAT_VERSION}")
    sizes = []
    for key in ("block_length", "input_size", "output_size", "message_count", "randomizer_count"):
        line_no, (token,) = expect(f"{key} <value>")
        sizes.append(_parse_int(token, line_no, key, 1))
    n, input_size, output_size, j_count, l_count = sizes

    words: dict[tuple[int, int], list[int]] = {}
    for _ in range(j_count * l_count):
        line_no, (j, l, word) = expect("codeword <j> <l> <word>")
        j = _parse_int(j, line_no, "codeword j", 0, j_count)
        l = _parse_int(l, line_no, "codeword l", 0, l_count)
        if (j, l) in words:
            raise SpecFormatError(f"duplicate codeword ({j}, {l})", line_no)
        symbols = _decode_word(word, input_size, line_no)
        if len(symbols) != n:
            raise SpecFormatError(f"codeword length {len(symbols)}, expected {n}", line_no)
        words[j, l] = symbols

    expect("decoder")
    needed = output_size**n
    assignment: list[int] = []
    while len(assignment) < needed:
        line_no, tokens = lines.take("code block")
        assignment += [
            ERASURE if token == "-" else _parse_int(token, line_no, "decoder message", 0, j_count)
            for token in tokens
        ]
        if len(assignment) > needed:
            raise SpecFormatError("decoder has too many assignments", line_no)
    expect("end")
    return WiretapCode(
        n=n,
        input_size=input_size,
        output_size=output_size,
        codewords=np.array([[words[j, l] for l in range(l_count)] for j in range(j_count)]),
        decoder=np.asarray(assignment),
    )


def parse_code(text: str) -> WiretapCode:
    lines = _Reader(text)
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
    lines = _Reader(text)
    expect = partial(lines.expect, "random-code file")
    lines.header(f"avwc-random-code {CODE_FORMAT_VERSION}")
    line_no, (token,) = expect("member_count <value>")
    count = _parse_int(token, line_no, "member_count", 1)
    line_no, (origin,) = expect("origin <tag>")
    if origin not in ("permutation-family", "reduced", "explicit"):
        raise SpecFormatError(f"unknown origin {origin!r}", line_no)
    line_no, tokens = lines.take("random-code file")
    if tokens != ["weights", "uniform"]:
        raise SpecFormatError("expected 'weights uniform': random codes select members uniformly", line_no)

    members = []
    for i in range(count):
        expect(f"member {i}")
        members.append(_parse_code_block(lines))
    lines.expect_end("members")
    return RandomCode(members=members, origin=origin)
