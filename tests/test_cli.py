import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwc import cli
from avwc.bounds import BoundOptions, multiletter_bound
from avwc.cli import main
from avwc.codefile import parse_code, parse_random_code, serialize_code, serialize_random_code
from avwc.specfile import load_spec, parse_spec, serialize_spec
from avwc.errors import SpecFormatError

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_specs")


def sample(name):
    return os.path.join(SAMPLES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subparser(parser: argparse.ArgumentParser, word: str) -> argparse.ArgumentParser:
    """The parser of subcommand or code stage ``word`` under ``parser``."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[word]


def two_message_code():
    """n = 2, J = L = 2 code over binary alphabets; its file puts codeword (0, 1) on line 8."""
    from avwc.coding import WiretapCode

    return WiretapCode(
        n=2,
        input_size=2,
        output_size=2,
        codewords=np.array([[[0, 1], [1, 1]], [[1, 0], [0, 0]]]),
        decoder=np.array([0, -1, 1, 0]),
    )


def two_copy_random_code():
    """Random code whose two members are one n = 1, J = 2 code over binary alphabets."""
    from avwc.coding import RandomCode, WiretapCode

    member = WiretapCode(
        n=1,
        input_size=2,
        output_size=2,
        codewords=np.array([[[0]], [[1]]]),
        decoder=np.array([0, 1]),
    )
    return RandomCode(members=[member, member], origin="reduced")


class TestSpecFile:
    def test_parse_sample(self):
        spec = load_spec(sample("degraded_pair.avwc"))
        assert spec.avwc.state_count == 2
        assert spec.state_names == ("calm", "jam")
        assert spec.avwc.main[1].rows[0, 1] == pytest.approx(0.15)

    def test_round_trip(self):
        spec = load_spec(sample("adder.avwc"))
        again = parse_spec(serialize_spec(spec))
        for a, b in zip(spec.avwc.main, again.avwc.main):
            assert np.array_equal(a.rows, b.rows)
        for a, b in zip(spec.avwc.eaves, again.avwc.eaves):
            assert np.array_equal(a.rows, b.rows)

    def test_bad_row_sum_names_the_row(self):
        text = (
            "avwc 1\nstates 1\ninputs 2\noutputs main 2\noutputs eaves 2\n"
            "main 0\n0.9 0.11\n0.1 0.9\neaves 0\n0.5 0.5\n0.5 0.5\n"
        )
        with pytest.raises(SpecFormatError, match="row 0 sums"):
            parse_spec(text)

    def test_duplicate_state_names_rejected(self):
        text = "avwc 1\nstates 2 names a a\ninputs 2\noutputs main 2\noutputs eaves 2\n"
        with pytest.raises(SpecFormatError, match="duplicate state names"):
            parse_spec(text)

    def test_missing_matrix_rejected(self):
        text = (
            "avwc 1\nstates 2\ninputs 2\noutputs main 2\noutputs eaves 2\n"
            "main 0\n1 0\n0 1\nmain 1\n1 0\n0 1\neaves 0\n0.5 0.5\n0.5 0.5\n"
        )
        with pytest.raises(SpecFormatError, match="missing eaves"):
            parse_spec(text)

    def test_repeated_size_directive_rejected(self, capsys, tmp_path):
        # a second 'outputs main' would relabel a two-output channel with three labels
        path = tmp_path / "twice.avwc"
        path.write_text(
            "avwc 1\nstates 1\ninputs 2\noutputs main 2\noutputs eaves 2\n"
            "main 0\n0.9 0.1\n0.1 0.9\noutputs main 3\neaves 0\n0.5 0.5\n0.5 0.5\n"
        )
        with pytest.raises(SpecFormatError, match="duplicate 'outputs main' directive") as err:
            parse_spec(path.read_text())
        assert err.value.line == 9
        code, _, err_text = run(capsys, "structure", str(path))
        assert code == 2
        assert "(line 9)" in err_text

    def test_parse_error_carries_line_number(self):
        text = "avwc 1\nstates 1\ninputs 2\noutputs main 2\noutputs eaves 2\nmain 0\n0.9 oops\n"
        with pytest.raises(SpecFormatError) as err:
            parse_spec(text)
        assert err.value.line == 7


class TestCodeFile:
    def test_code_round_trip(self):
        code = two_message_code()
        again = parse_code(serialize_code(code))
        assert np.array_equal(code.codewords, again.codewords)
        assert np.array_equal(code.decoder, again.decoder)

    def test_built_code_reads_back_with_every_field(self):
        """A code read back from its file equals the built code field by field."""
        import dataclasses

        from avwc.coding import WiretapCode, build_random_codebook
        from avwc.channels import Distribution

        avwc = load_spec(sample("degraded_pair.avwc")).avwc
        code = build_random_codebook(Distribution.uniform(2), avwc, 4, 0.05, seed=6, delta=0.3, j_count=2, l_count=2)
        again = parse_code(serialize_code(code))
        for field in dataclasses.fields(WiretapCode):
            built, read = getattr(code, field.name), getattr(again, field.name)
            assert np.array_equal(built, read) if isinstance(built, np.ndarray) else built == read, field.name

    def test_random_code_round_trip(self):
        rc = two_copy_random_code()
        again = parse_random_code(serialize_random_code(rc))
        assert again.origin == "reduced"
        assert again.member_count() == 2
        assert np.array_equal(again.members[0].codewords, rc.members[0].codewords)

    @pytest.mark.parametrize(
        "line, replacement, line_no",
        [
            ("codeword 0 1 11", "codeword x 1 11", 8),
            ("codeword 0 1 11", "codeword 1.5 1 11", 8),
            ("block_length 2", "block_length -1", 2),
            ("message_count 2", "message_count -1", 5),
            ("block_length 2", "block_length 0", 2),
        ],
        ids=["codeword-j-x", "codeword-j-1.5", "block-length-negative", "message-count-negative",
             "block-length-zero"],
    )
    def test_bad_code_integers_name_their_line(self, capsys, tmp_path, line, replacement, line_no):
        text = serialize_code(two_message_code())
        assert f"\n{line}\n" in text
        path = tmp_path / "bad.txt"
        path.write_text(text.replace(line, replacement))
        with pytest.raises(SpecFormatError) as err:
            parse_code(path.read_text())
        assert err.value.line == line_no
        code, _, err_text = run(capsys, "code", sample("degraded_pair.avwc"), "evaluate", "--code", str(path))
        assert code == 2
        assert f"(line {line_no})" in err_text

    @pytest.mark.parametrize("kind", ["code", "random-code"])
    def test_alphabets_above_36_symbols_are_refused_at_parse_time(self, capsys, tmp_path, kind):
        """serialize_code writes at most 36 symbols, so a larger alphabet is a format error on its line."""
        if kind == "code":
            text, parse, line_no = serialize_code(two_message_code()), parse_code, 3
            argv = ["evaluate", "--code"]
        else:
            text, parse, line_no = serialize_random_code(two_copy_random_code()), parse_random_code, 8
            argv = ["eliminate", "--prefix-len", "1", "--reduced"]
        path = tmp_path / "wide.txt"
        path.write_text(text.replace("input_size 2", "input_size 99", 1))
        with pytest.raises(SpecFormatError, match="input_size must be in") as err:
            parse(path.read_text())
        assert err.value.line == line_no
        code, _, err_text = run(capsys, "code", sample("degraded_pair.avwc"), *argv, str(path))
        assert code == 2
        assert f"(line {line_no})" in err_text

    def test_random_code_without_members_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text(serialize_random_code(two_copy_random_code()).replace("member_count 2", "member_count 0"))
        with pytest.raises(SpecFormatError) as err:
            parse_random_code(path.read_text())
        assert err.value.line == 2
        code, _, err_text = run(
            capsys, "code", sample("degraded_pair.avwc"), "eliminate", "--reduced", str(path), "--prefix-len", "1"
        )
        assert code == 2
        assert "member_count must be at least 1, got 0 (line 2)" in err_text


MUTATIONS = ("-1", "0", "x", "1.5", "2", "99", "states", "outputs", "codeword", "member", "end")


@pytest.fixture(scope="module")
def format_texts():
    """(parser, text) for a serialized sample spec, a built code and a two-member random code."""
    from avwc.channels import Distribution
    from avwc.coding import RandomCode, build_random_codebook

    spec = load_spec(sample("degraded_pair.avwc"))
    codes = [
        build_random_codebook(Distribution.uniform(2), spec.avwc, 3, tau=0.05, seed=seed, delta=0.3,
                              j_count=2, l_count=2)
        for seed in (1, 2)
    ]
    return [
        (parse_spec, serialize_spec(spec)),
        (parse_code, serialize_code(codes[0])),
        (parse_random_code, serialize_random_code(RandomCode(members=codes, origin="reduced"))),
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_single_token_mutations_parse_or_raise_a_located_format_error(format_texts, data):
    """Any one token replaced: the parser returns a result or raises SpecFormatError with a line."""
    parse, text = data.draw(st.sampled_from(format_texts))
    start, end = data.draw(st.sampled_from([m.span() for m in re.finditer(r"\S+", text)]))
    mutated = text[:start] + data.draw(st.sampled_from(MUTATIONS)) + text[end:]
    try:
        parse(mutated)
    except SpecFormatError as err:
        assert err.line is not None


@pytest.fixture(scope="module")
def staged_files(tmp_path_factory):
    """A code file built at n = 4 and the random-code file reduced from it."""
    folder = tmp_path_factory.mktemp("staged")
    code_path, reduced_path = str(folder / "code.txt"), str(folder / "reduced.txt")
    spec = sample("degraded_pair.avwc")
    assert main(["code", spec, "build", "--n", "4", "--tau", "0.05", "--delta", "0.3", "--seed", "6",
                 "--out", code_path]) == 0
    assert main(["code", spec, "reduce", "--code", code_path, "--k", "8", "--epsilon", "0.4",
                 "--seed", "5", "--out", reduced_path]) == 0
    return code_path, reduced_path


class TestCommands:
    def test_closed_pipe_exits_0_without_a_traceback(self):
        """A reader that closes the pipe early (``avwc ... | head -1``) is not an error."""
        import avwc

        src = os.path.dirname(os.path.dirname(avwc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "avwc.cli", "structure", sample("adder.avwc"), "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, check=False,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")

    def test_structure_adder(self, capsys):
        code, out, err = run(capsys, "structure", sample("adder.avwc"), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["symmetrisability"]["symmetrisable"] is True
        assert report["results"]["best_eavesdropper_channel"]["exists"] is True
        assert report["seed"] is None  # the structure tests draw nothing

    def test_structure_single_state_best_channel(self, capsys):
        code, out, _ = run(capsys, "structure", sample("single_bsc.avwc"), "--format", "json")
        assert code == 0
        block = json.loads(out)["results"]["best_eavesdropper_channel"]
        assert block["exists"] is True
        assert block["q_star"] == [1.0]

    def test_bounds_degraded_instance(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            sample("degraded_pair.avwc"),
            "--starts",
            "6",
            "--format",
            "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        lower = results["secrecy_lower_bound"]["value_bits_per_use"]
        upper = results["secrecy_upper_bound_single_letter"]["value_bits_per_use"]
        assert abs(upper - lower) <= 5e-3
        assert results["gap_upper_minus_lower"] == pytest.approx(upper - lower)
        # bound values are optimizer results: nothing is reported as certified
        assert "certified_gap" not in out

    def test_evaluate_has_no_sampled_mode(self, capsys, staged_files):
        with pytest.raises(SystemExit) as exited:
            main(["code", sample("degraded_pair.avwc"), "evaluate", "--code", staged_files[0],
                  "--mode", "sampled"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --mode sampled" in capsys.readouterr().err

    def test_bounds_deterministic_results_block(self, capsys):
        argv = ("bounds", sample("single_bsc.avwc"), "--starts", "4", "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        first = json.dumps(json.loads(out1)["results"], sort_keys=True)
        second = json.dumps(json.loads(out2)["results"], sort_keys=True)
        assert first == second

    def test_bounds_echo_the_seed_they_used(self, capsys):
        # the bounds draw nothing: they echo no seed, as structure does, and take no --seed
        argv = ["bounds", sample("single_bsc.avwc"), "--grid", "4", "--starts", "1", "--format", "json"]
        assert json.loads(run(capsys, *argv)[1])["seed"] is None
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--seed", "1"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_bounds_report_the_multi_letter_bound(self, capsys):
        _, out, _ = run(
            capsys, "bounds", sample("single_bsc.avwc"), "--grid", "4", "--starts", "1", "--n", "2", "--format", "json"
        )
        block = json.loads(out)["results"]["multi_letter_bound"]
        assert set(block) == {"tag", "value_bits_per_use", "argmax_p", "inner_argmin_q", "n"}
        assert block["tag"] == "multi-letter-bound" and block["n"] == 2
        expected = multiletter_bound(
            load_spec(sample("single_bsc.avwc")).avwc, 2, opts=BoundOptions(p_grid_denominator=4, starts=1)
        )
        assert block["value_bits_per_use"] == expected.value

    @pytest.mark.parametrize("spec", ["adder.avwc", "degraded_pair.avwc"])
    def test_bounds_name_the_deterministic_code_class(self, capsys, spec):
        # the paper's dichotomy: deterministic codes reach 0 over adder's symmetrisable main AVC
        _, out, _ = run(capsys, "bounds", sample(spec), "--grid", "4", "--starts", "1", "--format", "json")
        results = json.loads(out)["results"]
        lower = results["secrecy_lower_bound"]
        assert lower["best_eavesdropper_channel_exists"] is True
        if spec == "adder.avwc":
            assert results["main_avc_capacity"]["symmetrisable"] is True
            assert lower["deterministic_value_bits_per_use"] == 0.0
            assert results["gap_upper_minus_deterministic_lower"] == pytest.approx(0.5, abs=1e-6)
        else:
            assert lower["deterministic_value_bits_per_use"] == lower["value_bits_per_use"]
            assert results["gap_upper_minus_deterministic_lower"] == results["gap_upper_minus_lower"]

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_structure_tolerance_must_be_positive_and_finite(self, capsys, value):
        with pytest.raises(SystemExit) as exited:
            main(["structure", sample("degraded_pair.avwc"), "--tol", value])
        assert exited.value.code == 2
        assert f"must be a positive number, got {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--grid", "0"), ("--grid", "-2"), ("--starts", "0")])
    def test_bounds_rejects_counts_below_one(self, capsys, flag, value):
        # 0 must not stand for the default, nor a negative grid drop the grid floor
        with pytest.raises(SystemExit) as exited:
            main(["bounds", sample("single_bsc.avwc"), flag, value])
        assert exited.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, minimum",
        [
            (("bounds", "single_bsc.avwc", "--n", "-1"), 0),
            (("code", "degraded_pair.avwc", "build", "--n", "-2"), 1),
            (("code", "degraded_pair.avwc", "eliminate", "--prefix-len", "-1"), 0),
            (("code", "degraded_pair.avwc", "reduce", "--k", "0"), 1),
            (("code", "single_bsc.avwc", "build", "--n", "3", "--tau", "0.05", "--seed", "-1"), 0),
        ],
        ids=["bounds-n", "build-n", "eliminate-prefix-len", "reduce-k", "build-seed"],
    )
    def test_integer_flags_below_their_minimum_are_usage_errors(self, capsys, argv, minimum):
        command, spec, *flags = argv
        with pytest.raises(SystemExit) as exited:
            main([command, sample(spec), *flags])
        assert exited.value.code == 2
        assert f"must be at least {minimum}, got {flags[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, maximum",
        [
            (("code", "single_bsc.avwc", "build", "--n", "3", "--tau", "0.05", "--seed", str(2**128)), 2**128 - 1),
        ],
        ids=["build-seed"],
    )
    def test_seeds_outside_the_philox_key_range_are_usage_errors(self, capsys, argv, maximum):
        command, spec, *flags = argv
        with pytest.raises(SystemExit) as exited:
            main([command, sample(spec), *flags])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"must be at most {maximum}, got {flags[-1]}" in err
        assert "size estimate" not in err

    def test_largest_code_seed_builds(self, capsys):
        code, _, _ = run(
            capsys, "code", sample("single_bsc.avwc"), "build", "--n", "3", "--tau", "0.05",
            "--seed", str(2**128 - 1),
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ("build", "--n", "3", "--tau", "0.05", "--delta", "-1"),
            ("build", "--n", "3", "--tau", "0"),
            ("verify-lemmas", "--n", "3", "--delta", "0"),
            ("reduce", "--epsilon", "0"),
            ("reduce", "--epsilon", "nan"),
        ],
        ids=["build-delta", "build-tau", "verify-lemmas-delta", "reduce-epsilon", "reduce-epsilon-nan"],
    )
    def test_float_flags_must_be_positive(self, capsys, flags):
        # rejected while parsing, before the size estimate and any work
        with pytest.raises(SystemExit) as exited:
            main(["code", sample("single_bsc.avwc"), *flags])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"must be a positive number, got {float(flags[-1])}" in err
        assert "size estimate" not in err

    @pytest.mark.parametrize("flags", [("evaluate",), ("verify-lemmas", "--n", "3")], ids=["evaluate", "verify-lemmas"])
    @pytest.mark.parametrize(
        "input_size, output_size, word", [(3, 2, [2, 1, 0]), (2, 3, [0, 1, 0])], ids=["inputs", "outputs"]
    )
    def test_code_alphabets_must_match_the_spec(self, capsys, tmp_path, flags, input_size, output_size, word):
        from avwc.coding import WiretapCode

        code = WiretapCode(
            n=3, input_size=input_size, output_size=output_size, codewords=np.array([[word]]),
            decoder=np.zeros(output_size**3, dtype=int),
        )
        path = tmp_path / "code.txt"
        path.write_text(serialize_code(code))
        exit_code, _, err = run(capsys, "code", sample("single_bsc.avwc"), *flags, "--code", str(path))
        assert exit_code == 4
        assert "code alphabets do not match the channel family" in err

    def test_weighted_random_code_file_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "weighted.txt"
        text = serialize_random_code(two_copy_random_code())
        path.write_text(text.replace("weights uniform", "weights 0.75 0.25"))
        with pytest.raises(SpecFormatError, match="weights uniform"):
            parse_random_code(path.read_text())
        code, _, err = run(
            capsys, "code", sample("degraded_pair.avwc"), "eliminate", "--reduced", str(path), "--prefix-len", "1"
        )
        assert code == 2
        assert "weights uniform" in err

    @pytest.mark.parametrize(
        "subaction, parser",
        [("evaluate", "parse_code"), ("robustify", "parse_code"), ("reduce", "parse_code"),
         ("eliminate", "parse_random_code")],
    )
    def test_code_subactions_parse_their_input_file_once(
        self, capsys, monkeypatch, staged_files, subaction, parser
    ):
        code_path, reduced_path = staged_files
        calls = []
        for name in ("parse_code", "parse_random_code"):

            def spy(text, real=getattr(cli, name), name=name):
                calls.append(name)
                return real(text)

            monkeypatch.setattr(cli, name, spy)
        if subaction == "eliminate":
            flags = ["--reduced", reduced_path, "--prefix-len", "5"]
        else:
            flags = ["--code", code_path]
        if subaction == "reduce":
            flags += ["--k", "8", "--epsilon", "0.4", "--seed", "5"]
        code, _, err = run(capsys, "code", sample("degraded_pair.avwc"), subaction, *flags)
        assert code == 0
        assert calls == [parser]
        assert f"block_length={5 + 4 if subaction == 'eliminate' else 4}," in err

    @pytest.mark.parametrize(
        "stage, flags, seed, foreign",
        [
            ("build", "--n 3 --tau 0.05 --delta 0.3 --seed 6 --p uniform --out {tmp}/built.txt", 6,
             "--table t.csv"),
            ("evaluate", "--code {code} --table {tmp}/table.csv", None, "--seed 1"),
            ("robustify", "--code {code}", None, "--k 2"),
            ("reduce", "--code {code} --k 8 --epsilon 0.4 --seed 5 --out {tmp}/reduced.txt", 5,
             "--prefix-len 2"),
            ("eliminate", "--reduced {reduced} --prefix-len 5 --out {tmp}/combined.txt", None, "--n 3"),
            ("verify-lemmas", "--n 4 --delta 0.2 --p uniform --code {code} --secrecy-events", None,
             "--tau 0.1"),
        ],
        ids=["build", "evaluate", "robustify", "reduce", "eliminate", "verify-lemmas"],
    )
    def test_code_stages_take_only_the_flags_they_read(
        self, capsys, tmp_path, staged_files, stage, flags, seed, foreign
    ):
        code_path, reduced_path = staged_files
        argv = ["code", sample("degraded_pair.avwc"), stage, "--format", "json",
                *flags.format(code=code_path, reduced=reduced_path, tmp=tmp_path).split()]
        # the stage runs with every flag it declares and echoes the seed it drew with, if any
        stage_parser = subparser(subparser(cli.build_parser(), "code"), stage)
        declared = {option for action in stage_parser._actions for option in action.option_strings}
        assert declared - {"-h", "--help"} == {word for word in argv if word.startswith("--")}
        exit_code, out, _ = run(capsys, *argv)
        assert exit_code == 0
        assert json.loads(out)["seed"] == seed
        with pytest.raises(SystemExit) as exited:
            main([*argv, *foreign.split()])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {foreign}" in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.avwc"
        bad.write_text("avwc 1\nstates 1\ninputs 2\noutputs main 2\noutputs eaves 2\nmain 0\n0.9 0.2\n0.1 0.9\neaves 0\n.5 .5\n.5 .5\n")
        code, _, err = run(capsys, "structure", str(bad))
        assert code == 2
        assert "row 0" in err

    def test_resource_limit_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("AVWC_ENUM_CAP", "10")
        code, _, err = run(capsys, "code", sample("single_bsc.avwc"), "verify-lemmas", "--n", "6")
        assert code == 3
        assert "cap" in err

    def test_code_build_evaluate_chain(self, capsys, tmp_path):
        code_path = tmp_path / "code.txt"
        code, out, err = run(
            capsys,
            "code",
            sample("degraded_pair.avwc"),
            "build",
            "--n", "4", "--tau", "0.05", "--delta", "0.3", "--seed", "6",
            "--out", str(code_path), "--format", "json",
        )
        assert code == 0
        assert "size estimate" in err
        built = json.loads(out)["results"]
        assert built["message_count"] >= 1
        assert code_path.exists()

        code, out, _ = run(
            capsys,
            "code",
            sample("degraded_pair.avwc"),
            "evaluate",
            "--code", str(code_path), "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert 0.0 <= results["worst_state_error"] <= 1.0
        assert results["worst_leakage_bits"] >= 0.0

    def test_reduce_and_eliminate_chain(self, capsys, tmp_path):
        code_path = tmp_path / "code.txt"
        reduced_path = tmp_path / "reduced.txt"
        run(
            capsys,
            "code", sample("degraded_pair.avwc"), "build",
            "--n", "4", "--tau", "0.05", "--delta", "0.3", "--seed", "6",
            "--out", str(code_path),
        )
        code, out, _ = run(
            capsys,
            "code", sample("degraded_pair.avwc"), "reduce",
            "--code", str(code_path), "--k", "8", "--epsilon", "0.4", "--seed", "5",
            "--out", str(reduced_path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["worst_mean_error"] <= 0.4
        code, out, _ = run(
            capsys,
            "code", sample("degraded_pair.avwc"), "eliminate",
            "--reduced", str(reduced_path), "--prefix-len", "5", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["checks_pass"] is True
        assert results["error_decomposition_margin"] >= -1e-12

    def test_reduce_impossible_epsilon_exit_code(self, capsys, tmp_path):
        code_path = tmp_path / "code.txt"
        run(
            capsys,
            "code", sample("degraded_pair.avwc"), "build",
            "--n", "4", "--tau", "0.05", "--delta", "0.3", "--seed", "6",
            "--out", str(code_path),
        )
        code, _, err = run(
            capsys,
            "code", sample("degraded_pair.avwc"), "reduce",
            "--code", str(code_path), "--k", "4", "--epsilon", "1e-9", "--seed", "5",
        )
        assert code == 4
        assert "epsilon" in err

    def test_verify_lemmas(self, capsys):
        code, out, _ = run(
            capsys,
            "code", sample("degraded_pair.avwc"), "verify-lemmas",
            "--n", "5", "--delta", "0.2", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["all_checks_pass"] is True
        assert len(results["typicality_checks"]) == 4

    def test_verify_lemmas_renders_its_check_list_as_text(self, capsys):
        code, out, _ = run(capsys, "code", sample("degraded_pair.avwc"), "verify-lemmas", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        checks = lines[lines.index("  typicality_checks:") + 1 : lines.index("  robustification:")]
        # one block per family and state, each closed by a dash
        assert checks.count("    -") == 4 and checks[-1] == "    -"
        assert checks.count("    family: main") == checks.count("    family: eaves") == 2
        assert "    state: jam" in checks and "  all_checks_pass: True" in lines

    @pytest.mark.parametrize("extra", [(), ("--secrecy-events",)], ids=["plain", "secrecy-events"])
    def test_verify_lemmas_rejects_a_code_of_another_block_length(self, capsys, monkeypatch, tmp_path, extra):
        spec = sample("degraded_pair.avwc")
        code_path = str(tmp_path / "c3.txt")
        assert main(["code", spec, "build", "--n", "3", "--tau", "0.05", "--delta", "0.3", "--out", code_path]) == 0
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError("the typicality sweep ran")

        monkeypatch.setattr(cli, "verify_typicality_bounds", never)
        code, _, err = run(capsys, "code", spec, "verify-lemmas", "--n", "5", "--code", code_path, *extra)
        assert code == 4
        assert "code block length 3 differs from --n 5" in err
        assert "size estimate" not in err

    def test_build_takes_a_named_input_distribution(self, capsys, tmp_path):
        argv = ["code", sample("single_bsc.avwc"), "build", "--n", "3", "--tau", "0.05"]
        # the spec's uniform_in is the uniform law, so both names draw the same code
        codes = []
        for name in ("uniform_in", "uniform"):
            assert run(capsys, *argv, "--p", name, "--out", str(tmp_path / f"{name}.txt"))[0] == 0
            codes.append((tmp_path / f"{name}.txt").read_text())
        assert codes[0] == codes[1]
        states_spec = tmp_path / "states_dist.avwc"
        with open(sample("single_bsc.avwc"), encoding="utf-8") as handle:
            states_spec.write_text(handle.read() + "dist one states 1\n")
        for spec, name, message in (
            (sample("single_bsc.avwc"), "nosuch", "no distribution named 'nosuch'"),
            (str(states_spec), "one", "distribution 'one' is over states, not inputs"),
        ):
            code, _, err = run(capsys, "code", spec, "build", "--n", "3", "--tau", "0.05", "--p", name)
            assert code == 2
            assert message in err

    def test_noiseless_build_then_evaluate_is_error_free(self, capsys, tmp_path):
        spec_path = tmp_path / "noiseless.avwc"
        spec_path.write_text(
            "avwc 1\nstates 1\ninputs 2\noutputs main 2\noutputs eaves 2\n"
            "main 0\n1 0\n0 1\neaves 0\n0.5 0.5\n0.5 0.5\n"
        )
        code_path = tmp_path / "code.txt"
        code, out, _ = run(
            capsys,
            "code", str(spec_path), "build",
            "--n", "3", "--tau", "0.4", "--delta", "0.4", "--seed", "2",
            "--out", str(code_path), "--format", "json",
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "code", str(spec_path), "evaluate",
            "--code", str(code_path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["worst_state_error"] == 0.0

    def test_evaluate_writes_csv_table(self, capsys, tmp_path):
        code_path = tmp_path / "code.txt"
        table_path = tmp_path / "table.csv"
        run(
            capsys,
            "code", sample("degraded_pair.avwc"), "build",
            "--n", "4", "--tau", "0.05", "--delta", "0.3", "--seed", "6",
            "--out", str(code_path),
        )
        code, out, _ = run(
            capsys,
            "code", sample("degraded_pair.avwc"), "evaluate",
            "--code", str(code_path), "--table", str(table_path), "--format", "json",
        )
        assert code == 0
        lines = table_path.read_text().strip().splitlines()
        assert lines[0] == "state_sequence,error,leakage_bits"
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            _, err, leak = line.split(",")
            assert 0.0 <= float(err) <= 1.0 and float(leak) >= 0.0


SYNOPSES = ["structure", "bounds"] + [
    f"code {stage}" for stage in ("build", "evaluate", "robustify", "reduce", "eliminate", "verify-lemmas")
]


@pytest.mark.parametrize("command", SYNOPSES, ids=[command.replace(" ", "-") for command in SYNOPSES])
def test_readme_synopsis_lists_every_option(command):
    """README's command-line synopsis names every option of the subcommand or code stage,
    bracketed unless the option is required, and no option the parser does not declare."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    synopsis = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    name, *stage = command.split()
    prefix = " ".join(["avwc", name, "<spec>", *stage]) + " "
    line = next(line for line in synopsis.splitlines() if line.startswith(prefix))
    parser = cli.build_parser()
    for word in command.split():
        parser = subparser(parser, word)
    actions = [action for action in parser._actions if not isinstance(action, argparse._HelpAction)]
    assert actions
    missing = []
    for action in actions:
        for option in action.option_strings:
            if action.required:
                listed = f" {option} " in line and f"[{option}" not in line
            else:
                listed = f"[{option}" in line
            if not listed:
                missing.append(option)
    assert not missing, f"README synopsis of 'avwc {command}' lacks {missing}"
    declared = {option for action in actions for option in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", line)) == declared

