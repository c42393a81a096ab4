import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwc import cli
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
    def test_structure_adder(self, capsys):
        code, out, err = run(capsys, "structure", sample("adder.avwc"), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["symmetrisability"]["symmetrisable"] is True
        assert report["results"]["best_eavesdropper_channel"]["exists"] is True

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

    def test_bounds_deterministic_results_block(self, capsys):
        argv = ("bounds", sample("single_bsc.avwc"), "--starts", "4", "--seed", "11", "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        first = json.dumps(json.loads(out1)["results"], sort_keys=True)
        second = json.dumps(json.loads(out2)["results"], sort_keys=True)
        assert first == second

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
            (("bounds", "single_bsc.avwc", "--u-size", "0"), 1),
            (("code", "degraded_pair.avwc", "build", "--n", "-2"), 1),
            (("code", "degraded_pair.avwc", "eliminate", "--prefix-len", "-1"), 0),
            (("code", "degraded_pair.avwc", "reduce", "--k", "0"), 1),
            (("bounds", "single_bsc.avwc", "--seed", "-1"), 0),
            (("code", "single_bsc.avwc", "build", "--n", "3", "--tau", "0.05", "--seed", "-1"), 0),
        ],
        ids=["bounds-n", "bounds-u-size", "build-n", "eliminate-prefix-len", "reduce-k", "bounds-seed",
             "build-seed"],
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
            (("bounds", "single_bsc.avwc", "--seed", str(2**128 - 1)), 2**128 - 2),
            (("code", "single_bsc.avwc", "build", "--n", "3", "--tau", "0.05", "--seed", str(2**128)), 2**128 - 1),
        ],
        ids=["bounds-seed", "build-seed"],
    )
    def test_seeds_outside_the_philox_key_range_are_usage_errors(self, capsys, argv, maximum):
        # bounds key a second stream with seed + 1, so their limit is one lower
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
            flags = ["--code", code_path, "--k", "8", "--epsilon", "0.4", "--seed", "5"]
        code, _, err = run(capsys, "code", sample("degraded_pair.avwc"), subaction, *flags)
        assert code == 0
        assert calls == [parser]
        assert f"block_length={5 + 4 if subaction == 'eliminate' else 4}," in err

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
