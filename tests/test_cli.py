import importlib
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from succorder import ORACLE_MAX_N, BadDistribution, cli, counting, eval_partial, pr_good
from succorder.errors import InternalCheckError, VerificationError

from conftest import C5_CHORD_TEXT, c5_chord


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "succorder", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture()
def c5chord_file(tmp_path):
    path = tmp_path / "c5chord.txt"
    path.write_text(C5_CHORD_TEXT)
    return str(path)


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


def payload_of(proc):
    return json.loads(proc.stdout)["payload"]


class TestCount:
    def test_c5_chord(self, c5chord_file):
        proc = run_cli("count", c5chord_file, "--json", check=True)
        doc = json.loads(proc.stdout)
        assert doc["command"] == "count"
        assert doc["input"] == {"n": 5, "edges": 6, "connected": True}
        assert doc["payload"] == {"sigma": "60", "sigma_prime": "1/2"}

    def test_k1(self, tmp_path):
        path = tmp_path / "k1.txt"
        path.write_text("1 0\n")
        proc = run_cli("count", str(path), "--json", check=True)
        assert payload_of(proc)["sigma"] == "1"

    def test_human_readable(self, c5chord_file):
        proc = run_cli("count", c5chord_file, check=True)
        assert "sigma: 60" in proc.stdout
        assert "sigma_prime: 1/2" in proc.stdout

    def test_disconnected_warns_and_counts_zero(self, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("3 1\n0 1\n")
        proc = run_cli("count", str(path), "--json", check=True)
        assert payload_of(proc)["sigma"] == "0"
        assert "disconnected" in proc.stderr

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 7\n")
        proc = run_cli("count", str(path))
        assert proc.returncode == 1
        assert "line 2" in proc.stderr
        # int() would read these as 11, 2 and 1
        for text, line in (("1_1 1\n0 1\n", 1), ("+2 1\n0 1\n", 1), ("2 1\n0 \u0661\n", 2)):
            path.write_text(text, encoding="utf-8")
            assert cli.main(["count", str(path)]) == 1
            assert f"line {line}" in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        proc = run_cli("count", "no-such-file.txt")
        assert proc.returncode == 1


class TestPolyAndDistribution:
    def test_c5_chord_poly(self, c5chord_file):
        payload = payload_of(run_cli("poly", c5chord_file, "--json", check=True))
        assert payload["f_coeffs"] == ["120", "60"]
        assert payload["A"] == ["60", "60", "0", "0", "0", "0"]

    def test_p3_distribution(self, p3_file):
        payload = payload_of(run_cli("distribution", p3_file, "--json", check=True))
        assert payload["f_coeffs"] == ["6", "2"]
        assert payload["A"] == ["4", "2", "0", "0"]

    def test_k1_poly(self, tmp_path):
        path = tmp_path / "k1.txt"
        path.write_text("1 0\n")
        payload = payload_of(run_cli("poly", str(path), "--json", check=True))
        assert payload["f_coeffs"] == ["1"]
        assert payload["A"] == ["1", "0"]

    def test_count_and_poly_agree(self, c5chord_file):
        count_payload = payload_of(run_cli("count", c5chord_file, "--json", check=True))
        poly_payload = payload_of(run_cli("poly", c5chord_file, "--json", check=True))
        assert count_payload["sigma"] == poly_payload["sigma"] == poly_payload["A"][0]


class TestEval:
    def test_all_good(self, c5chord_file):
        payload = payload_of(
            run_cli("eval", c5chord_file, "--good", "0,1,2,3,4", "--json", check=True)
        )
        assert payload["probability"] == "1/2"

    def test_empty_sets(self, c5chord_file):
        payload = payload_of(run_cli("eval", c5chord_file, "--json", check=True))
        assert payload["probability"] == "1"

    def test_p3_endpoint(self, p3_file):
        payload = payload_of(run_cli("eval", p3_file, "--good", "2", "--json", check=True))
        assert payload["probability"] == "5/6"

    def test_mixed_event(self, p3_file):
        payload = payload_of(
            run_cli("eval", p3_file, "--bad", "0", "--good", "1,2", "--json", check=True)
        )
        assert payload["bad"] == [0]
        assert payload["good"] == [1, 2]

    def test_empty_list_items_are_skipped(self, capsys, p3_file):
        assert cli.main(["eval", p3_file, "--good", "1,,2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["good"] == [1, 2]

    def test_vertex_out_of_range(self, p3_file):
        proc = run_cli("eval", p3_file, "--good", "9")
        assert proc.returncode == 1
        assert "out of range" in proc.stderr
        # int() would read these as 0, 1 and 1
        for argv in (
            ["eval", p3_file, "--good", "\u0660,1"],
            ["eval", p3_file, "--bad", "+1"],
            ["delete", p3_file, "--set", "0_1"],
        ):
            assert cli.main(argv) == 1


class TestDelete:
    def test_identity_reported(self, c5chord_file):
        payload = payload_of(run_cli("delete", c5chord_file, "--set", "4", "--json", check=True))
        assert payload["set"] == [4]
        assert len(payload["p_g"]) == len(payload["p_gprime"]) == 2

    def test_empty_set(self, c5chord_file):
        payload = payload_of(run_cli("delete", c5chord_file, "--json", check=True))
        assert all(c == "0" for c in payload["r_s"])
        assert all(c == "0" for c in payload["u_s"])

    def test_full_removal_rejected(self, p3_file):
        proc = run_cli("delete", p3_file, "--set", "0,1,2")
        assert proc.returncode == 1


class TestRegular:
    def test_witness_for_chorded_cycle(self, c5chord_file):
        payload = payload_of(run_cli("regular", c5chord_file, "--json", check=True))
        assert payload["fully_regular"] is False
        witness = payload["witness"]
        assert witness["size"] == 1
        assert {witness["a_a"], witness["a_b"]} == {1, 2}

    def test_profile_for_plain_cycle(self, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        payload = payload_of(run_cli("regular", str(path), "--json", check=True))
        assert payload == {"fully_regular": True, "alpha": 2, "a": [5, 2, 0]}


def wrong_on_call(call):
    """An ``_event_sum`` whose count is 1 too large on its ``call``-th call."""
    real, calls = counting._event_sum, itertools.count(1)

    def wrong(g, bad, good):
        return real(g, bad, good) + (1 if next(calls) == call else 0)

    return wrong


class TestVerify:
    def test_passes_on_c5_chord(self, c5chord_file):
        payload = payload_of(run_cli("verify", c5chord_file, "--json", check=True))
        assert payload["checks"] == {"sigma": "ok", "distribution": "ok", "events": "ok"}

    def test_passes_on_disconnected_graph(self, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        payload = payload_of(run_cli("verify", str(path), "--json", check=True))
        assert payload["sigma"] == "0"

    def test_size_guard(self, tmp_path):
        path = tmp_path / "big.txt"
        edges = [(v, v + 1) for v in range(11)]
        path.write_text(f"12 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 1
        assert "limited" in proc.stderr

    def test_the_walk_refuses_before_the_engine_pass(self, tmp_path, monkeypatch, capsys):
        def no_pass(*args):
            raise AssertionError("the engine's pass ran")

        monkeypatch.setattr(counting, "iter_layers", no_pass)
        path = tmp_path / "p11.txt"
        path.write_text("11 10\n" + "".join(f"{v} {v + 1}\n" for v in range(10)))
        assert cli.main(["verify", str(path)]) == 1
        assert "error: oracle is limited to n <= 10, got n = 11\n" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", [ORACLE_MAX_N], ids=["oracle-max-n"])
    def test_limit_admits_n_equal_to_it(self, tmp_path, capsys, limit):
        # a path on n = limit vertices is verified; one on limit + 1 is refused
        for n, code in ((limit, 0), (limit + 1, 1)):
            path = tmp_path / f"p{n}.txt"
            path.write_text(f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
            assert cli.main(["verify", str(path), "--json"]) == code
        assert f"oracle is limited to n <= {limit}, got n = {limit + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, wrong, message",
        [
            ("counting.eval_at_minus_one", lambda poly: counting.SigmaResult(3, 1),
             "sigma: engine 1 != oracle 4\n"),
            ("polynomial.bad_distribution", lambda poly: BadDistribution((60, 0)),
             "distribution: engine (60, 0) != oracle (4, 2, 0, 0)\n"),
            ("counting._event_sum", wrong_on_call(1),
             "Pr(G_U) for U=[1, 2]: engine 1 != oracle 5/6\n"),
            ("counting._event_sum", wrong_on_call(9),
             "Pr(B_T ∩ G_S) for T=[2], S=[0, 1]: engine 1/3 != oracle 1/6\n"),
        ],
        ids=["sigma", "distribution", "universe", "mixed"],
    )
    def test_wrong_engine_answer_maps_to_3(
        self, monkeypatch, capsys, p3_file, name, wrong, message
    ):
        # the 8 universes come first and the 8 mixed events after them, by position;
        # P_3's distribution (4, 2, 0, 0) tells its sigma apart from A_1, and each
        # whole message pins both sides' ratios over n! = 6
        monkeypatch.setattr(f"succorder.{name}", wrong)
        assert cli.main(["verify", p3_file]) == 3
        assert f"verification mismatch: {message}" in capsys.readouterr().err

    def test_one_prefix_walk_answers_every_check(self, monkeypatch, capsys, c5chord_file):
        from succorder import oracle

        calls = []
        walk = oracle._prefix_counts

        def counted(g, *args):
            calls.append(args)
            return walk(g, *args)

        monkeypatch.setattr(oracle, "_prefix_counts", counted)
        assert cli.main(["verify", c5chord_file, "--json"]) == 0
        assert len(calls) == 1
        # the distribution, 8 universes and 8 mixed events
        assert len(calls[0][0]) == 17
        assert '"events_sampled":16' in capsys.readouterr().out


class TestBench:
    def test_small_bench(self):
        payload = payload_of(
            run_cli("bench", "--n", "10", "--density", "0.3", "--seed", "7", "--json", check=True)
        )
        assert "self_check" not in payload
        assert int(payload["sigma"]) > 0
        assert payload["elapsed_ms"] >= 0

    def test_density_in_process(self, capsys):
        assert cli.main(["bench", "--n", "10", "--density", "0.3", "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert (payload["n"], payload["density"], payload["seed"]) == (10, 0.3, 7)

    def test_vertex_count_past_the_graph_bound(self, capsys):
        assert cli.main(["bench", "--n", "65"]) == 1
        assert capsys.readouterr().err == "error: vertex count must be in [1, 64], got 65\n"


# Runs cli.main on the argv in sys.argv[1] (JSON), then prints, as its last
# stdout line, the exit code and which of numpy and the oracle got imported.
_IMPORTS_AFTER_MAIN = """
import json, sys
from succorder.cli import main
code = main(json.loads(sys.argv[1]))
loaded = [m for m in ("numpy", "succorder.oracle") if m in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}))
"""


def importtime_tree(stderr):
    """(depth, module) rows of a ``-X importtime`` report, children before parents."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2][1:]
            rows.append(((len(name) - len(name.lstrip())) // 2, name.strip()))
    return rows


def importers(rows, module):
    """The chain of modules whose import pulled ``module`` in, innermost first."""
    for i, (depth, name) in enumerate(rows):
        if name == module:
            chain = []
            for parent_depth, parent in rows[i + 1:]:
                if parent_depth < depth:
                    chain.append(parent)
                    depth = parent_depth
            return chain
    return None


def module_run(*args):
    return subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, check=True
    )


def imports_after_main(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_AFTER_MAIN, json.dumps(argv)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportPath:
    """Only verify loads the oracle, count, eval and bench load no polynomial and
    no other command's handler, and no command loads fractions, numpy, an
    argument parser or the cross-check routes."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "{path}"],
            ["poly", "{path}"],
            ["distribution", "{path}"],
            ["eval", "{path}", "--good", "1,2", "--bad", "0"],
            ["delete", "{path}", "--set", "4"],
            ["regular", "{path}"],
            ["bench", "--n", "8"],
        ],
    )
    def test_engine_commands_skip_the_oracle(self, argv, c5chord_file):
        result = imports_after_main([arg.format(path=c5chord_file) for arg in argv])
        assert result == {"code": 0, "loaded": []}

    def test_verify_loads_the_oracle(self, c5chord_file):
        result = imports_after_main(["verify", c5chord_file])
        assert result == {"code": 0, "loaded": ["succorder.oracle"]}

    def test_module_entry_point_skips_the_oracle(self, c5chord_file):
        # -m imports the package __init__ before __main__
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "succorder", "count", c5chord_file],
            capture_output=True,
            text=True,
            check=True,
        )
        imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
        assert "succorder.cli" in imported
        assert not imported & {"numpy", "succorder.oracle"}

    def test_count_loads_only_the_counting_engine(self, c5chord_file):
        proc = module_run("-m", "succorder", "count", c5chord_file)
        loaded = {name for _, name in importtime_tree(proc.stderr) if name.startswith("succorder")}
        engine = {f"succorder.{m}" for m in ("errors", "graph", "layers", "counting")}
        assert loaded == {"succorder", "succorder.cli"} | engine

    def test_bench_loads_only_the_counting_engine_and_the_generator(self):
        # bench times sigma alone, so it loads no polynomial
        proc = module_run("-m", "succorder", "bench", "--n", "8")
        loaded = {name for _, name in importtime_tree(proc.stderr) if name.startswith("succorder")}
        engine = {f"succorder.{m}" for m in ("errors", "graph", "layers", "counting", "randgraph")}
        assert loaded == {"succorder", "succorder.cli"} | engine

    def test_eval_loads_only_the_counting_engine(self, c5chord_file):
        # eval_partial lives in counting, so eval never compiles polynomial
        proc = module_run("-m", "succorder", "eval", c5chord_file, "--good", "1,2", "--bad", "0")
        loaded = {name for _, name in importtime_tree(proc.stderr) if name.startswith("succorder")}
        engine = {f"succorder.{m}" for m in ("errors", "graph", "layers", "counting")}
        assert loaded == {"succorder", "succorder.cli"} | engine

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "{path}"],
            ["eval", "{path}", "--good", "1,2", "--bad", "0"],
            ["regular", "{path}"],
            ["poly", "{path}"],
            ["distribution", "{path}"],
            ["bench", "--n", "8"],
            ["verify", "{path}"],
            ["delete", "{path}", "--set", "4"],
        ],
    )
    def test_integer_commands_load_no_fractions(self, argv, c5chord_file):
        # their ratios are printed from the engine's integers
        proc = module_run("-m", "succorder", *[arg.format(path=c5chord_file) for arg in argv])
        loaded = {name for _, name in importtime_tree(proc.stderr)}
        assert "succorder.cli" in loaded
        assert not loaded & {"fractions", "decimal", "_decimal", "_pydecimal"}

    @pytest.mark.parametrize(
        "argv", [["count", "{path}"], ["eval", "{path}", "--good", "1,2", "--bad", "0"]]
    )
    def test_count_and_eval_load_no_cross_check_and_no_other_handler(self, argv, c5chord_file):
        proc = module_run("-m", "succorder", *[arg.format(path=c5chord_file) for arg in argv])
        loaded = {name for _, name in importtime_tree(proc.stderr)}
        own = cli._COMMANDS[argv[0]][0]
        handler_modules = {entry[0] for entry in cli._COMMANDS.values()}
        others = {f"succorder.{module}" for module in handler_modules - {own}}
        assert f"succorder.{own}" in loaded
        assert not loaded & (others | {"succorder.crosscheck"})

    def test_every_handler_lives_in_its_engine_module(self):
        # cli.py holds the parser and the table, not the handlers
        assert not [name for name in vars(cli) if name.startswith("_cmd_")]
        for command, (module, handler, *_) in cli._COMMANDS.items():
            assert callable(getattr(importlib.import_module(f"succorder.{module}"), handler)), command

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "{path}"],
            ["poly", "{path}"],
            ["distribution", "{path}"],
            ["eval", "{path}", "--good", "1,2", "--bad", "0"],
            ["delete", "{path}", "--set", "4"],
            ["regular", "{path}"],
            ["verify", "{path}"],
            ["bench", "--n", "8"],
        ],
    )
    def test_no_command_loads_an_argument_parser(self, argv, c5chord_file):
        # nor the cross-check routes, Δb's recursion among them
        proc = module_run("-m", "succorder", *[arg.format(path=c5chord_file) for arg in argv])
        rows = importtime_tree(proc.stderr)
        for module in ("argparse", "gettext", "locale"):
            chain = importers(rows, module) or []
            assert not [name for name in chain if name.startswith("succorder")], (module, chain)
        loaded = {name for _, name in rows}
        assert "succorder.cli" in loaded and "succorder.crosscheck" not in loaded

    @pytest.mark.parametrize("module", ["dataclasses", "inspect", "numpy"])
    def test_no_package_module_imports(self, module):
        engine = "regular, randgraph, polynomial, counting, layers, graph, errors, cli, oracle"
        proc = module_run("-c", f"from succorder import {engine}")
        rows = importtime_tree(proc.stderr)
        assert (0, "succorder.polynomial") in rows
        chain = importers(rows, module) or []
        assert not [name for name in chain if name.startswith("succorder")], chain


class TestDeterminism:
    def test_byte_identical_documents(self, c5chord_file):
        for args in (
            ["count", c5chord_file, "--json"],
            ["poly", c5chord_file, "--json"],
            ["eval", c5chord_file, "--good", "1,2", "--bad", "0", "--json"],
            ["regular", c5chord_file, "--json"],
        ):
            first = run_cli(*args, check=True).stdout
            second = run_cli(*args, check=True).stdout
            assert first == second


#: Past the largest denominator the CLI prints, n! at n = 64: 64 * 64! bounds n * n! at n <= 64 too.
_MAX_DENOMINATOR = 64 * math.factorial(64)


@st.composite
def ratio_pairs(draw):
    """(num, den) with 0 <= num <= den <= 64 * 64!, often n! shaped and sharing factors."""
    den = draw(st.one_of(
        st.integers(1, _MAX_DENOMINATOR),
        st.integers(1, 64).map(math.factorial),
        st.integers(1, 64).map(lambda n: n * math.factorial(n)),
    ))
    step = draw(st.integers(1, min(den, 64)))
    num = draw(st.one_of(st.sampled_from((0, den)), st.integers(0, den // step).map(step.__mul__)))
    return num, den


class TestRatioText:
    """The CLI prints every ratio from two integers, without building a Fraction."""

    @settings(max_examples=300, deadline=None)
    @given(ratio_pairs())
    @example((0, 1))
    @example((1, 1))
    @example((0, _MAX_DENOMINATOR))
    @example((_MAX_DENOMINATOR, _MAX_DENOMINATOR))
    @example((math.factorial(64), _MAX_DENOMINATOR))
    def test_matches_str_of_fraction(self, pair):
        num, den = pair
        assert counting._ratio_text(num, den) == str(Fraction(num, den))


class TestExitCodeMapping:
    def test_internal_check_maps_to_2(self, monkeypatch, c5chord_file):
        def boom(_):
            raise InternalCheckError("fabricated")

        monkeypatch.setattr(counting, "sigma", boom)
        assert cli.main(["count", c5chord_file]) == 2

    def test_probability_range_check_maps_to_2(self, monkeypatch, c5chord_file):
        layer_weights = counting._layer_weights

        def tripled_empty_set(*args):
            sums = layer_weights(*args)
            return [3 * sums[0], *sums[1:]]

        monkeypatch.setattr(counting, "_layer_weights", tripled_empty_set)
        with pytest.raises(InternalCheckError, match=r"outside \[0, 1\]"):
            eval_partial(c5_chord(), 0, 0b01101)
        assert cli.main(["eval", c5chord_file, "--good", "0,2,3"]) == 2

    @pytest.mark.parametrize(
        "call, argv",
        [
            (lambda g: pr_good(g, 0b01101), ["--good", "0,2,3"]),
            (lambda g: eval_partial(g, 0, 0b01101), ["--good", "0,2,3"]),
            (lambda g: eval_partial(g, 0b00001, 0b01100), ["--bad", "0", "--good", "2,3"]),
        ],
        ids=["pr_good", "universe", "mixed"],
    )
    def test_corrupt_event_weight_maps_to_2(self, monkeypatch, capsys, c5chord_file, call, argv):
        # one unit too many at degree 1 would read as 409/600 and 27/200 over
        # n * n!; over n! it is no whole number of orderings
        layer_weights = counting._layer_weights

        def one_more_at_degree_1(*args):
            sums = layer_weights(*args)
            return [sums[0], sums[1] + 1, *sums[2:]]

        monkeypatch.setattr(counting, "_layer_weights", one_more_at_degree_1)
        message = "F coefficient at degree 1 is not integral"
        with pytest.raises(InternalCheckError, match=message):
            call(c5_chord())
        assert cli.main(["eval", c5chord_file, *argv]) == 2
        assert f"internal check failed: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, call, argv, message",
        [
            (lambda sums: [3 * sums[0], *sums[1:]], counting.sigma, ["count"],
             "constant coefficient of P_G must be 1"),
            (lambda sums: [sums[0] + 1, *sums[1:]], counting.sigma, ["count"],
             "F coefficient at degree 0 is not integral"),
            (lambda sums: [3 * sums[0], *sums[1:]], lambda g: eval_partial(g, 0, 0b01101),
             ["eval", "--good", "0,2,3"], "signed weight sum 161/60 outside [0, 1]"),
        ],
    )
    def test_count_and_eval_checks_keep_their_messages(
        self, monkeypatch, capsys, c5chord_file, edit, call, argv, message
    ):
        layer_weights = counting._layer_weights
        monkeypatch.setattr(counting, "_layer_weights", lambda *args: edit(layer_weights(*args)))
        with pytest.raises(InternalCheckError) as exc:
            call(c5_chord())
        assert str(exc.value) == message
        assert cli.main([argv[0], c5chord_file, *argv[1:]]) == 2
        assert f"internal check failed: {message}\n" in capsys.readouterr().err

    def test_verification_error_maps_to_3(self, monkeypatch, c5chord_file):
        def boom(_):
            raise VerificationError("fabricated")

        monkeypatch.setattr(counting, "sigma", boom)
        assert cli.main(["count", c5chord_file]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["count"],
            ["count", "{path}", "--bogus"],
            # int() and float() would read these as 10, 2, 1, 0.1, 3 and 9
            ["bench", "--n", "1_0"],
            ["bench", "--n", "+2"],
            ["bench", "--seed", "\u0661"],
            ["bench", "--density", "0_1"],
            ["verify", "{path}", "--seed", "\u0663"],
        ],
    )
    def test_usage_error_maps_to_1(self, argv, c5chord_file):
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(path=c5chord_file) for arg in argv])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([flag])
        assert exc.value.code == 0

    def test_removed_threads_flag_maps_to_1(self, c5chord_file):
        proc = run_cli("count", c5chord_file, "--threads", "0")
        assert proc.returncode == 1
        assert "unrecognized arguments: --threads" in proc.stderr


class TestArguments:
    """The command table parses argv and prints the usage."""

    def main_output(self, capsys, argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    def test_option_value_after_an_equals_sign(self, capsys, p3_file):
        spaced = self.main_output(capsys, ["eval", p3_file, "--good", "1,2", "--json"])
        joined = self.main_output(capsys, ["eval", p3_file, "--good=1,2", "--json"])
        assert spaced == joined
        assert json.loads(joined[1])["payload"]["good"] == [1, 2]

    def test_options_on_either_side_of_the_path(self, capsys, c5chord_file):
        before = self.main_output(capsys, ["count", "--json", c5chord_file])
        after = self.main_output(capsys, ["count", c5chord_file, "--json"])
        assert before == after
        assert json.loads(after[1])["payload"]["sigma"] == "60"

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--help"], ["count", "poly", "distribution", "eval", "delete", "regular", "verify",
                          "bench"]),
            (["eval", "-h"], ["--good", "--bad"]),
        ],
    )
    def test_help_names_the_commands_and_options(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: succorder")
        assert all(name in out for name in names)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "succorder 0.1.0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{path}", "--good"],
            ["bogus", "{path}"],
            ["count", "{path}", "{path}"],
            ["count", "{path}", "--json=1"],
        ],
        ids=["option-without-value", "unknown-command", "second-path", "flag-with-value"],
    )
    def test_usage_errors_exit_1_with_the_usage(self, capsys, argv, c5chord_file):
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(path=c5chord_file) for arg in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: succorder")
        assert "error: " in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "succorder: error: the following arguments are required: command\n"),
            (["--json", "count", "{path}"], "succorder: error: unrecognized arguments: --json\n"),
        ],
        ids=["no-command", "option-before-command"],
    )
    def test_usage_error_messages(self, capsys, argv, message, c5chord_file):
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(path=c5chord_file) for arg in argv])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(message)

    def test_path_starting_with_a_dash_after_double_dash(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "-c5.txt").write_text(C5_CHORD_TEXT)
        monkeypatch.chdir(tmp_path)
        code, out = self.main_output(capsys, ["count", "--json", "--", "-c5.txt"])
        assert code == 0
        assert json.loads(out)["payload"]["sigma"] == "60"

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch, c5chord_file):
        # the console script succorder.cli:main calls main() with no argument
        monkeypatch.setattr(sys, "argv", ["succorder", "count", c5chord_file, "--json"])
        code, out = self.main_output(capsys, None)
        assert code == 0
        assert json.loads(out)["payload"]["sigma"] == "60"
