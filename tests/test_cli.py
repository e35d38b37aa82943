import argparse
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import mdlp
from mdlp import indexcalc
from mdlp.arith import Factorization
from mdlp.cli import build_parser, main
from mdlp.instance import dumps, generate, make_instance, to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(dumps(make_instance(35, [13, 19], witness=(3, 1))))
    return str(path)


class TestGen:
    def test_writes_valid_instance(self, capsys, tmp_path):
        out_path = tmp_path / "inst.json"
        code, doc = run_json(
            capsys, "gen", "--seed", "1", "--bits", "14", "--t", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert doc["exit_status"] == 0
        assert doc["result"]["hardness"]["verdict"]
        code2, _ = run_json(capsys, "validate", str(out_path))
        assert code2 == 0

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--seed", "9", "--bits", "13", "--out", str(a))
        run(capsys, "gen", "--seed", "9", "--bits", "13", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_require_flags(self, capsys, tmp_path):
        out_path = tmp_path / "hard.json"
        code, doc = run_json(
            capsys, "gen", "--seed", "5", "--bits", "14",
            "--require-collapse-resistant", "--require-peel-resistant",
            "--out", str(out_path),
        )
        assert code == 0
        assert doc["result"]["hardness"]["verdict"] == "resists-hsp-necessary-condition"

    def test_impossible_constraint_invalid(self, capsys, tmp_path):
        # t = 1 can never be collapse-resistant: refused at once, not after
        # the whole attempt budget.
        code, doc = run_json(capsys, "gen", "--seed", "9", "--bits", "32", "--t", "1",
                             "--require-collapse-resistant", "--out", str(tmp_path / "x.json"))
        assert code == doc["exit_status"] == 2
        assert "never collapse-resistant" in doc["error"]

    def test_order_product_below_two_to_the_t_invalid(self, capsys, tmp_path):
        for bound in ("0", "3", "-5"):
            code, doc = run_json(capsys, "gen", "--seed", "3", "--bits", "24", "--t", "2",
                                 "--max-order-product", bound,
                                 "--out", str(tmp_path / "x.json"))
            assert code == doc["exit_status"] == 2
            assert "at least 2**t = 4" in doc["error"]
        assert not (tmp_path / "x.json").exists()

    def test_zero_t_invalid(self, capsys, tmp_path):
        code, _ = run(capsys, "gen", "--seed", "1", "--t", "0",
                      "--out", str(tmp_path / "x.json"))
        assert code == 2


class TestValidate:
    def test_worked_example_report(self, capsys, example_file):
        code, doc = run_json(capsys, "validate", example_file)
        assert code == 0
        result = doc["result"]
        assert result["collapse"]["resistant"] is False
        assert result["collapse"]["collapse_exponent"] == {
            "residue": "7", "modulus": "12",
        }
        assert result["peel"]["resistant"] is True
        assert result["verdict"] == "collapse-vulnerable"

    def test_witness_required(self, capsys, tmp_path):
        doc = to_json_dict(make_instance(35, [13, 19], beta=22))
        path = tmp_path / "nowit.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert "witness" in out

    def test_tampered_beta(self, capsys, tmp_path):
        doc = to_json_dict(make_instance(35, [13, 19], witness=(3, 1)))
        doc["beta"] = "22"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_composite_factor(self, capsys, tmp_path):
        doc = to_json_dict(make_instance(35, [13, 19], witness=(3, 1)))
        doc["factors"] = [["35", 1]]
        path = tmp_path / "composite.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "validate", str(path))
        assert code == 2
        assert "listed factor 35 is not prime" in out["error"]

    def test_dependent_generators(self, capsys, tmp_path):
        # 13 and 13 over N = 35: each is a power of the other.
        doc = to_json_dict(make_instance(35, [13, 13], witness=(1, 1), check_independence=False))
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "solve"):
            code, out = run_json(capsys, command, str(path))
            assert code == 2
            assert "generator 0 to the power 1 is spanned by the others" in out["error"]

    def test_shared_prime_too_large_to_log_exits_three(self, capsys, tmp_path):
        # 4 and 9 share the prime order q, about 2**60, mod p = 2q + 1.
        p = 2 * 1152921504606849959 + 1
        doc = to_json_dict(make_instance(p, [4, 9], witness=(1, 1), check_independence=False))
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "solve"):
            code, out = run_json(capsys, command, str(path))
            assert code == 3
            assert "too large to log" in out["error"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        code, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_non_object_document(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2


class TestSolve:
    def test_auto_uses_collapse(self, capsys, example_file):
        # auto runs Pohlig-Hellman inside H on the collapsible example too.
        code, doc = run_json(capsys, "solve", example_file, "--strategy", "auto")
        assert code == 0
        assert doc["result"]["method"] == "sylow"
        assert doc["result"]["exponents"] == ["3", "1"]
        assert doc["work"] == 18

    def test_auto_solves_what_every_other_strategy_refuses(self, capsys, tmp_path):
        # N = p1 * p2 has 99 bits and the orders 2 * 4194319 and 2 * 4194329
        # share only the prime 2: collapse and peel do not apply, the MITM
        # table is over its cap and the exhaustive box over the budget.
        p1, p2 = 527770614508531, 633324737410237
        gens = [231430532596621194593704320678, 185352562789439527536802537963]
        inst = make_instance(Factorization(((p1, 1), (p2, 1))), gens, witness=(3957039, 7654322))
        assert inst.n.bit_length() == 99
        assert inst.orders == (2 * 4194319, 2 * 4194329)
        path = tmp_path / "wide.json"
        path.write_text(dumps(inst))
        code, doc = run_json(capsys, "solve", str(path))
        assert code == 0
        assert doc["result"]["method"] == "sylow"
        assert doc["result"]["exponents"] == ["3957039", "7654322"]
        assert doc["work"] == 7731
        for strategy, exit_status in (("collapse", 1), ("peel", 1), ("mitm", 3), ("exhaustive", 3)):
            code, doc = run_json(capsys, "solve", str(path), "--strategy", strategy)
            assert code == exit_status, strategy

    def test_auto_peels_when_a_shared_prime_is_over_the_cap(self, capsys, tmp_path):
        # Both orders are the prime q = 8388617, which divides p1 - 1 and
        # p2 - 1: g1 is 1 mod p2 and g2 is 1 mod p1. Inside H the table of
        # q's top level holds m**2 = 8392609 entries, over the memory cap,
        # so auto tries collapse (k1 != k2 mod q: no) and then peel, whose
        # logs mod p1 and mod p2 take one generator each.
        p1, p2 = 201326809, 218104043
        gens = [49945825848, 43909999142739811]
        inst = make_instance(Factorization(((p1, 1), (p2, 1))), gens, witness=(5000011, 1234567))
        assert inst.orders == (8388617, 8388617)
        path = tmp_path / "shared.json"
        path.write_text(dumps(inst))
        code, doc = run_json(capsys, "solve", str(path))
        assert code == 0
        assert doc["result"]["method"] == "peel+recurse"
        assert doc["result"]["exponents"] == ["5000011", "1234567"]
        assert doc["work"] == 7952
        code, doc = run_json(capsys, "solve", str(path), "--strategy", "collapse")
        assert code == 1

    def test_exhaustive_same_answer(self, capsys, example_file):
        code, doc = run_json(capsys, "solve", example_file,
                             "--strategy", "exhaustive")
        assert code == 0
        assert doc["result"]["exponents"] == ["3", "1"]
        assert doc["work"] is not None

    def test_not_found_exit_one(self, capsys, tmp_path):
        path = tmp_path / "outside.json"
        path.write_text(dumps(make_instance(35, [13], beta=19)))
        code, doc = run_json(capsys, "solve", str(path))
        assert code == 1
        assert doc["result"] == {"found": False}

    def test_budget_exhaustion_exit_three(self, capsys, tmp_path):
        path = tmp_path / "blocked.json"
        path.write_text(dumps(make_instance(35, [13, 19], witness=(1, 0))))
        code, doc = run_json(capsys, "solve", str(path), "--budget", "1")
        assert code == 3
        assert doc["exit_status"] == 3
        assert "exceeds budget 1" in doc["error"]

    def test_peel_over_budget_exit_three(self, capsys, tmp_path):
        # 211 = 1 mod 35 and 353 = 1 mod 11, so peel applies
        path = tmp_path / "peelable.json"
        path.write_text(dumps(make_instance(385, [211, 353], witness=(7, 5))))
        code, doc = run_json(capsys, "solve", str(path), "--strategy", "peel", "--budget", "0")
        assert code == 3
        assert doc["exit_status"] == 3
        assert "exceeds budget 0" in doc["error"]


class TestTable:
    def test_published_cells_csv(self, capsys):
        code, out = run(capsys, "table", "--n", "35", "--g1", "13", "--g2", "19",
                        "--k1-range", "1..4", "--k2-range", "1..3")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        cells = [list(map(int, l.split(",")[1:])) for l in lines[1:]]
        assert cells == [[2, 26, 23, 19], [3, 4, 17, 11], [22, 6, 8, 34]]
        assert "note" not in out

    def test_row_four_with_footnote(self, capsys):
        code, out = run(capsys, "table", "--n", "35", "--g1", "13", "--g2", "19",
                        "--k1-range", "1..4", "--k2-range", "4..4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "4,33,9,12,16"
        assert any(l.startswith("# note:") for l in lines)

    def test_markdown_format(self, capsys):
        code, out = run(capsys, "table", "--n", "35", "--g1", "13", "--g2", "19",
                        "--k1-range", "1..2", "--k2-range", "1..2",
                        "--format", "markdown")
        assert code == 0
        assert out.splitlines()[0].startswith("| k2\\k1 |")

    def test_all_ones(self, capsys):
        code, out = run(capsys, "table", "--n", "35", "--g1", "1", "--g2", "1",
                        "--k1-range", "1..3", "--k2-range", "1..2")
        assert code == 0
        rows = [l.split(",")[1:] for l in out.strip().splitlines()[1:]]
        assert rows == [["1", "1", "1"], ["1", "1", "1"]]

    def test_bad_range(self, capsys):
        code, _ = run(capsys, "table", "--n", "35", "--g1", "13", "--g2", "19",
                      "--k1-range", "4..1", "--k2-range", "1..3")
        assert code == 2

    def test_output_budget(self, capsys):
        code, _ = run(capsys, "table", "--n", "35", "--g1", "13", "--g2", "19",
                      "--k1-range", "1..1000", "--k2-range", "1..1000")
        assert code == 3


class TestIndexCalcCommands:
    def test_indexcalc(self, capsys):
        code, doc = run_json(capsys, "indexcalc", "--p", "107", "--alpha", "2",
                             "--beta", "61", "--bound", "7")
        assert code == 0
        assert doc["result"] == {"log": "10", "verified": True}

    def test_indexcalc_order_too_small_exits_three(self, capsys):
        def no_trial(*args):
            raise AssertionError("smoothness trial run for an unreachable count")

        with mock.patch.object(indexcalc, "_smooth_draws", no_trial):
            code, doc = run_json(capsys, "indexcalc", "--p", "107", "--alpha", "106",
                                 "--beta", "106", "--bound", "7")
            # The patched name is on the trial path of a log that runs one.
            with pytest.raises(AssertionError, match="smoothness trial run"):
                indexcalc.dlp_via_index_calculus(107, 2, 61, bound=7)
        assert code == 3
        assert "has order 2 mod 107" in doc["error"]

    def test_indexcalc_beta_outside_group_exits_two(self, capsys):
        code, doc = run_json(capsys, "indexcalc", "--p", "1009", "--alpha", "2",
                             "--beta", "11", "--bound", "7")
        assert code == 2
        assert "beta=11 is outside the group generated by alpha=2" in doc["error"]

    def test_indexcalc_composite_p(self, capsys):
        code, _ = run(capsys, "indexcalc", "--p", "105", "--alpha", "2",
                      "--beta", "8")
        assert code == 2

    def test_rankdemo_same_base(self, capsys):
        code, doc = run_json(capsys, "rankdemo", "--p", "107", "--alpha", "2",
                             "--alpha2", "2", "--g", "3,5", "--beta", "15")
        assert code == 0
        assert doc["result"]["factors"] == ["1", "1"]
        assert doc["result"]["proportional"] is True

    def test_rankdemo_shifted_base(self, capsys):
        code, doc = run_json(capsys, "rankdemo", "--p", "107", "--alpha", "2",
                             "--alpha2", "32", "--g", "3,5", "--beta", "15")
        assert code == 0
        assert doc["result"]["factors"] == ["1", "5"]
        assert all(r == 1 for r in doc["result"]["ranks"].values())

    def test_rankdemo_composite_p(self, capsys):
        code, doc = run_json(capsys, "rankdemo", "--p", "35", "--alpha", "2",
                             "--alpha2", "32", "--g", "4,16", "--beta", "8")
        assert code == doc["exit_status"] == 2
        assert "35 is composite" in doc["error"]


class TestSurface:
    def test_readme_lists_every_command(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        documented = [line.split()[1] for line in block.splitlines() if line.startswith("mdlp ")]
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(documented) == sorted(sub.choices)

    def test_star_import(self):
        namespace = {}
        exec("from mdlp import *", namespace)
        assert set(mdlp.__all__) <= namespace.keys()

    def test_bench_is_not_a_command(self, capsys):
        code, _ = run(capsys, "bench", "--suite", "quick")
        assert code == 2


class TestEntryPoint:
    def test_console_script_table(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mdlp.cli", "table", "--n", "35",
             "--g1", "13", "--g2", "19", "--k1-range", "1..4",
             "--k2-range", "1..3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "1,2,26,23,19" in proc.stdout

    def test_bad_flags_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mdlp.cli", "table", "--n", "35"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
