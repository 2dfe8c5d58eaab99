from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causelab import datalog
from causelab.cli import main

D0 = "d0.json"
Q0 = "q0.dl"
K0 = "k0.dl"
PROG0 = "prog0.dl"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def in_data_dir(data_dir, monkeypatch):
    monkeypatch.chdir(data_dir)
    return data_dir


def test_causes_verb(in_data_dir, capsys):
    code, out, _ = run(capsys, "causes", "-i", D0, "-q", Q0)
    assert code == 0
    payload = json.loads(out)
    assert payload["query_holds"] is True
    assert len(payload["causes"]) == 4
    assert {c["responsibility"] for c in payload["causes"]} == {"1/2"}


def test_causes_flags_unanswered_query(in_data_dir, tmp_path, capsys):
    query = tmp_path / "never.dl"
    query.write_text("q() :- R(z9, X), S(X).\n")
    code, out, _ = run(capsys, "causes", "-i", D0, "-q", str(query))
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "query_holds": False,
        "causes": [],
        "note": "the query is false in this instance; there is no answer to explain",
    }


def test_responsibility_verb(in_data_dir, capsys):
    code, out, _ = run(capsys, "responsibility", "-i", D0, "-q", Q0, "--tuple", "S(a1)")
    assert code == 0
    assert json.loads(out) == {"tuple": ["S", "a1"], "responsibility": "1/2"}


def test_repairs_verb_both_semantics(in_data_dir, capsys):
    code, out, _ = run(capsys, "repairs", "-i", D0, "-c", K0, "--semantics", "s")
    assert code == 0
    assert len(json.loads(out)["repairs"]) == 4
    code, out, _ = run(capsys, "repairs", "-i", D0, "-c", K0, "--semantics", "c")
    assert code == 0
    payload = json.loads(out)
    assert payload["semantics"] == "C"
    assert len(payload["repairs"]) == 4


def test_repairs_endogenous_only(in_data_dir, capsys):
    code, out, _ = run(capsys, "repairs", "-i", D0, "-c", K0, "--endogenous-only")
    assert code == 0
    payload = json.loads(out)
    assert payload["endogenous_only"] is True
    assert len(payload["repairs"]) == 4


def test_cqa_verb(in_data_dir, capsys):
    code, out, _ = run(capsys, "cqa", "-i", D0, "-c", K0, "--atom", "R(a1, a4)")
    assert code == 0
    assert json.loads(out)["consistently_true"] is True
    code, out, _ = run(capsys, "cqa", "-i", D0, "-c", K0, "--atom", "S(a1)")
    assert json.loads(out)["consistently_true"] is False


def test_diagnose_verb(in_data_dir, capsys):
    code, out, _ = run(capsys, "diagnose", "-i", D0, "-q", Q0)
    assert code == 0
    payload = json.loads(out)
    assert payload["vacuous"] is False
    assert len(payload["diagnoses"]) == 4


def test_abduce_verb(in_data_dir, capsys):
    code, out, _ = run(capsys, "abduce", "-i", D0, "-p", PROG0)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["solutions"]) == 2
    assert len(payload["relevant_hypotheses"]) == 4
    assert all(h["responsibility"] == "1/2" for h in payload["relevant_hypotheses"])
    assert len(payload["necessary_sets"]) == 4


def test_abduce_runs_one_fixpoint(in_data_dir, capsys, monkeypatch):
    # the problem's minimal supports both check the observations and give
    # the solutions
    calls = []
    seminaive = datalog._seminaive

    def counted(*args):
        calls.append(args)
        return seminaive(*args)

    monkeypatch.setattr(datalog, "_seminaive", counted)
    code, _, _ = run(capsys, "abduce", "-i", D0, "-p", PROG0)
    assert code == 0
    assert len(calls) == 1


def test_abduce_recursive_program(in_data_dir, capsys):
    code, out, _ = run(capsys, "abduce", "-i", "t0.json", "-p", "t0_prog.dl")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"] == [[["E", "a", "b"], ["E", "b", "c"]]]
    assert all(h["responsibility"] == "1" for h in payload["relevant_hypotheses"])


def test_abduce_with_explicit_observation(in_data_dir, capsys):
    code, out, _ = run(
        capsys, "abduce", "-i", "t0.json", "-p", "t0_prog.dl", "--obs", "T(a, c)"
    )
    assert code == 0
    assert json.loads(out)["observations"] == [["T", "a", "c"]]


def test_check_fixtures_only(in_data_dir, capsys):
    code, out, _ = run(capsys, "check", "--fixtures-only")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {r["property"] for r in payload["reports"]} == {
        "fixtures.demo-exact-values",
        "fixtures.demo-route-agreement",
        "fixtures.transitive-closure",
    }


def test_check_small_corpus(in_data_dir, capsys):
    code, out, _ = run(capsys, "check", "--seed", "2", "--trials", "5", "--max-size", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(not r["failures"] for r in payload["reports"])


@pytest.mark.parametrize("flag", ["--trials", "--max-size"])
def test_negative_check_arguments_exit_1(capsys, flag):
    code, out, err = run(capsys, "check", flag, "-1")
    assert code == 1
    assert out == ""
    assert "must not be negative" in err


def test_table_format(in_data_dir, capsys):
    code, out, _ = run(capsys, "causes", "-i", D0, "-q", Q0, "--format", "table")
    assert code == 0
    assert "responsibility" in out and "R(a2, a1)" in out


def _write_instance(tmp_path, schemas: dict[str, int], endogenous: list[list[str]]) -> str:
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps(
            {
                "schemas": [{"name": n, "arity": a} for n, a in schemas.items()],
                "endogenous": endogenous,
                "exogenous": [],
            }
        )
    )
    return str(path)


def test_table_facts_read_back_as_tuples(tmp_path, capsys):
    instance = _write_instance(tmp_path, {"S": 1}, [["S", "Upper case"]])
    query = tmp_path / "q.dl"
    query.write_text("q() :- S(X).\n")
    code, out, _ = run(capsys, "causes", "-i", instance, "-q", str(query), "--format", "table")
    assert code == 0
    cause = out.splitlines()[1].split("  ")[0]
    assert cause == 'S("Upper case")'
    code, out, _ = run(capsys, "responsibility", "-i", instance, "-q", str(query), "--tuple", cause)
    assert code == 0
    assert json.loads(out)["responsibility"] == "1"


def test_repairs_and_diagnoses_share_the_canonical_order(tmp_path, capsys):
    instance = _write_instance(
        tmp_path, {"R": 1, "S": 2}, [["R", "a"], ["R", "it's"], ["S", "a", "it's"]]
    )
    constraints = tmp_path / "k.dl"
    constraints.write_text(":- R(X), R(Y), S(X, Y).\n")
    query = tmp_path / "q.dl"
    query.write_text("q() :- R(X), R(Y), S(X, Y).\n")
    expected = [[["R", "a"]], [["R", "it's"]], [["S", "a", "it's"]]]
    code, out, _ = run(capsys, "repairs", "-i", instance, "-c", str(constraints))
    assert code == 0
    assert [r["removed"] for r in json.loads(out)["repairs"]] == expected
    code, out, _ = run(capsys, "diagnose", "-i", instance, "-q", str(query))
    assert code == 0
    assert [d["abnormal"] for d in json.loads(out)["diagnoses"]] == expected


def test_usage_error_exits_1(in_data_dir, capsys):
    assert run(capsys, "causes", "-i", D0)[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_parse_error_exits_2(in_data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.dl"
    bad.write_text("q() :- R(X,, Y).")
    code, _, err = run(capsys, "causes", "-i", D0, "-q", str(bad))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"schemas": 5}',
        '{"schemas": [], "endogenous": null}',
        '{"schemas": [], "exogenous": "R"}',
    ],
)
def test_malformed_instance_json_exits_2(in_data_dir, tmp_path, capsys, text):
    broken = tmp_path / "broken.json"
    broken.write_text(text)
    code, _, err = run(capsys, "causes", "-i", str(broken), "-q", Q0)
    assert code == 2
    assert "must be a list" in err


def test_arity_mismatch_exits_2(in_data_dir, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(
        '{"schemas":[{"name":"R","arity":2}],"endogenous":[["R","a"]],"exogenous":[]}'
    )
    code, _, err = run(capsys, "causes", "-i", str(broken), "-q", Q0)
    assert code == 2


def test_overlapping_parts_exit_2(in_data_dir, tmp_path, capsys):
    broken = tmp_path / "overlap.json"
    broken.write_text(
        '{"schemas":[{"name":"R","arity":1}],"endogenous":[["R","a"]],"exogenous":[["R","a"]]}'
    )
    assert run(capsys, "causes", "-i", str(broken), "-q", Q0)[0] == 2


def test_undeclared_query_relation_exits_2(in_data_dir, tmp_path, capsys):
    query = tmp_path / "alien.dl"
    query.write_text("q() :- Z(X).")
    assert run(capsys, "causes", "-i", D0, "-q", str(query))[0] == 2


def test_budget_exhaustion_exits_3(in_data_dir, capsys):
    code, _, err = run(capsys, "repairs", "-i", D0, "-c", K0, "--budget", "2")
    assert code == 3
    assert "budget" in err


def test_budget_env_var(in_data_dir, capsys, monkeypatch):
    monkeypatch.setenv("CAUSELAB_BUDGET", "2")
    assert run(capsys, "repairs", "-i", D0, "-c", K0)[0] == 3
    # an explicit flag wins over the environment
    assert run(capsys, "repairs", "-i", D0, "-c", K0, "--budget", "100000")[0] == 0
    monkeypatch.setenv("CAUSELAB_BUDGET", "not-a-number")
    assert run(capsys, "repairs", "-i", D0, "-c", K0)[0] == 1


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_budget_flag_exits_1(in_data_dir, capsys, value):
    code, _, err = run(capsys, "repairs", "-i", D0, "-c", K0, "--budget", value)
    assert code == 1
    assert "positive" in err


def test_non_integer_budget_flag_exits_1(in_data_dir, capsys):
    code, _, err = run(capsys, "repairs", "-i", D0, "-c", K0, "--budget", "lots")
    assert code == 1
    assert "--budget must be an integer" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_budget_env_var_exits_1(in_data_dir, capsys, monkeypatch, value):
    monkeypatch.setenv("CAUSELAB_BUDGET", value)
    code, _, err = run(capsys, "repairs", "-i", D0, "-c", K0)
    assert code == 1
    assert "positive" in err


def _chain(tmp_path, n: int) -> tuple[list[list[str]], str, str]:
    edges = [["E", f"v{i}", f"v{i + 1}"] for i in range(n)]
    instance = tmp_path / "chain.json"
    instance.write_text(
        json.dumps({"schemas": [{"name": "E", "arity": 2}], "endogenous": edges, "exogenous": []})
    )
    program = tmp_path / "tc.dl"
    program.write_text(f"T(X, Y) :- E(X, Y).\nT(X, Y) :- E(X, Z), T(Z, Y).\nans :- T(v0, v{n}).\n")
    return edges, str(instance), str(program)


def test_abduce_on_160_edge_chain_within_default_budget(tmp_path, capsys):
    edges, instance, program = _chain(tmp_path, 160)
    code, out, _ = run(capsys, "abduce", "-i", instance, "-p", program)
    assert code == 0
    (solution,) = json.loads(out)["solutions"]
    assert sorted(solution) == sorted(edges)


def test_budget_caps_the_whole_request(tmp_path, capsys):
    # Problem construction (the fixpoint and the minimal supports) spends
    # 484 units and the hitting sets 21: each fits in 500, the request not.
    _, instance, program = _chain(tmp_path, 20)
    code, _, err = run(capsys, "abduce", "-i", instance, "-p", program, "--budget", "500")
    assert code == 3
    assert "budget of 500" in err


def test_check_honours_the_budget(capsys):
    code, _, err = run(capsys, "check", "--trials", "5", "--budget", "2")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("verb", ["causes", "diagnose"])
def test_recursion_limit_exits_3(tmp_path, capsys, verb):
    # 1060 counterfactual causes: the hitting-set search recurses once per
    # cause, past Python's default recursion limit
    n = 1060
    instance = tmp_path / "singletons.json"
    instance.write_text(
        json.dumps(
            {
                "schemas": [{"name": "R", "arity": 2}, {"name": "S", "arity": 1}],
                "endogenous": [["S", f"c{i}"] for i in range(n)],
                "exogenous": [["R", f"a{i}", f"c{i}"] for i in range(n)],
            }
        )
    )
    query = tmp_path / "q.dl"
    query.write_text("q() :- R(X, Y), S(Y).\n")
    code, out, err = run(capsys, verb, "-i", str(instance), "-q", str(query))
    assert code == 3
    assert out == ""
    assert err.startswith("causelab: budget exceeded: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_domain_error_exits_4(in_data_dir, capsys):
    code, _, err = run(
        capsys, "responsibility", "-i", D0, "-q", Q0, "--tuple", "S(a9)"
    )
    assert code == 4
    assert "domain error" in err


def test_cqa_foreign_atom_exits_4(in_data_dir, capsys):
    assert run(capsys, "cqa", "-i", D0, "-c", K0, "--atom", "S(zz)")[0] == 4


def test_endogenous_only_requires_s_semantics(in_data_dir, capsys):
    code, _, err = run(
        capsys, "repairs", "-i", D0, "-c", K0, "--semantics", "c", "--endogenous-only"
    )
    assert code == 1
    assert err.startswith("causelab: error: --endogenous-only")


def test_console_entry_point(in_data_dir):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "causelab.cli", "cqa", "-i", D0, "-c", K0, "--atom", "R(a1, a4)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["consistently_true"] is True
