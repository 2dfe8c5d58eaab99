from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causelab import (
    Meter,
    actual_causes,
    datalog,
    model,
    necessary_sets,
    parse_program,
    parse_query,
    problem_for_instance,
)
from causelab.cli import build_parser, load_instance, main
from causelab.oracles import LATTICE_CAP

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


def test_causes_holds_through_an_exogenous_witness(tmp_path, capsys):
    # no cause, yet the query holds: the second join answers query_holds
    instance = tmp_path / "exo.json"
    instance.write_text(
        json.dumps(
            {
                "schemas": [{"name": "R", "arity": 2}, {"name": "S", "arity": 1}],
                "endogenous": [["R", "a1", "a4"]],
                "exogenous": [["R", "a2", "a1"], ["S", "a1"]],
            }
        )
    )
    query = tmp_path / "q.dl"
    query.write_text("q() :- R(X, Y), S(Y).\n")
    code, out, _ = run(capsys, "causes", "-i", str(instance), "-q", str(query))
    assert code == 0
    assert json.loads(out) == {"query_holds": True, "causes": []}


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


def test_diagnose_runs_one_join(in_data_dir, capsys, monkeypatch):
    # the problem's witness parts both flag vacuity and give the diagnoses
    calls = []
    matches = model.matches

    def counted(*args):
        calls.append(args)
        return matches(*args)

    monkeypatch.setattr(model, "matches", counted)
    code, _, _ = run(capsys, "diagnose", "-i", D0, "-q", Q0)
    assert code == 0
    assert len(calls) == 1


def test_causes_runs_one_join(in_data_dir, capsys, monkeypatch):
    # a query with a cause holds, so the witnesses answer query_holds too
    calls = []
    matches = model.matches

    def counted(*args):
        calls.append(args)
        return matches(*args)

    monkeypatch.setattr(model, "matches", counted)
    code, out, _ = run(capsys, "causes", "-i", D0, "-q", Q0)
    assert code == 0
    assert json.loads(out)["query_holds"] is True
    assert len(calls) == 1


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


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "first, second",
    [
        (["abduce", "-i", "t0.json", "-p", "t0_prog.dl", "--obs", "T(a, b)"],
         ["abduce", "-i", "t0.json", "-p", "t0_prog.dl"]),
        (["repairs", "-i", D0, "-c", K0, "--endogenous-only"], ["repairs", "-i", D0, "-c", K0]),
    ],
    ids=["abduce-obs", "repairs-endogenous-only"],
)
def test_consecutive_calls_do_not_leak_options(in_data_dir, capsys, first, second):
    # the parser is kept for the process; each call must still start from
    # the defaults
    code, alone, _ = run(capsys, *second)
    assert code == 0
    code, with_option, _ = run(capsys, *first)
    assert code == 0 and with_option != alone
    code, after, _ = run(capsys, *second)
    assert code == 0
    assert after == alone
    assert json.loads(after).get("observations", [["ans"]]) == [["ans"]]
    assert "endogenous_only" not in json.loads(after)


def test_check_fixtures_only(in_data_dir, capsys):
    code, out, _ = run(capsys, "check", "--trials", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {r["property"] for r in payload["reports"]} == {
        "fixtures.demo-exact-values",
        "fixtures.demo-route-agreement",
        "fixtures.transitive-closure",
    }


def test_fixtures_only_option_is_gone(capsys):
    # check --trials 0 prints the fixture reports alone
    code, out, _ = run(capsys, "check", "--fixtures-only")
    assert code == 1
    assert out == ""


def test_check_small_corpus(in_data_dir, capsys):
    code, out, _ = run(capsys, "check", "--seed", "2", "--trials", "5", "--max-size", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(not r["failures"] for r in payload["reports"])


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--trials", "-1", "must not be negative", id="--trials"),
        pytest.param("--max-size", "-1", "must not be negative", id="--max-size"),
        pytest.param(
            "--max-size", str(LATTICE_CAP + 1), f"at most {LATTICE_CAP}", id="--max-size-above-cap"
        ),
    ],
)
def test_negative_check_arguments_exit_1(capsys, flag, value, message):
    code, out, err = run(capsys, "check", flag, value)
    assert code == 1
    assert out == ""
    assert message in err


def test_table_format(in_data_dir, capsys):
    code, out, _ = run(capsys, "causes", "-i", D0, "-q", Q0, "--format", "table")
    assert code == 0
    assert "responsibility" in out and "R(a2, a1)" in out


def test_table_tells_no_sets_from_one_empty_set(tmp_path, capsys):
    # the background alone entails the answer: the one solution is empty,
    # and so there is no necessary set
    instance = tmp_path / "instance.json"
    instance.write_text(
        json.dumps(
            {
                "schemas": [{"name": "R", "arity": 2}, {"name": "S", "arity": 1}],
                "endogenous": [],
                "exogenous": [["R", "a", "b"], ["S", "b"]],
            }
        )
    )
    program = tmp_path / "p.dl"
    program.write_text("ans() :- R(X, Y), S(Y).\n")
    argv = ["abduce", "-i", str(instance), "-p", str(program), "--format", "table"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[:2] == ["solutions: {}", "necessary sets: none"]


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


@pytest.mark.parametrize(
    "document",
    [
        {"schemas": [["x" * 10**6]]},
        {"schemas": "x" * 10**6},
        {"schemas": [], "endogenous": [["R", "a" * 10**6, 7]]},
        {"schemas": [json.loads("[" * 500 + "]" * 500)]},
    ],
    ids=["schema", "field", "fact", "nested-schema"],
)
def test_a_huge_malformed_value_prints_one_short_error_line(
    in_data_dir, tmp_path, capsys, document
):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(document))
    code, out, err = run(capsys, "causes", "-i", str(broken), "-q", Q0)
    assert (code, out) == (2, "")
    assert err.startswith("causelab: parse error: ") and err.endswith("...\n")
    assert err.count("\n") == 1 and len(err) < 200


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


@pytest.mark.parametrize(
    "document, message",
    [
        (
            {"schemas": [], "endogenous": [["Q", "a"], ["P", "b"], ["Z", "c"], ["X", "d"]]},
            "schema error: fact P(b) uses the undeclared relation 'P'",
        ),
        (
            {
                "schemas": [{"name": n, "arity": k} for n in "QPZX" for k in (1, 2)],
                "endogenous": [],
            },
            "validation error: relation 'P' is declared twice",
        ),
    ],
    ids=["undeclared", "declared-twice"],
)
def test_instance_errors_do_not_depend_on_the_hash_seed(in_data_dir, tmp_path, document, message):
    # each error names its smallest offender in canonical order, not the
    # first one met in set iteration order
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(document))
    src = str(Path(__file__).resolve().parents[1] / "src")
    results = set()
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "causelab.cli", "causes", "-i", str(broken), "-q", Q0],
            capture_output=True,
            text=True,
            env=env,
        )
        results.add((proc.returncode, proc.stderr))
    assert results == {(2, f"causelab: {message}\n")}


def test_undeclared_query_relation_exits_2(in_data_dir, tmp_path, capsys):
    query = tmp_path / "alien.dl"
    query.write_text("q() :- Z(X).")
    assert run(capsys, "causes", "-i", D0, "-q", str(query))[0] == 2


@pytest.mark.parametrize(
    "rule, message",
    [
        ("ans :- R(X, Y), Q(Y).", "query atom Q(Y) uses the undeclared relation 'Q'"),
        ("ans :- R(X).", "query atom R(X) has arity 1, but 'R' is declared with arity 2"),
    ],
    ids=["undeclared", "wrong-arity"],
)
def test_undeclared_program_relation_exits_2(in_data_dir, tmp_path, capsys, rule, message):
    # a schema error, as for a query, not the unentailed observation's exit 4
    program = tmp_path / "alien.dl"
    program.write_text(rule)
    assert run(capsys, "abduce", "-i", D0, "-p", str(program)) == (
        2, "", f"causelab: schema error: {message}\n"
    )


@pytest.mark.parametrize(
    "observations, message",
    [
        (["anz"], "observation anz uses the undeclared relation 'anz'"),
        (
            ["R(a1, a4, a5)"],
            "observation R(a1, a4, a5) has arity 3, but 'R' is declared with arity 2",
        ),
        (["ans(a)"], "observation ans(a) has arity 1, but 'ans' is declared with arity 0"),
        # the smaller of two bad observations in canonical order, whatever the hash seed
        (
            ["anz", "R(a1, a4, a5)"],
            "observation R(a1, a4, a5) has arity 3, but 'R' is declared with arity 2",
        ),
    ],
    ids=["undeclared", "wrong-arity", "head-at-wrong-arity", "smallest-of-two"],
)
def test_observation_outside_the_schema_exits_2(in_data_dir, capsys, observations, message):
    # a misspelled or misshapen observation is a schema error, not exit 4
    argv = [arg for o in observations for arg in ("--obs", o)]
    assert run(capsys, "abduce", "-i", D0, "-p", PROG0, *argv) == (
        2, "", f"causelab: schema error: {message}\n"
    )


def test_observation_inside_the_schema_keeps_its_exit(in_data_dir, tmp_path, capsys):
    assert run(capsys, "abduce", "-i", D0, "-p", PROG0, "--obs", "R(a1, a4)")[0] == 0
    not_entailed = (
        4, "", "causelab: domain error: the observations are not entailed even with every "
        "hypothesis included\n"
    )
    assert run(capsys, "abduce", "-i", D0, "-p", PROG0, "--obs", "S(a9)") == not_entailed
    # the default answer atom is not user input: without an ans rule it is just not entailed
    program = tmp_path / "no_ans.dl"
    program.write_text("T(X) :- S(X).")
    assert run(capsys, "abduce", "-i", D0, "-p", str(program)) == not_entailed


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
    # Problem construction (the demand fixpoint and the minimal supports)
    # spends 227 units and the hitting sets 21: each fits in 240, the
    # request not.
    _, instance, program = _chain(tmp_path, 20)
    parsed, loaded = parse_program(Path(program).read_text()), load_instance(instance)
    with Meter() as meter:
        problem = problem_for_instance(parsed, loaded)
    assert meter.used == 227
    with Meter() as meter:
        necessary_sets(problem)
    assert meter.used == 21
    code, _, err = run(capsys, "abduce", "-i", instance, "-p", program, "--budget", "240")
    assert code == 3
    assert "budget of 240" in err
    code, _, _ = run(capsys, "abduce", "-i", instance, "-p", program, "--budget", "248")
    assert code == 0


def test_check_honours_the_budget(capsys):
    code, _, err = run(capsys, "check", "--trials", "5", "--budget", "2")
    assert code == 3
    assert "budget" in err


def _singleton_request(tmp_path):
    # 1060 counterfactual causes: every witness is one exogenous R fact and
    # its own endogenous S fact, so the one minimal hitting set holds all
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
    return "-i", str(instance), "-q", str(query)


def test_a_thousand_causes_exit_3_on_the_budget(tmp_path, capsys):
    # 1060 causes with 1059-fact contingency sets: 1060 * 1059 units for
    # the contingency sets alone, charged before any is built
    code, out, err = run(capsys, "causes", *_singleton_request(tmp_path))
    assert code == 3
    assert out == ""
    assert err.startswith("causelab: budget exceeded: ")
    assert " work units " in err
    assert err.count("\n") == 1


def test_a_thousand_fact_diagnosis_exits_0(tmp_path, capsys):
    # the search has no depth cap: the one diagnosis flags all 1060 S facts
    code, out, err = run(capsys, "diagnose", *_singleton_request(tmp_path))
    assert code == 0 and err == ""
    diagnoses = json.loads(out)["diagnoses"]
    assert len(diagnoses) == 1
    assert sorted(diagnoses[0]["abnormal"]) == sorted(["S", f"c{i}"] for i in range(1060))


def _long_body_request(tmp_path, head: str) -> tuple[str, str]:
    # one fact and a body of 1200 atoms, each of which it matches
    instance = tmp_path / "one.json"
    instance.write_text(
        json.dumps({"schemas": [{"name": "S", "arity": 1}], "endogenous": [["S", "a"]]})
    )
    body = tmp_path / "body.dl"
    body.write_text(f"{head} :- " + ", ".join(f"S(X{i})" for i in range(1200)) + ".\n")
    return str(instance), str(body)


def test_a_1200_atom_query_answers(tmp_path, capsys):
    # the join walks an explicit stack, so its depth is not Python's
    instance, query = _long_body_request(tmp_path, "q()")
    code, out, err = run(capsys, "causes", "-i", instance, "-q", query)
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "query_holds": True,
        "causes": [{"tuple": ["S", "a"], "responsibility": "1", "min_contingencies": [[]]}],
    }
    loaded, parsed = load_instance(instance), parse_query(Path(query).read_text())
    with Meter() as meter:
        actual_causes(loaded, parsed)
    assert meter.used == 1202


def test_abduce_with_a_1200_atom_rule_body_answers(tmp_path, capsys):
    instance, program = _long_body_request(tmp_path, "ans()")
    code, out, err = run(capsys, "abduce", "-i", instance, "-p", program)
    assert code == 0 and err == ""
    assert json.loads(out)["solutions"] == [[["S", "a"]]]


def test_deeply_nested_instance_json_is_a_parse_error(tmp_path, capsys):
    # json.loads recurses once per level and gives up long before 10^4
    instance = tmp_path / "deep.json"
    instance.write_text('{"schemas": ' + "[" * 10_000 + "]" * 10_000 + "}")
    query = tmp_path / "q.dl"
    query.write_text("q() :- S(X).\n")
    code, out, err = run(capsys, "causes", "-i", str(instance), "-q", str(query))
    assert code == 2
    assert out == ""
    assert err.startswith("causelab: parse error: ")
    assert "too deeply" in err
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
