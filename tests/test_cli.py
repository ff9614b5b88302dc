"""Command-line interface tests: exit codes, report schema, option handling."""

import json

import pytest

from actionpairs import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_verify_gn3_passes(capsys):
    code, rep = run_json(capsys, "verify-presentation", "--family", "Gn",
                         "--n", "3")
    assert code == cli.EXIT_PASS
    assert rep["schema"] == "v1"
    assert rep["verdicts"]["presented_size"] == 6
    assert "node_cap" in rep["config"]


def test_verify_fl93_expected_failure(capsys):
    code, rep = run_json(capsys, "verify-presentation", "--family", "SubA",
                         "--instance", "fl93")
    assert code == cli.EXIT_FAIL
    assert rep["verdicts"]["presented_size"] == 15
    assert rep["target_size"] == 12


def test_verify_fl93_enlarged_passes(capsys):
    code, rep = run_json(capsys, "verify-presentation", "--family",
                         "SubA_enlarged", "--instance", "fl93")
    assert code == cli.EXIT_PASS
    assert rep["verdicts"]["presented_size"] == 12


def test_verify_wreath_with_monoid(capsys):
    code, rep = run_json(capsys, "verify-presentation", "--family", "MwrPTn",
                         "--n", "2", "--monoid", "c2")
    assert code == cli.EXIT_PASS
    assert rep["target_size"] == 25


def test_verify_bad_input(capsys):
    code, _ = run(capsys, "verify-presentation", "--family", "Gn")
    assert code == cli.EXIT_BAD_INPUT
    code, _ = run(capsys, "verify-presentation", "--family", "nope", "--n", "2")
    assert code == cli.EXIT_BAD_INPUT


@pytest.mark.parametrize("extra", [(), ("--monoid", "c2")])
def test_verify_without_degree_is_bad_input(capsys, extra):
    fam = "Mn" if extra else "En"
    code, rep = run_json(capsys, "verify-presentation", "--family", fam, *extra)
    assert code == cli.EXIT_BAD_INPUT
    assert rep["error"] == f"{fam} needs a degree n"


def test_verify_model_families(capsys):
    code, rep = run_json(capsys, "verify-presentation", "--family",
                         "LX_truncated", "--alphabet", "xy", "--length", "2")
    assert code == cli.EXIT_PASS and rep["model_check"] is True


def test_show_relations(capsys):
    code, rep = run_json(capsys, "verify-presentation", "--family", "Gn",
                         "--n", "2", "--show-relations")
    assert code == cli.EXIT_PASS
    assert rep["relation_list"] == [["s1 s1", "1"]]


def test_classify_pair_text_and_json(capsys):
    code, rep = run_json(capsys, "classify-pair", "--ambient", "PT2",
                         "--U", "E2", "--S", "T")
    assert code == cli.EXIT_PASS
    assert rep["pair"]["strong"] is True and rep["pair"]["proper"] is False
    assert rep["product_size"] == 9
    # the default text format: one "key: value" line per field, and a nested
    # block under its key, indented two spaces
    code, out = run(capsys, "classify-pair", "--ambient", "PT2",
                    "--U", "E2", "--S", "T")
    assert code == cli.EXIT_PASS
    lines = out.splitlines()
    assert lines[:3] == ["schema: v1", "command: classify-pair", "config:"]
    assert "product_size: 9" in lines
    pair = lines[lines.index("pair:") + 1:]
    assert "  strong: True" in pair and "  proper: False" in pair


def test_classify_pair_with_cover_and_embed(capsys):
    code, rep = run_json(capsys, "classify-pair", "--ambient", "MwrPT2",
                         "--M", "c2", "--U", "Mn", "--S", "T",
                         "--cover", "--embed")
    assert code == cli.EXIT_PASS
    assert rep["cover"]["proper"] and rep["cover"]["surjective"]
    assert rep["embed"]["injective"] and rep["embed"]["homomorphic"]


def test_classify_pair_with_omega_rule(capsys):
    code, rep = run_json(capsys, "classify-pair", "--ambient", "PT2",
                         "--U", "M0n", "--S", "PT", "--omega", "submonoids")
    assert code == cli.EXIT_PASS
    assert rep["omega"]["matches_theta"] is True


def test_classify_pair_checks_each_context_once(capsys, monkeypatch):
    # the pair and the cover carrier are each checked and classified once;
    # the omega rule and the embedding read the report stored on the action
    from collections import Counter
    from actionpairs import actionpair as ap
    calls = Counter()
    for name in ("check_pair_from_plus", "classify_proper"):
        def counted(ctx, *args, _fn=getattr(ap, name), _name=name, **kw):
            calls[_name, ctx.name] += 1
            return _fn(ctx, *args, **kw)
        monkeypatch.setattr(ap, name, counted)
        monkeypatch.setattr(cli, name, counted)
    code, rep = run_json(capsys, "classify-pair", "--ambient", "MwrPT2",
                         "--M", "c2", "--U", "Mn", "--S", "T",
                         "--omega", "right_generators", "--cover", "--embed")
    assert code == cli.EXIT_PASS
    assert rep["omega"]["matches_theta"] and rep["embed"]["homomorphic"]
    pair = rep["pair"]["name"]
    assert calls == Counter({(name, ctx): 1
                             for name in ("check_pair_from_plus", "classify_proper")
                             for ctx in (pair, f"cover({pair})")})


def test_classify_pair_bad_inputs(capsys):
    code, _ = run(capsys, "classify-pair", "--ambient", "XX2",
                  "--U", "E", "--S", "T")
    assert code == cli.EXIT_BAD_INPUT
    code, _ = run(capsys, "classify-pair", "--ambient", "PT2",
                  "--U", "E3", "--S", "T")
    assert code == cli.EXIT_BAD_INPUT
    # SingT_1 is empty
    for u in ("E", "M0n"):
        code, rep = run_json(capsys, "classify-pair", "--ambient", "PT1",
                             "--U", u, "--S", "SingT")
        assert code == cli.EXIT_BAD_INPUT
        assert "S of" in rep["error"] and "is empty" in rep["error"]
    # a negative degree is refused by the transformation families, and the
    # error object is the same as for every other bad input
    code, rep = run_json(capsys, "classify-pair", "--ambient", "PT-1",
                         "--U", "E", "--S", "T")
    assert code == cli.EXIT_BAD_INPUT
    assert rep["command"] == "classify-pair" and rep["error"]


def test_starved_node_budget_is_inconclusive(capsys):
    import actionpairs.fmonoid as fm
    old = fm.NODE_CAP
    # a starved budget forces the inconclusive exit, never a pass
    code, rep = run_json(capsys, "verify-presentation", "--family", "Tn",
                         "--n", "4", "--bound", "40")
    assert code == cli.EXIT_BOUND
    assert rep["config"]["node_cap"] == 40
    assert rep["verdicts"]["size_match"] is None
    assert fm.NODE_CAP == old


def test_over_cap_wreath_target_exits_bound(capsys):
    code, rep = run_json(capsys, "verify-presentation", "--family", "MwrPTn",
                         "--n", "7", "--monoid", "c1")
    assert code == cli.EXIT_BOUND
    assert rep["command"] == "verify-presentation" and rep["error"]


def test_certified_infinite_presentation_exits_1(capsys, monkeypatch):
    import dataclasses
    from actionpairs import presentations as pr
    from actionpairs.fmonoid import Presentation
    gn3 = pr.build_catalog("Gn", n=3)
    # without the braid relation the involutions generate Z2 * Z2
    free = Presentation.make(gn3.pres.alphabet, gn3.pres.relations[:2])
    monkeypatch.setattr(pr, "build_catalog",
                        lambda *a, **kw: dataclasses.replace(gn3, pres=free))
    code, rep = run_json(capsys, "verify-presentation", "--family", "Gn",
                         "--n", "3")
    ver = rep["verdicts"]
    assert code == cli.EXIT_FAIL
    assert ver["infinite"] is True and ver["size_match"] is False
    assert ver["presented_size"] is None and ver["nodes"] == ver["node_budget"] // 4
    assert ver["completion_rules"] == 2 and ver["completion_overlaps"] == 2


def test_completion_orders_in_the_json_report(capsys):
    # at a 40-node cap Gn(3) passes the mark: its first completion finishes
    # finite and the enumeration closes; without the cap none runs
    code, rep = run_json(capsys, "verify-presentation", "--family", "Gn",
                         "--n", "3", "--bound", "40")
    assert code == cli.EXIT_PASS and rep["verdicts"]["completion_orders"] == 1
    code, rep = run_json(capsys, "verify-presentation", "--family", "Gn",
                         "--n", "3")
    assert code == cli.EXIT_PASS and rep["verdicts"]["completion_orders"] is None


def test_bound_applies_to_its_run_only(capsys):
    import actionpairs.fmonoid as fm
    from actionpairs import presentations as pr
    code, rep = run_json(capsys, "verify-presentation", "--family", "Gn",
                         "--n", "2", "--bound", "5")
    assert rep["config"]["node_cap"] == 5
    assert rep["verdicts"]["node_budget"] == 5
    assert fm.NODE_CAP == 5_000_000
    assert pr.build_catalog("Gn", n=3).verify().size_match is True


def test_classify_tuple_pair_strong(capsys):
    code, rep = run_json(capsys, "classify-pair", "--ambient", "MwrPT2",
                         "--M", "c2", "--U", "M0n", "--S", "T")
    assert code == cli.EXIT_PASS
    assert rep["pair"]["strong"] is True and rep["pair"]["proper"] is False


def test_custom_algebra_from_json(capsys, tmp_path):
    import json as _json
    path = tmp_path / "alg.json"
    path.write_text(_json.dumps({"carrier": 3, "ops": []}))
    code, rep = run_json(capsys, "verify-presentation", "--family", "SubA",
                         "--instance", str(path))
    assert code == cli.EXIT_PASS
    assert rep["verdicts"]["presented_size"] == 8   # the subset semilattice


def test_entry_point_runs(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])
    capsys.readouterr()


def test_classify_pair_omega_join_family_gets_catalogue_inputs(capsys):
    # the join rules need the family V that the catalogue supplies
    for s_kind, rule in (("G", "join_family"), ("T", "join_pairwise")):
        code, rep = run_json(capsys, "classify-pair", "--ambient", "PT2",
                             "--U", "E", "--S", s_kind, "--omega", rule)
        assert code == cli.EXIT_PASS
        assert rep["omega"]["hypotheses_ok"] is True, rule
        assert rep["omega"]["matches_theta"] is True, rule


def test_classify_pair_reports_no_node_cap(capsys):
    # no pair stage enumerates a presentation, so no node cap applies
    code, rep = run_json(capsys, "classify-pair", "--ambient", "PT2",
                         "--U", "E2", "--S", "T")
    assert code == cli.EXIT_PASS
    assert "node_cap" not in rep["config"] and "bound" not in rep["config"]
    assert rep["product_size"] == 9


def test_non_associative_monoid_file_is_bad_input(capsys, tmp_path):
    # a * b = a + 2b mod 3 is not associative; every entry is in range
    path = tmp_path / "magma.json"
    path.write_text(json.dumps({
        "size": 3, "gens": [0, 1, 2], "nf": [[0], [1], [2]],
        "table": [[(a + 2 * b) % 3 for b in range(3)] for a in range(3)]}))
    code, rep = run_json(capsys, "verify-presentation", "--family", "Mn",
                         "--n", "2", "--monoid", str(path))
    assert code == cli.EXIT_BAD_INPUT
    assert "associative" in rep["error"]


@pytest.mark.parametrize("doc", [
    [],
    {"size": 1, "gens": [0], "table": [[0]], "nf": [5]},
    {"size": 1, "gens": [0], "table": 5, "nf": [[]]},
])
def test_malformed_monoid_file_is_bad_input(capsys, tmp_path, doc):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "verify-presentation", "--family", "Mn",
                  "--n", "2", "--monoid", str(path))
    assert code == cli.EXIT_BAD_INPUT


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_classify_pair", broken)
    code = cli.main(["classify-pair", "--ambient", "PT2", "--U", "E", "--S", "T"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert json.loads(out)["error"] == "RuntimeError: boom"
    assert "Traceback" in err and "boom" in err


def test_unusable_algebra_files_are_bad_input_or_over_the_cap(capsys, tmp_path):
    # a unary map merging 0 into 1 breaks the exchange property
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"carrier": 3, "ops": [{"arity": 1, "table": [1, 1, 2]}]}))
    code, _ = run(capsys, "verify-presentation", "--family", "SubA",
                  "--instance", str(path))
    assert code == cli.EXIT_BAD_INPUT
    code, _ = run(capsys, "verify-presentation", "--family", "SubA",
                  "--instance", str(tmp_path / "missing.json"))
    assert code == cli.EXIT_BAD_INPUT
    # malformed shapes, and values that are not ints (a float or a bool)
    for doc in ([], {"carrier": 2, "ops": 5}, {"carrier": 2.5, "ops": []},
                {"carrier": 2, "ops": [{"arity": "x", "table": [0, 1]}]},
                {"carrier": 2, "ops": [{"arity": 1, "table": ["a", 1]}]},
                {"carrier": 2, "ops": [{"arity": 1, "table": [0, 1.0]}]},
                {"carrier": 2, "ops": [{"arity": 1, "table": [0, True]}]},
                {"carrier": 2, "ops": [5]}):
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "verify-presentation", "--family", "SubA",
                      "--instance", str(path))
        assert code == cli.EXIT_BAD_INPUT, doc
    path.write_text(json.dumps({"carrier": 10,
                                "ops": [{"arity": 1, "table": list(range(10))}]}))
    code, _ = run(capsys, "verify-presentation", "--family", "SubA",
                  "--instance", str(path))
    assert code == cli.EXIT_BOUND


def test_omega_inputs_outside_the_pair_fail_the_hypotheses(capsys):
    # the catalogue's join_family inputs relate generators to an identity
    # that SingT lacks: a failed hypothesis, not bad input
    code, rep = run_json(capsys, "classify-pair", "--ambient", "PT2",
                         "--U", "E", "--S", "SingT", "--omega", "join_family")
    assert code == cli.EXIT_PASS
    assert rep["omega"]["hypotheses_ok"] is False
    assert rep["omega"]["matches_theta"] is None and rep["omega"]["failures"]


def test_unmet_omega_hypotheses_still_pass(capsys):
    code, rep = run_json(capsys, "classify-pair", "--ambient", "PT2",
                         "--U", "E", "--S", "G", "--omega", "join_pairwise")
    assert code == cli.EXIT_PASS
    assert rep["omega"]["hypotheses_ok"] is False


@pytest.mark.parametrize("stage", ["omega", "cover_onto", "cover_proper",
                                   "embed_injective", "embed_homomorphic"])
def test_failed_pair_verdicts_exit_1(capsys, monkeypatch, stage):
    # no catalogue pair fails these verdicts, so each is forced to fail
    import dataclasses
    from actionpairs import actionpair as ap
    field = {"omega": "matches_theta", "cover_onto": "surjective",
             "cover_proper": "proper", "embed_injective": "injective",
             "embed_homomorphic": "homomorphic"}[stage]
    name = {"omega": "omega_check", "cover": "proper_cover",
            "embed": "embed_central"}[stage.split("_")[0]]

    def forced(*args, _fn=getattr(ap, name), **kw):
        return dataclasses.replace(_fn(*args, **kw), **{field: False})
    monkeypatch.setattr(cli, name, forced)
    argv = ["classify-pair", "--ambient", "MwrPT2", "--M", "c2", "--U", "Mn",
            "--S", "T", "--omega", "right_generators", "--cover", "--embed"]
    assert run_json(capsys, *argv)[0] == cli.EXIT_FAIL
    monkeypatch.undo()
    code, rep = run_json(capsys, *argv)
    assert code == cli.EXIT_PASS
    assert rep["omega"]["matches_theta"] and rep["cover"]["surjective"]
    assert rep["embed"]["injective"] and rep["embed"]["homomorphic"]


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_node_budget_below_one_is_bad_input(capsys, bound):
    code, rep = run_json(capsys, "verify-presentation", "--family", "Gn",
                         "--n", "3", f"--bound={bound}")
    assert code == cli.EXIT_BAD_INPUT
    assert rep["command"] == "verify-presentation"
    assert rep["error"].startswith("--bound must be a positive integer")


def test_closed_stdout_keeps_the_verdict_exit_code(capsys):
    import os
    import subprocess
    import sys
    argv = ["classify-pair", "--ambient", "PT2", "--U", "E", "--S", "T",
            "--omega", "generic", "--cover", "--embed", "--format", "json"]
    verdict = cli.main(argv)
    capsys.readouterr()
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    p = subprocess.Popen([sys.executable, "-m", "actionpairs.cli", *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    p.stdout.close()            # the reader leaves before any output
    err = p.stderr.read().decode()
    p.stderr.close()
    assert p.wait(timeout=120) == verdict
    assert "Traceback" not in err and "BrokenPipeError" not in err
