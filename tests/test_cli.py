import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from glcenter import central, cli, shifted
from glcenter.central import nazarov_umeda_I, schur_element
from glcenter.cli import main
from glcenter.combinatorics import parse_partition
from glcenter.enveloping import element_from_json_obj
from glcenter.shifted import e_star, shifted_from_json


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_element_text_example(capsys):
    rc, out, err = run(capsys, "element", "--spec", "H:2@n=2", "--format", "text")
    assert rc == 0
    assert out == "e[2,2] + e[1,1]*e[2,2] - e[2,1]*e[1,2]\n"
    assert err == ""


def test_eigen_example(capsys):
    rc, out, _ = run(capsys, "eigen", "--spec", "S:2,1@n=2", "--mu", "2,1")
    assert rc == 0
    assert out == "3\n"


def test_eigen_json(capsys):
    rc, out, err = run(capsys, "eigen", "--spec", "S:2,1@n=2", "--mu", "2,1", "--format", "json")
    assert (rc, err) == (0, "")
    assert out == '{"kind": "eigenvalue", "mu": [2, 1], "spec": "S:2,1@n=2", "value": "3"}\n'


def test_eigen_flag_spelling(capsys):
    rc, out, _ = run(capsys, "eigen", "--lambda", "2,1", "--n", "2", "--mu", "2,1")
    assert rc == 0
    assert out == "3\n"
    rc, out, _ = run(capsys, "eigen", "--k", "1", "--n", "2", "--mu", "2,1")
    assert rc == 0
    assert out == "3\n"


def test_element_json_round_trip(capsys):
    rc, out, _ = run(capsys, "element", "--spec", "S:2,1@n=2", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "element"
    assert obj["n"] == 2
    assert obj["pbw_canonical"] is True
    assert element_from_json_obj(obj) == schur_element((2, 1), 2).body


def test_hc_json_round_trip(capsys):
    rc, out, _ = run(capsys, "hc", "--spec", "H:2@n=2", "--format", "json")
    assert rc == 0
    assert shifted_from_json(out) == e_star(2, 2)


def test_hc_text(capsys):
    rc, out, _ = run(capsys, "hc", "--spec", "I:1@n=2", "--format", "text")
    assert rc == 0
    assert out == "x1 + x2\n"


def test_dual_matches_element(capsys):
    rc, dual_out, _ = run(capsys, "dual", "--spec", "H:2@n=2")
    assert rc == 0
    rc, elem_out, _ = run(capsys, "element", "--spec", "I:2@n=2")
    assert rc == 0
    assert dual_out == elem_out


def test_dual_json(capsys):
    rc, out, _ = run(capsys, "dual", "--spec", "H:2@n=3", "--format", "json")
    assert rc == 0
    assert element_from_json_obj(json.loads(out)) == nazarov_umeda_I(2, 3).body


def test_project_drops_top_element(capsys):
    rc, out, _ = run(capsys, "project", "--spec", "CB:2 1|1 2@n=2", "--format", "text")
    assert rc == 0
    assert out == "0\n"
    rc, proj_out, _ = run(capsys, "project", "--spec", "H:2@n=3")
    assert rc == 0
    rc, elem_out, _ = run(capsys, "element", "--spec", "H:2@n=2")
    assert rc == 0
    assert proj_out == elem_out


def test_structured_element_kinds(capsys):
    for spec in [
        "CB:1 2;2|1 2;1@n=2",
        "YC:1 2|1 2@n=2",
        "DYC:1 2|1 2@n=2",
        "CIMM:2,1|1 2 3|1 2 3@n=3",
    ]:
        rc, out, err = run(capsys, "element", "--spec", spec)
        assert rc == 0, (spec, err)
        assert out.endswith("\n")


def test_usage_errors(capsys):
    bad = [
        ("element", "--spec", "X:2@n=2"),
        ("element", "--spec", "H:2"),
        ("element", "--spec", "H:3@n=2"),
        ("element", "--spec", "S:1,1,1@n=2"),
        ("element",),
        ("eigen", "--spec", "H:1@n=2"),
        ("eigen", "--spec", "H:1@n=2", "--mu", "1,1,1"),
        ("verify", "--suite", "nope"),
        ("element", "--spec", "CIMM:2|1 2@n=2"),
    ]
    for argv in bad:
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        if err:
            assert "error" in err.lower()


# argparse's own errors, and a spec field or partition that is not an
# integer, each end in one stderr line that names what was wrong
@pytest.mark.parametrize(
    "argv, message",
    [
        (("element", "--spec"), "error: argument --spec: expected one argument\n"),
        (("element", "--spec", "-:"), "error: argument --spec: expected one argument\n"),
        (("nope",), "error: argument verb: invalid choice: "),
        (("verify", "--suite", "nope"), "error: argument --suite: invalid choice: 'nope'"),
        (("verify", "--d", "2"), "error: unrecognized arguments: --d 2\n"),
        (("element", "--spec", "H:x@n=2"), "error: bad k in element spec: 'x'\n"),
        (("element", "--spec", "I:x@n=2"), "error: bad k in element spec: 'x'\n"),
        (("eigen", "--spec", "H:1@n=2", "--mu", "1,,2"), "error: not a partition: '1,,2'\n"),
        (("element", "--spec", "S:a@n=2"), "error: not a partition: 'a'\n"),
        (("element", "--spec", "S:0@n=2"), "error: not a partition: '0'\n"),
        (("eigen", "--spec", "H:1@n=2", "--mu", "3,0"), "error: not a partition: '3,0'\n"),
        (("element", "--spec", "S:1,1,1@n=2"), "error: schur element needs at most n rows in lambda, got 3 > 2\n"),
        (("element", "--spec", "CB:a|1@n=2"), "error: non-integer letter in tableau 'a'\n"),
        (("element", "--spec", "CIMM:1|a|1@n=2"), "error: bad letter in element spec: 'a'\n"),
        (("element", "--lambda", "2,1"), "error: --lambda needs --n\n"),
        (("element", "--k", "2"), "error: --k needs --n\n"),
        (("verify", "--max-size", "0"), "error: --max-size and --max-n must be at least 1\n"),
        (("verify", "--max-n", "0"), "error: --max-size and --max-n must be at least 1\n"),
    ],
    ids=[
        "spec-without-value",
        "spec-taken-for-an-option",
        "unknown-verb",
        "unknown-suite",
        "removed-d-flag",
        "bad-H-k",
        "bad-I-k",
        "bad-mu",
        "bad-S-partition",
        "zero-S-part",
        "zero-mu-part",
        "too-many-rows",
        "bad-tableau-letter",
        "bad-CIMM-letter",
        "lambda-without-n",
        "k-without-n",
        "zero-max-size",
        "zero-max-n",
    ],
)
def test_argparse_errors_are_one_line(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1, err


def test_help_still_prints_usage(capsys):
    rc, out, err = run(capsys, "element", "--help")
    assert (rc, err) == (0, "")
    assert out.startswith("usage: glcenter element")


# (option strings, dest, default, type, choices, metavar, help) of every
# action, in order, as the parser built them before the verbs became a table
_HELP = (["-h", "--help"], "help", "==SUPPRESS==", None, None, None, "show this help message and exit")
_ELEMENT_ACTIONS = [
    (["--spec"], "spec", None, None, None, None, "element spec KIND:payload@n=N"),
    (["--lambda"], "lam", None, None, None, "PARTITION", "shorthand for --spec S:PARTITION@n=N (needs --n)"),
    (["--k"], "k", None, int, None, None, "shorthand for --spec H:K@n=N (needs --n)"),
    (["--n"], "n", None, int, None, None, "proper alphabet size for --lambda/--k"),
]
_OUTPUT_ACTIONS = [
    (["--format"], "format", "text", None, ("text", "json"), None, "output format"),
    (["--out"], "out", None, None, None, "FILE", "write output to FILE instead of stdout"),
]
_MU = (["--mu"], "mu", None, None, None, "PARTITION", "highest weight as a partition")
_VERIFY_ACTIONS = [
    (["--suite"], "suite", None, None, ("core", "schur", "duality", "olshanski", "hc"), None,
     "the one suite to run; default all"),
    (["--max-size"], "max_size", 3, int, None, None, "partition size cap"),
    (["--max-n"], "max_n", 2, int, None, None, "alphabet size cap"),
    (["--seed"], "seed", 0, int, None, None, "seed for randomized checks"),
]
_PARSER_VERBS = {
    "element": ("build an element and print its PBW form", _ELEMENT_ACTIONS + _OUTPUT_ACTIONS),
    "eigen": (
        "eigenvalue on the highest weight module of --mu",
        _ELEMENT_ACTIONS + [_MU] + _OUTPUT_ACTIONS,
    ),
    "hc": ("Harish-Chandra image as a shifted symmetric polynomial", _ELEMENT_ACTIONS + _OUTPUT_ACTIONS),
    "dual": ("apply the duality involution", _ELEMENT_ACTIONS + _OUTPUT_ACTIONS),
    "project": ("project one alphabet letter away", _ELEMENT_ACTIONS + _OUTPUT_ACTIONS),
    "verify": ("run verification suites", _VERIFY_ACTIONS + _OUTPUT_ACTIONS),
}


def _actions(parser):
    return [
        (a.option_strings, a.dest, a.default, a.type, a.choices, a.metavar, a.help)
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    ]


def test_parser_is_pinned():
    parser = cli._build_parser()
    assert parser.prog == "glcenter"
    assert _actions(parser) == [_HELP]
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("verb", True)
    assert list(sub.choices) == list(_PARSER_VERBS)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (verb, help_line) for verb, (help_line, _) in _PARSER_VERBS.items()
    ]
    for verb, (_, actions) in _PARSER_VERBS.items():
        assert _actions(sub.choices[verb]) == [_HELP] + actions, verb


def test_eigen_checks_mu_before_building(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built the element before checking --mu")

    monkeypatch.setattr(cli, "build_element", refuse)
    monkeypatch.setattr(central, "schur_element", refuse)
    monkeypatch.setattr(central, "schur_element_hc", refuse)
    with pytest.raises(ValueError) as bad_mu:
        parse_partition("2,x")
    for extra, message in [
        ((), "eigen needs --mu"),
        (("--mu", "2,x"), str(bad_mu.value)),
        (("--mu", "1,1,1,1,1"), "--mu needs at most n=4 rows, got 5"),
    ]:
        for element in (("--spec", "S:3,2@n=4"), ("--lambda", "3,2", "--n", "4")):
            rc, out, err = run(capsys, "eigen", *element, *extra)
            assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_verify_builds_schur_elements_by_the_definition(capsys, monkeypatch):
    # S built as the Harish-Chandra preimage of s*_lam would make `hc-s*`
    # hold by construction
    def refuse(*args, **kwargs):
        raise AssertionError("verify built S as the Harish-Chandra preimage")

    monkeypatch.setattr(central, "schur_element_hc", refuse)
    for suite in ("schur", "hc", "duality", "olshanski"):
        rc, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "3", "--max-size", "2")
        assert rc == 0, out
        assert "S:2@n=" in out


def test_verify_builds_each_schur_element_once(capsys, monkeypatch):
    # every suite shares one build by the definition per (lam, n); a check
    # that empties the S, H or I it was handed must not empty the next
    # check's element
    real = central.schur_element
    builds = Counter()
    first_body = {}

    def counted(lam, n):
        builds[lam, n] += 1
        return real(lam, n)

    def check_then_spoil(apply):
        def wrapped(x):
            y = apply(x)
            if x.provenance[:2] in ("S:", "H:", "I:"):
                assert x.body == first_body.setdefault(x.provenance, dict(x.body))
                x.body.clear()
            return y

        return wrapped

    monkeypatch.setattr(central, "schur_element", counted)
    for module, name in (
        (central, "duality_W"),
        (central, "olshanski_project"),
        (shifted, "harish_chandra"),
    ):
        monkeypatch.setattr(module, name, check_then_spoil(getattr(module, name)))
    rc, out, _ = run(capsys, "verify", "--max-n", "3", "--max-size", "3")
    assert rc == 0, out
    assert set(builds.values()) == {1}
    assert {"S:2,1@n=2", "S:2,1@n=3", "H:2@n=3", "I:2@n=3"} <= set(first_body)


def test_verify_builds_each_H_and_I_once(capsys, monkeypatch):
    # the core suite's route and centrality checks share one build of each
    # H_k(n) and I_k(n); no library map in that suite builds either itself
    builds = Counter()

    def counted(kind, real):
        def build(k, n):
            builds[kind, k, n] += 1
            return real(k, n)

        return build

    monkeypatch.setattr(central, "capelli_H", counted("H", central.capelli_H))
    monkeypatch.setattr(central, "nazarov_umeda_I", counted("I", central.nazarov_umeda_I))
    rc, out, _ = run(capsys, "verify", "--suite", "core", "--max-n", "4", "--max-size", "4")
    assert rc == 0, out
    pairs = {(k, n) for n in range(1, 5) for k in range(1, n + 1)}
    assert builds == Counter({(kind, k, n): 1 for kind in "HI" for k, n in pairs})


def test_verify_suites_share_the_pieces_of_one_process(capsys):
    # one invocation per suite, as a session that runs them one by one: the
    # process builds each of the 23 (lam, m) with |lam| <= 4 once
    for suite in cli._SUITES:
        rc, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "4", "--max-size", "4")
        assert rc == 0, out
    assert central._schur_piece.cache_info().misses == 23


def test_element_verbs_build_schur_elements_as_the_hc_preimage(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built S by the bitableau definition")

    monkeypatch.setattr(central, "schur_element", refuse)
    for verb in (("element",), ("eigen", "--mu", "2,1"), ("hc",), ("dual",), ("project",)):
        rc, _, err = run(capsys, *verb, "--spec", "S:2,1@n=3")
        assert (rc, err) == (0, ""), verb


def test_element_flags_are_exclusive(capsys):
    # each pair would otherwise build one element and silently drop the rest
    for verb in ("element", "eigen", "hc", "dual", "project"):
        for flags, named in [
            (("--spec", "H:2@n=3", "--lambda", "2,1"), "--spec, --lambda"),
            (("--spec", "H:2@n=3", "--k", "2"), "--spec, --k"),
            (("--lambda", "2,1", "--k", "2"), "--lambda, --k"),
            (("--spec", "H:2@n=3", "--lambda", "2,1", "--k", "2"), "--spec, --lambda, --k"),
        ]:
            extra = ("--mu", "1") if verb == "eigen" else ()
            rc, out, err = run(capsys, verb, *flags, "--n", "3", *extra)
            message = f"error: give only one of --spec, --lambda, --k; got {named}\n"
            assert (rc, out, err) == (2, "", message), (verb, flags)


def test_verification_failures(capsys):
    rc, _, err = run(capsys, "eigen", "--spec", "CB:2|1@n=2", "--mu", "1")
    assert rc == 1
    assert err.startswith("verification failure:")
    rc, _, err = run(capsys, "hc", "--spec", "CB:1|1@n=2")
    assert rc == 1
    assert err.startswith("verification failure:")


def test_maps_on_the_center_reject_non_central_input(capsys):
    # e_{12} and e_{11}: hc, dual and project are defined only on the center
    for verb, spec in [
        ("dual", "CB:1|2@n=2"),
        ("project", "CB:1|1@n=2"),
        ("hc", "CB:1|2@n=2"),
    ]:
        rc, out, err = run(capsys, verb, "--spec", spec)
        assert rc == 1, (verb, spec)
        assert out == ""
        assert err == "verification failure: input is not central\n"


def test_verify_core_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "core", "--max-size", "2", "--max-n", "2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].startswith("suite core: ")
    assert lines[-1].endswith("passed")
    total = len(lines) - 1
    assert lines[-1] == f"suite core: {total}/{total} passed"


def test_verify_all_suites_small(capsys):
    rc, out, _ = run(capsys, "verify", "--max-size", "2", "--max-n", "2")
    assert rc == 0
    summaries = [l for l in out.strip().split("\n") if l.startswith("suite ")]
    assert [s.split()[1].rstrip(":") for s in summaries] == [
        "core",
        "schur",
        "duality",
        "olshanski",
        "hc",
    ]
    assert "FAIL" not in out


def test_verify_check_that_raises_fails(capsys, monkeypatch):
    # an exception inside one check is that check's FAIL, and the run goes on
    def boom(k, n):
        raise ValueError("boom")

    monkeypatch.setattr(central, "capelli_H_cdet", boom)
    argv = ("verify", "--suite", "core", "--max-n", "1", "--max-size", "1")
    rc, out, _ = run(capsys, *argv)
    assert rc == 1
    assert out.startswith("FAIL H-routes k=1 n=1 (error: boom)\nPASS I-routes k=1 n=1\n")
    assert out.count("FAIL") == 1
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 1
    summary = json.loads(out.splitlines()[-1])
    assert summary["checks"][0]["name"] == "H-routes k=1 n=1"
    assert [c["status"] for c in summary["checks"]].count("fail") == 1
    assert summary["checks"][0]["status"] == "fail"
    assert summary["passed"] == summary["total"] - 1


def test_verify_check_out_of_memory_is_one_line_and_exit_2(capsys, monkeypatch):
    # running out of memory is not a failed check: the run stops at once
    def exhausted(k, n):
        raise MemoryError

    monkeypatch.setattr(central, "capelli_H_cdet", exhausted)
    rc, out, err = run(capsys, "verify", "--suite", "core", "--max-n", "1", "--max-size", "1")
    assert (rc, out) == (2, "")
    assert err == "error: out of memory; the request is too large\n"


def test_verify_json_summary(capsys):
    rc, out, _ = run(
        capsys, "verify", "--suite", "hc", "--max-size", "2", "--max-n", "2",
        "--format", "json",
    )
    assert rc == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["suites"] == ["hc"]
    assert summary["passed"] == summary["total"] > 0
    assert all(c["status"] == "pass" for c in summary["checks"])
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in summary["checks"])


def test_output_is_deterministic(capsys):
    argv = ("element", "--spec", "S:2,1@n=3", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "element.json"
    rc, out, _ = run(
        capsys, "element", "--spec", "H:1@n=2", "--format", "json", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert element_from_json_obj(json.loads(text)) == {((1, 1),): 1, ((2, 2),): 1}


def test_out_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, "element", "--spec", "H:1@n=2", "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot write --out ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not target.exists()


def test_verify_hc_labels(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "hc", "--max-size", "1", "--max-n", "1")
    assert rc == 0
    assert out == (
        "PASS hc-e* H:1@n=1\n"
        "PASS hc-h* I:1@n=1\n"
        "PASS hc-s* S:1@n=1\n"
        "suite hc: 3/3 passed\n"
    )


ROOT = Path(__file__).resolve().parent.parent


def test_readme_command_examples(capsys):
    # every command of the README's "Command line" block that is followed by
    # a "# " line prints exactly that line
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    checked = 0
    for command, shown in zip(lines, lines[1:]):
        if command.startswith("glcenter ") and shown.startswith("# "):
            argv = shlex.split(command.split("  #", 1)[0])[1:]
            assert run(capsys, *argv) == (0, shown[2:] + "\n", ""), command
            checked += 1
    assert checked == 5


def _limit_address_space():
    limit = 1_500_000 * 1024  # bytes; ulimit -v 1500000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("spec", ["S:1@n=99999999999", "H:1@n=99999999999", "I:2@n=99999999999"])
def test_out_of_memory_is_one_line_and_exit_2(spec):
    # only ever run in a child process whose address space is limited: the
    # request would otherwise try to take all of the machine's memory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "glcenter", "element", "--spec", spec],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory; the request is too large\n"
