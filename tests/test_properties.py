"""Property-based tests of the command line: the element spec grammar, the
JSON emitters and the refusal of malformed specs. Every element is built at
n <= 3 with at most three boxes, so nothing big is built."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from glcenter import cli, shifted
from glcenter.central import CentralElement
from glcenter.combinatorics import format_partition, is_partition, parse_partition, parse_tableau
from glcenter.enveloping import element_from_json_obj


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def format_rows(rows) -> str:
    return ";".join(" ".join(map(str, row)) for row in rows)


small_n = st.integers(min_value=1, max_value=3)
# partitions of size at most 3
partitions = st.sampled_from([(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])


@st.composite
def specs(draw, kinds=cli._KINDS):
    """(kind, payload, n, parsed payload) of a buildable spec."""
    kind = draw(st.sampled_from(kinds))
    n = draw(small_n)
    letters = st.integers(min_value=1, max_value=n)
    if kind == "S":
        lam = draw(partitions.filter(lambda lam: len(lam) <= n))
        return kind, format_partition(lam), n, lam
    if kind in ("H", "I"):
        k = draw(st.integers(min_value=1, max_value=n if kind == "H" else 3))
        return kind, str(k), n, k
    if kind == "CIMM":
        mu = draw(partitions.filter(bool))
        words = st.lists(letters, min_size=sum(mu), max_size=sum(mu)).map(tuple)
        left, right = draw(words), draw(words)
        payload = f"{format_partition(mu)}|{' '.join(map(str, left))}|{' '.join(map(str, right))}"
        return kind, payload, n, (mu, left, right)
    lam = draw(partitions.filter(bool))
    tableau = st.tuples(*(st.lists(letters, min_size=m, max_size=m).map(tuple) for m in lam))
    s, t = draw(tableau), draw(tableau)
    return kind, f"{format_rows(s)}|{format_rows(t)}", n, (s, t)


@settings(max_examples=60, deadline=None)
@given(specs())
def test_spec_grammar_round_trips(case):
    kind, payload, n, parsed = case
    spec = f"{kind}:{payload}@n={n}"
    assert cli.parse_element_spec(spec) == (kind, payload, n)
    if kind == "S":
        assert parse_partition(payload) == parsed
    elif kind in ("H", "I"):
        assert int(payload) == parsed
    elif kind == "CIMM":
        mu, left, right = payload.split("|")
        assert (parse_partition(mu), tuple(map(int, left.split())), tuple(map(int, right.split()))) == parsed
    else:
        assert tuple(map(parse_tableau, payload.split("|"))) == parsed
    # every constructor records the spec it was built from
    assert cli.build_element(spec).provenance == spec


@settings(max_examples=40, deadline=None)
@given(specs())
def test_element_json_round_trips_through_the_emitter(case):
    kind, payload, n, _ = case
    spec = f"{kind}:{payload}@n={n}"
    x = cli.build_element(spec)
    rc, out, err = run("element", "--spec", spec, "--format", "json")
    assert (rc, err) == (0, "")
    assert out == cli.element_to_json(x) + "\n"
    obj = json.loads(out)
    assert (obj["kind"], obj["n"], obj["pbw_canonical"]) == ("element", n, True)
    body = element_from_json_obj(obj)
    assert body == x.body
    assert cli.element_to_json(CentralElement(body, n, spec)) + "\n" == out


@settings(max_examples=30, deadline=None)
@given(specs(kinds=("S", "H", "I")))
def test_shifted_json_round_trips_through_the_emitter(case):
    kind, payload, n, _ = case
    spec = f"{kind}:{payload}@n={n}"
    rc, out, err = run("hc", "--spec", spec, "--format", "json")
    assert (rc, err) == (0, "")
    p = shifted.shifted_from_json(out)
    assert p == shifted.harish_chandra(cli.build_element(spec))
    assert shifted.shifted_to_json(p) + "\n" == out


def is_positive_int(text: str) -> bool:
    try:
        return int(text) >= 1
    except ValueError:
        return False


junk = st.text(alphabet="SHICBYDMX:@n=0123456789,;| -x\n", max_size=12)


@st.composite
def malformed_specs(draw):
    n = draw(small_n)
    case = draw(st.integers(min_value=0, max_value=9))
    if case == 0:  # no '@n=' suffix
        return draw(junk.filter(lambda s: "@n=" not in s))
    if case == 1:  # n is not a positive integer
        tail = draw(junk.filter(lambda t: not is_positive_int(t)) | st.integers(max_value=0).map(str))
        return f"H:1@n={tail}"
    if case == 2:  # unknown kind
        kind = draw(st.text(alphabet="SHICBYDMX", max_size=4).filter(lambda k: k not in cli._KINDS))
        return f"{kind}:{draw(junk)}@n={n}"
    if case == 3:  # not a partition, or more rows than n
        parts = draw(st.lists(st.integers(min_value=-2, max_value=4), min_size=1, max_size=4))
        parts = parts if not is_partition(parts) else parts + [1] * (n + 1 - len(parts))
        return f"S:{','.join(map(str, parts))}@n={n}"
    if case == 4:  # H_k needs 1 <= k <= n, I_k needs k >= 1
        kind = draw(st.sampled_from("HI"))
        bad = st.integers(min_value=-3, max_value=0) | st.just("x")
        if kind == "H":
            bad |= st.integers(min_value=n + 1, max_value=n + 3)
        return f"{kind}:{draw(bad)}@n={n}"
    kind = draw(st.sampled_from(("CB", "YC", "DYC")))
    if case == 5:  # wrong number of fields
        return f"{kind}:{'|'.join(['1'] * draw(st.sampled_from((1, 3, 4))))}@n={n}"
    if case == 6:  # a letter outside 1..n
        return f"{kind}:1 {draw(st.sampled_from((0, n + 1)))}|1 2@n={n}"
    if case == 7:  # shapes differ, or rows that are no partition shape
        return f"{kind}:{draw(st.sampled_from(('1|1 1', '1;1 1|1;1 1', '1;;1|1;1', '|')))}@n={n}"
    if case == 8:  # immanant fields of different sizes
        return f"CIMM:{draw(st.sampled_from(('2|1|1 1', '1|1 1|1 1', '1|1', '3|1 1|1 1')))}@n={n}"
    return f"CIMM:1|{n + 1}|1@n={n}"


@settings(max_examples=150, deadline=None)
@given(malformed_specs())
def test_malformed_specs_exit_2_with_one_line(spec):
    # --spec=SPEC, so that a spec starting with '-' still reaches the parser
    rc, out, err = run("element", f"--spec={spec}")
    assert (rc, out) == (2, ""), (spec, err)
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (spec, err)

