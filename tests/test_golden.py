"""Byte-identical CLI output on every output of the benchmark whose hash is
recorded: the fixed element, hc, dual and project specs, and all five
verify suites.

Each spec's stdout is hashed and compared with the SHA-256 recorded in
perfbench/refs.json (read only). The hashes do not depend on
PYTHONHASHSEED, so they hold in-process under any hash seed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from glcenter.cli import main

REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())

GOLDEN = [
    ("element", "S:3,1@n=4"),
    ("element", "S:3,2@n=4"),
    ("element", "I:5@n=4"),
    ("element", "H:6@n=6"),
    ("hc", "S:3,1@n=4"),
    ("dual", "S:2,2@n=4"),
    ("project", "S:2,1@n=4"),
]

# the benchmark prints this spec as JSON and every other one as text
JSON_SPECS = {("element", "I:5@n=4")}

# hc-s* compares harish_chandra(S), s_star and s_star_determinant; core runs
# the two routes of H_k and I_k; duality builds duality_W bodies; schur checks
# eigenvalues of Schur elements; olshanski projects and embeds H_k, I_k, S.
SUITES = ["hc", "core", "duality", "schur", "olshanski"]


def test_every_reference_is_pinned():
    pinned = {f"{verb} {spec}" for verb, spec in GOLDEN} | {f"verify {s}" for s in SUITES}
    assert pinned == set(REFS)


@pytest.mark.parametrize("verb,spec", GOLDEN)
def test_golden_output(capsys, verb, spec):
    fmt = "json" if (verb, spec) in JSON_SPECS else "text"
    assert main([verb, "--spec", spec, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFS[f"{verb} {spec}"]


@pytest.mark.parametrize("suite", SUITES)
def test_verify_output(capsys, suite):
    argv = ["verify", "--suite", suite, "--max-n", "4", "--max-size", "4", "--seed", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFS[f"verify {suite}"]
