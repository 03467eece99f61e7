"""Byte-identical CLI output on the cheap fixed specs of the benchmark and
on the hc, core and duality verify suites.

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
    ("hc", "S:3,1@n=4"),
    ("dual", "S:2,2@n=4"),
    ("project", "S:2,1@n=4"),
]


@pytest.mark.parametrize("verb,spec", GOLDEN)
def test_golden_output(capsys, verb, spec):
    assert main([verb, "--spec", spec, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFS[f"{verb} {spec}"]


# hc-s* compares harish_chandra(S), s_star and s_star_determinant; core runs
# the two routes of H_k and I_k, and duality builds duality_W bodies.
@pytest.mark.parametrize("suite", ["hc", "core", "duality"])
def test_verify_output(capsys, suite):
    argv = ["verify", "--suite", suite, "--max-n", "4", "--max-size", "4", "--seed", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REFS[f"verify {suite}"]
