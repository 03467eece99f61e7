"""The benchmark's workloads: job lists made from a seed, and the checks that
decide whether each job's output is correct.

`cli-cold` runs one `python -m glcenter` process per job and is driven from
run.py. The other three run their jobs inside one worker process
(worker.py) through the public functions of the glcenter modules. A job
whose output is fixed is checked against a SHA-256 recorded from the seed
commit (refs.json); a job whose input comes from the seed is checked with an
identity of the paper computed through a different layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from spans import cache_entries

WORKLOADS = ("cli-cold", "verify-session", "oracle-linalg", "shifted-n5")

HEAVY_JOB = {
    "cli-cold": "element S:3,2@n=4",
    "verify-session": "verify schur",
    "oracle-linalg": "solve_many",
    "shifted-n5": "lambda 3,1",
}

# (verb, spec, format) of the cli-cold jobs whose stdout is hashed.
FIXED_CLI = (
    ("element", "S:3,2@n=4", "text"),
    ("element", "I:5@n=4", "json"),
    ("element", "H:6@n=6", "text"),
    ("element", "S:3,1@n=4", "text"),
    ("hc", "S:3,1@n=4", "text"),
    ("dual", "S:2,2@n=4", "text"),
    ("project", "S:2,1@n=4", "text"),
)

SUITES = ("core", "schur", "duality", "olshanski", "hc")

EIGEN_LAMBDA, EIGEN_N = (2, 2), 4


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def random_partition(rng, total: int, max_rows: int) -> tuple:
    while True:
        parts, left = [], total
        while left:
            parts.append(rng.randint(1, min(left, parts[-1] if parts else left)))
            left -= parts[-1]
        if len(parts) <= max_rows:
            return tuple(parts)


def _fmt_rows(rows) -> str:
    return ";".join(" ".join(str(x) for x in row) for row in rows)


def _filling(rng, shape) -> tuple:
    """Rows of distinct letters from 1..3."""
    return tuple(tuple(rng.sample((1, 2, 3), length)) for length in shape)


def cli_jobs(seed: int) -> list:
    """(name, argv, check) per job; check is ("ref", key) or a seeded identity."""
    rng = random.Random(f"cli-cold/{seed}")
    jobs = [
        (f"{verb} {spec}", [verb, "--spec", spec, "--format", fmt], ("ref", f"{verb} {spec}"))
        for verb, spec, fmt in FIXED_CLI
    ]
    mu = random_partition(rng, rng.randint(4, 6), EIGEN_N)
    spec = f"S:{','.join(map(str, EIGEN_LAMBDA))}@n={EIGEN_N}"
    mu_s = ",".join(map(str, mu))
    jobs.append((f"eigen {spec} mu={mu_s}", ["eigen", "--spec", spec, "--mu", mu_s], ("eigen", mu)))
    # Small calls are most of the list, so job_p50_s is the cost of a small
    # CLI call (interpreter start and import) rather than a gap between sizes.
    for kind in ("CB",) * 4 + ("YC",) * 4 + ("DYC",):
        s, t = _filling(rng, (2, 1)), _filling(rng, (2, 1))
        spec = f"{kind}:{_fmt_rows(s)}|{_fmt_rows(t)}@n=3"
        jobs.append((f"element {spec}", ["element", "--spec", spec, "--format", "json"], (kind, s, t)))
    for _ in range(4):
        mu = random_partition(rng, 3, 3)
        left = tuple(rng.randint(1, 3) for _ in range(3))
        right = tuple(rng.randint(1, 3) for _ in range(3))
        spec = f"CIMM:{','.join(map(str, mu))}|{_fmt_rows([left])}|{_fmt_rows([right])}@n=3"
        jobs.append((f"element {spec}", ["element", "--spec", spec, "--format", "json"], ("CIMM", mu, left, right)))
    return jobs


# ---- identities for the seeded cli-cold jobs (checked by run.py) ----------


def proper_monomials(degrees, letters=3, places=3) -> list:
    """Monomials of the given degrees in the even variables (i|j)."""
    from glcenter.superspace import poly_mul

    singles = [(i, j) for i in range(1, letters + 1) for j in range(1, places + 1)]
    out, seen = [], set()
    for deg in degrees:
        for combo in combinations_with_replacement(singles, deg):
            q = {(): Fraction(1)}
            for v in combo:
                q = poly_mul(q, {(v,): Fraction(1)})
            for mono in q:
                if mono not in seen:
                    seen.add(mono)
                    out.append(mono)
    return out


def _virtual_element(check) -> dict:
    """The virtual word(s) whose devirtualization the CLI printed, written
    from the definitions: the Coderuyts tableau C* has one positive symbol
    per row, the virtual Deruyts tableau D* one negative symbol per column."""
    from glcenter.combinatorics import permutation_cycle_type, shape_of, sym_character
    from glcenter.superspace import alpha, beta

    kind = check[0]
    if kind == "CIMM":
        _, mu, left, right = check
        out: dict = {}
        for perm in permutations(range(len(left))):
            chi = sym_character(mu, permutation_cycle_type(perm))
            if chi:
                word = tuple((left[perm[r]], alpha(r + 1)) for r in range(len(left)))
                word += tuple((alpha(r + 1), right[r]) for r in range(len(right)))
                out[word] = out.get(word, 0) + Fraction(chi)
        return {w: c for w, c in out.items() if c}
    _, s, t = check
    shape = shape_of(s)
    left = tuple((x, alpha(r + 1)) for r, row in enumerate(s) for x in row)
    right = tuple((alpha(r + 1), x) for r, row in enumerate(t) for x in row)
    cd = tuple((alpha(r + 1), beta(c + 1)) for r, m in enumerate(shape) for c in range(m))
    dc = tuple((beta(c + 1), alpha(r + 1)) for r, m in enumerate(shape) for c in range(m))
    dt = tuple((beta(c + 1), x) for row in t for c, x in enumerate(row))
    word = {"CB": left + right, "YC": left + cd + dt, "DYC": left + cd + dc + right}[kind]
    return {word: Fraction(1)}


class SeededChecks:
    """Checks the seeded cli-cold outputs; memoizes per distinct output."""

    def __init__(self, seed: int):
        rng = random.Random(f"cli-cold/check/{seed}")
        self.probe = {m: Fraction(rng.randint(1, 9)) for m in proper_monomials((0, 1, 2, 3, 4))}
        self._hc = None
        self._done: dict = {}

    def __call__(self, check, text: str) -> bool:
        key = (repr(check), text)
        if key not in self._done:
            self._done[key] = self._check(check, text)
        return self._done[key]

    def _check(self, check, text: str) -> bool:
        from glcenter import central, enveloping, shifted

        if check[0] == "eigen":
            # act on the highest weight vector (the CLI) against the
            # Harish-Chandra image evaluated at mu
            if self._hc is None:
                self._hc = shifted.harish_chandra(central.schur_element(EIGEN_LAMBDA, EIGEN_N))
            return Fraction(text.strip()) == shifted.eval_at_partition(self._hc, check[1])
        # the printed image acts on a random polynomial exactly as the
        # virtual word does (the defining property of devirtualization)
        image = enveloping.element_from_json_obj(json.loads(text))
        virtual = _virtual_element(check)
        return enveloping.act(image, self.probe) == enveloping.act(virtual, self.probe)


# ---- in-process workloads (run inside worker.py) ---------------------------


class Jobs:
    """Times each job and keeps its record; `tracer.job` names the job for spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records = []
        self.cache_entries = 0

    @contextlib.contextmanager
    def job(self, name: str):
        record = {"name": name, "s": 0.0, "ok": True, "note": ""}
        if self.tracer is not None:
            self.tracer.job = name
        start = time.perf_counter()
        try:
            yield record
        except Exception as exc:  # a job that raises is a failed job
            record["ok"], record["note"] = False, f"{type(exc).__name__}: {exc}"
        record["s"] = time.perf_counter() - start
        self.records.append(record)
        if self.tracer is not None:
            self.cache_entries = max(self.cache_entries, cache_entries())


def run_verify_session(seed: int, jobs: Jobs) -> None:
    from glcenter import cli

    for suite in SUITES:
        with jobs.job(f"verify {suite}") as record:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                argv = ["verify", "--suite", suite, "--max-n", "4", "--max-size", "4", "--seed", str(seed)]
                code = cli.main(argv)
            record["digest"] = sha256(buf.getvalue())
            record["ok"] = code == 0
            record["note"] = f"exit {code}"


def run_oracle_linalg(seed: int, jobs: Jobs) -> None:
    """The criterion-10 devirtualization oracle over gl(3)."""
    from glcenter import linalg
    from glcenter.enveloping import act, devirtualize, filtration_degree, pbw_key, random_balanced_word

    gens = sorted(((i, j) for i in range(1, 4) for j in range(1, 4)), key=pbw_key)
    pbw_words = [()]
    for length in (1, 2, 3):
        pbw_words.extend(combinations_with_replacement(gens, length))
    monos3 = proper_monomials((0, 1, 2, 3))
    monos4 = proper_monomials((4,))
    # P and the twelve degree-4 rows come from the acceptance test's seeds:
    # a random P can leave a spurious kernel direction (rank 219 for some
    # draws), which says nothing about the program. The words vary by seed.
    rng_vec, rng_rows = random.Random(42), random.Random(5)
    P = {m: Fraction(rng_vec.randint(1, 9)) for m in monos3}
    extra_rows = rng_rows.sample(monos4, 12)
    for m in rng_rows.sample(monos4, 25):
        P[m] = Fraction(rng_rows.randint(1, 9))
    coords = monos3 + extra_rows
    rng = random.Random(f"oracle-linalg/{seed}")
    words = []
    while len(words) < 200:
        w = random_balanced_word(rng, 3, 6)
        virtual = sum((a not in (1, 2, 3)) + (b not in (1, 2, 3)) for a, b in w)
        if len(w) - (virtual + 1) // 2 <= 3:
            words.append(w)

    matrix = None
    with jobs.job("action matrix"):
        acts = [act({w: Fraction(1)}, P) for w in pbw_words]
        matrix = [[Fraction(acts[j].get(m, 0)) for j in range(len(pbw_words))] for m in coords]
    with jobs.job("rank") as record:
        r = linalg.rank([row[:] for row in matrix])
        record["ok"], record["note"] = r == len(pbw_words), f"rank {r}"
    images, rhs = [], []
    for i, w in enumerate(words):
        with jobs.job(f"word {i}") as record:
            x = {w: Fraction(1)}
            img = devirtualize(x)
            agree = [act(x, {m: Fraction(1)}) == act(img, {m: Fraction(1)}) for m in monos3]
            image_p = act(x, P)
            images.append(img)
            rhs.append([Fraction(image_p.get(m, 0)) for m in coords])
            record["ok"] = all(agree) and filtration_degree(img) <= 3
    sols = None
    with jobs.job("solve_many") as record:
        sols = linalg.solve_many(matrix, rhs)
    if sols is not None:
        wrong = sum(
            sol != [Fraction(img.get(pw, 0)) for pw in pbw_words] for sol, img in zip(sols, images)
        )
        wrong += abs(len(words) - len(sols))
        record["ok"], record["note"] = wrong == 0, f"{wrong} of {len(words)} solutions differ"


def run_shifted_n5(seed: int, jobs: Jobs) -> None:
    from glcenter import shifted
    from glcenter.combinatorics import conjugate, contains, hook_number

    n = 5
    rng = random.Random(f"shifted-n5/{seed}")
    lams = [()]
    for total in range(1, 5):
        lams.extend(_partitions_of(total, total))
    rng.shuffle(lams)
    mus = [()] + [mu for total in range(1, 5) for mu in _partitions_of(total, total)]
    mus += [random_partition(rng, rng.randint(5, 9), n) for _ in range(8)]
    polys, omegas, records = {}, {}, {}
    for lam in lams:
        p = w = up = values = None
        with jobs.job(f"lambda {','.join(map(str, lam)) or '0'}") as record:
            p = shifted.s_star(lam, n)
            shifted.express_in_estar_basis(p)
            w = shifted.omega(p)
            up = shifted.i_star(p)
            values = {mu: shifted.eval_at_partition(p, mu) for mu in mus}
        if values is None:
            continue
        polys[lam], omegas[lam], records[lam] = p, w, record
        # s*_lam(lam) = H(lam); s*_lam(mu) > 0 if lam is inside mu, else 0;
        # i* is a section of pi*
        bad = [mu for mu, v in values.items() if (v > 0) != contains(lam, mu) or v < 0]
        record["ok"] = values[lam] == hook_number(lam) and not bad and shifted.pi_star(up) == p
    for lam, record in records.items():
        # omega(s*_lam) = s*_(lam conjugate)
        if omegas[lam] != polys.get(conjugate(lam)):
            record["ok"], record["note"] = False, "omega(s*) is not s* of the conjugate"


def _partitions_of(total: int, cap: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions_of(total - first, first):
            yield (first,) + rest


IN_PROCESS = {
    "verify-session": run_verify_session,
    "oracle-linalg": run_oracle_linalg,
    "shifted-n5": run_shifted_n5,
}
