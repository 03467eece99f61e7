"""Command-line front end: construct central elements, print PBW normal
forms, tabulate eigenvalues, compute Harish-Chandra images, run verification
suites, and emit JSON.

Element specs use the grammar "KIND:payload@n=N" with KIND one of S, H, I,
CB, YC, DYC, CIMM. Partitions are comma-separated ("2,1"), tableaux use the
row serialization "1 2;3", and multi-field payloads separate fields with
"|". Exit codes: 0 success, 1 verification failure, 2 usage error or a
request that ran out of memory.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import cache, partial
from itertools import combinations_with_replacement

from . import central, enveloping, shifted
from .combinatorics import (
    conjugate,
    format_partition,
    hook_number,
    parse_partition,
    parse_tableau,
    partitions_upto,
    size,
)

_KINDS = ("S", "H", "I", "CB", "YC", "DYC", "CIMM")


class UsageError(Exception):
    """Bad flags, a malformed element spec, or an unwritable --out path."""


class VerificationFailure(Exception):
    """A requested computation contradicts a verified property."""


def _field_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad {what} in element spec: {text!r}") from None


def parse_element_spec(spec: str) -> tuple:
    """Split "KIND:payload@n=N" into (kind, payload, n)."""
    head, sep, tail = spec.rpartition("@n=")
    if not sep:
        raise UsageError(f"element spec must end in '@n=N': {spec!r}")
    n = _field_int(tail, "n")
    if n < 1:
        raise UsageError(f"n must be at least 1, got {n}")
    kind, sep, payload = head.partition(":")
    if not sep or kind not in _KINDS:
        raise UsageError(f"element kind must be one of {'|'.join(_KINDS)}: {spec!r}")
    return kind, payload, n


def _fields(payload: str, count: int, spec: str) -> list:
    fields = payload.split("|")
    if len(fields) != count:
        raise UsageError(f"{spec!r}: payload needs {count} '|'-separated fields")
    return fields


def _check_letters(rows, n: int) -> None:
    for row in rows:
        for x in row:
            if not 1 <= x <= n:
                raise UsageError(f"letter {x} outside 1..{n}")


def build_element(spec: str) -> central.CentralElement:
    """Construct the element named by an element spec string."""
    kind, payload, n = parse_element_spec(spec)
    try:
        if kind == "S":
            return central.schur_element_hc(parse_partition(payload), n)
        if kind == "H":
            return central.capelli_H(_field_int(payload, "k"), n)
        if kind == "I":
            return central.nazarov_umeda_I(_field_int(payload, "k"), n)
        if kind == "CIMM":
            mu_s, left_s, right_s = _fields(payload, 3, spec)
            left = tuple(_field_int(x, "letter") for x in left_s.split())
            right = tuple(_field_int(x, "letter") for x in right_s.split())
            _check_letters((left, right), n)
            body = central.capelli_immanant(parse_partition(mu_s), left, right)
            return central.CentralElement(body, n, spec)
        s_s, t_s = _fields(payload, 2, spec)
        s, t = parse_tableau(s_s), parse_tableau(t_s)
        _check_letters(s + t, n)
        build = {
            "CB": central.capelli_bitableau,
            "YC": central.young_capelli,
            "DYC": central.double_young_capelli,
        }[kind]
        return central.CentralElement(build(s, t), n, spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def element_to_json(x: central.CentralElement) -> str:
    obj = enveloping.element_to_json_obj(x.body)
    return json.dumps({"kind": "element", "n": x.n, **obj}, sort_keys=True)


def _emit(text: str, out_path) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(data)


def _spec_of(args) -> str:
    flags = {"--spec": args.spec, "--lambda": args.lam, "--k": args.k}
    given = [flag for flag, value in flags.items() if value is not None]
    if len(given) > 1:
        raise UsageError(f"give only one of --spec, --lambda, --k; got {', '.join(given)}")
    if args.spec:
        return args.spec
    if args.lam is not None:
        if args.n is None:
            raise UsageError("--lambda needs --n")
        return f"S:{args.lam}@n={args.n}"
    if args.k is not None:
        if args.n is None:
            raise UsageError("--k needs --n")
        return f"H:{args.k}@n={args.n}"
    raise UsageError("give --spec, or --lambda/--k together with --n")


def _emit_element(x: central.CentralElement, args) -> None:
    if args.format == "json":
        _emit(element_to_json(x), args.out)
    else:
        _emit(enveloping.format_element(x.body), args.out)


def _emit_shifted(p: shifted.ShiftedPolynomial, args) -> None:
    if args.format == "json":
        _emit(shifted.shifted_to_json(p), args.out)
    else:
        _emit(shifted.format_shifted(p), args.out)


def cmd_element(args) -> int:
    _emit_element(build_element(_spec_of(args)), args)
    return 0


def cmd_eigen(args) -> int:
    spec = _spec_of(args)
    _, _, n = parse_element_spec(spec)
    if args.mu is None:
        raise UsageError("eigen needs --mu")
    try:
        mu = parse_partition(args.mu)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if len(mu) > n:
        raise UsageError(f"--mu needs at most n={n} rows, got {len(mu)}")
    x = build_element(spec)
    try:
        value = central.eigenvalue(x, mu)
    except ValueError as exc:
        raise VerificationFailure(str(exc)) from None
    if args.format == "json":
        payload = {
            "kind": "eigenvalue",
            "mu": list(mu),
            "spec": spec,
            "value": str(value),
        }
        _emit(json.dumps(payload, sort_keys=True), args.out)
    else:
        _emit(str(value), args.out)
    return 0


# The maps defined only on the center, with the emitter of their result. Each
# map is looked up in its module at call time, so a rebinding of the module
# attribute (as the benchmark's tracer does) reaches the call.
_CENTER_MAPS = {
    "hc": (lambda x: shifted.harish_chandra(x), _emit_shifted),
    "dual": (lambda x: central.duality_W(x), _emit_element),
    "project": (lambda x: central.olshanski_project(x), _emit_element),
}


def cmd_center_map(args) -> int:
    """Apply the verb's map to the element of the spec, which must be central."""
    apply, emit = _CENTER_MAPS[args.verb]
    x = build_element(_spec_of(args))
    if not enveloping.is_central(x.body, x.n):
        raise VerificationFailure("input is not central")
    try:
        y = apply(x)
    except ValueError as exc:
        raise VerificationFailure(str(exc)) from None
    emit(y, args)
    return 0


def _shapes(max_size: int, rows: int) -> list:
    """The nonempty partitions of size at most max_size with at most rows
    parts: the lam for which S_lam(rows) is defined."""
    return [lam for lam in partitions_upto(max_size, include_empty=False) if len(lam) <= rows]


def _suite_core(args, elem):
    for n in range(1, args.max_n + 1):
        for k in range(1, min(n, args.max_size) + 1):
            yield f"H-routes k={k} n={n}", lambda k=k, n=n: (
                elem("H", k, n).body == central.capelli_H_cdet(k, n).body
            )
            yield f"I-routes k={k} n={n}", lambda k=k, n=n: (
                elem("I", k, n).body == central.nazarov_umeda_I_cper(k, n).body
            )
            for kind in "HI":
                yield f"central {kind}:{k}@n={n}", lambda kind=kind, k=k, n=n: (
                    enveloping.is_central(elem(kind, k, n).body, n)
                )
    rng = random.Random(args.seed)
    n = min(args.max_n, 3)
    monos = _monomials(n)
    for i in range(8):
        word = enveloping.random_balanced_word(rng, n, max_len=min(6, 2 * args.max_size))
        yield f"devirt-action n={n} i={i}", partial(_action_matches, word, monos)


def _monomials(n: int) -> list:
    """The monomials of degree at most 2 in the variables (i|j) of n letters
    and two place columns. The variables are even and listed in `var_key`
    order, so each sorted combination is already canonical, with sign +1."""
    variables = [(i, j) for i in range(1, n + 1) for j in (1, 2)]
    return [{combo: 1} for deg in range(3) for combo in combinations_with_replacement(variables, deg)]


def _action_matches(word, monos) -> bool:
    x = {word: 1}
    image = enveloping.devirtualize(x)
    return all(
        enveloping.act(x, p) == enveloping.act(image, p) for p in monos
    )


def _suite_schur(args, elem):
    def vanishes(lam, n):
        x = elem("S", lam, n)
        return all(central.eigenvalue(x, mu) == 0 for mu in _shapes(size(lam), n) if mu != lam)

    for n in range(1, args.max_n + 1):
        for lam in _shapes(args.max_size, n):
            name = f"S:{format_partition(lam)}@n={n}"
            yield f"eigen-diag {name}", lambda lam=lam, n=n: (
                central.eigenvalue(elem("S", lam, n), lam) == hook_number(lam)
            )
            yield f"eigen-vanish {name}", partial(vanishes, lam, n)
            yield f"central {name}", lambda lam=lam, n=n: (
                enveloping.is_central(elem("S", lam, n).body, n)
            )


def _suite_duality(args, elem):
    for n in range(2, args.max_n + 1):
        for lam in partitions_upto(args.max_size, include_empty=False):
            if size(lam) <= n:
                yield f"dual S:{format_partition(lam)}@n={n}", lambda lam=lam, n=n: (
                    central.duality_W(elem("S", lam, n)).body == elem("S", conjugate(lam), n).body
                )
        for k in range(1, min(n, args.max_size) + 1):
            yield f"dual-involution H:{k}@n={n}", lambda k=k, n=n: (
                central.duality_W(central.duality_W(elem("H", k, n))).body == elem("H", k, n).body
            )
    for k in range(1, args.max_size + 1):
        for mu in partitions_upto(args.max_size, include_empty=False):
            if mu[0] <= args.max_n and len(mu) <= args.max_n:
                nv = max(k, mu[0], len(mu))
                yield f"strip-duality k={k} mu={format_partition(mu)}", lambda k=k, mu=mu, nv=nv: (
                    shifted.eval_at_partition(shifted.e_star(k, nv), conjugate(mu))
                    == shifted.eval_at_partition(shifted.h_star(k, nv), mu)
                )


def _suite_olshanski(args, elem):
    def projects(kind, param, n):
        # the projection of the element at n is the same element at n - 1
        return central.olshanski_project(elem(kind, param, n)).body == elem(kind, param, n - 1).body

    for n in range(2, args.max_n + 1):
        for k in range(1, min(n - 1, args.max_size) + 1):
            yield f"project H:{k}@n={n}", partial(projects, "H", k, n)
            yield f"project I:{k}@n={n}", partial(projects, "I", k, n)
        yield f"project-top H:{n}@n={n}", lambda n=n: (
            central.olshanski_project(elem("H", n, n)).body == {}
        )
        for lam in _shapes(args.max_size, n - 1):
            yield f"project S:{format_partition(lam)}@n={n}", partial(projects, "S", lam, n)
            yield f"embed-retract S:{format_partition(lam)}@n={n - 1}", lambda lam=lam, n=n: (
                central.olshanski_project(central.embed(elem("S", lam, n - 1))).body
                == elem("S", lam, n - 1).body
            )


def _suite_hc(args, elem):
    for n in range(1, args.max_n + 1):
        for k in range(1, min(n, args.max_size) + 1):
            yield f"hc-e* H:{k}@n={n}", lambda k=k, n=n: (
                shifted.harish_chandra(elem("H", k, n)) == shifted.e_star(k, n)
            )
        for k in range(1, args.max_size + 1):
            yield f"hc-h* I:{k}@n={n}", lambda k=k, n=n: (
                shifted.harish_chandra(elem("I", k, n)) == shifted.h_star(k, n)
            )
        for lam in _shapes(args.max_size, n):
            yield f"hc-s* S:{format_partition(lam)}@n={n}", lambda lam=lam, n=n: (
                shifted.harish_chandra(elem("S", lam, n))
                == shifted.s_star(lam, n)
                == shifted.s_star_determinant(lam, n)
            )


# The suites of `verify`, in the order they run. Each builder yields its
# checks as (label, check) pairs; it reads the caps (and core the seed) from
# the parsed flags, and gets S, H and I from the run's element memo.
_SUITES = {
    "core": _suite_core,
    "schur": _suite_schur,
    "duality": _suite_duality,
    "olshanski": _suite_olshanski,
    "hc": _suite_hc,
}


def cmd_verify(args) -> int:
    if args.max_size < 1 or args.max_n < 1:
        raise UsageError("--max-size and --max-n must be at least 1")
    names = [args.suite] if args.suite else list(_SUITES)

    @cache
    def build(kind, param, n):
        # S, H and I of this run, once per (kind, param, n). S is built by the
        # definition, never as the Harish-Chandra preimage, which would make
        # `hc-s*` hold by construction. Each constructor is looked up at call
        # time, so a rebinding of it sees every real build
        if kind == "S":
            return central.schur_element(param, n)
        return (central.capelli_H if kind == "H" else central.nazarov_umeda_I)(param, n)

    def elem(kind, param, n):
        x = build(kind, param, n)  # each check gets a copy of its own
        return central.CentralElement(dict(x.body), x.n, x.provenance)

    lines = []
    checks = []  # one record per check: the text, the JSON and the exit code read it
    for name in names:
        first = len(checks)
        for label, fn in _SUITES[name](args, elem):
            start = time.perf_counter()
            try:
                ok, note = bool(fn()), ""
            except MemoryError:
                raise
            except Exception as exc:
                ok, note = False, f" (error: {exc})"
            status = "pass" if ok else "fail"
            checks.append({"name": label, "seconds": time.perf_counter() - start,
                           "status": status, "suite": name})
            lines.append(f"{status.upper()} {label}{note}")
        ran = [c["status"] for c in checks[first:]]
        lines.append(f"suite {name}: {ran.count('pass')}/{len(ran)} passed")
    passed = sum(c["status"] == "pass" for c in checks)
    if args.format == "json":
        summary = {
            "checks": checks,
            "max_n": args.max_n,
            "max_size": args.max_size,
            "passed": passed,
            "seed": args.seed,
            "suites": names,
            "total": len(checks),
        }
        lines.append(json.dumps(summary, sort_keys=True))
    _emit("\n".join(lines), args.out)
    return 0 if passed == len(checks) else 1


# The verbs, in --help order, each with its handler and its help line.
# `_build_parser` gives `verify` its suite flags and every other verb the
# element flags; `main` calls the handler of the verb given.
_VERBS = {
    "element": (cmd_element, "build an element and print its PBW form"),
    "eigen": (cmd_eigen, "eigenvalue on the highest weight module of --mu"),
    "hc": (cmd_center_map, "Harish-Chandra image as a shifted symmetric polynomial"),
    "dual": (cmd_center_map, "apply the duality involution"),
    "project": (cmd_center_map, "project one alphabet letter away"),
    "verify": (cmd_verify, "run verification suites"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' included, are one stderr line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glcenter", description="Exact computations in the center of U(gl(n)).")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (handler, help_line) in _VERBS.items():
        p = sub.add_parser(verb, help=help_line)
        if handler is cmd_verify:
            p.add_argument("--suite", choices=tuple(_SUITES), help="the one suite to run; default all")
            p.add_argument("--max-size", type=int, default=3, help="partition size cap")
            p.add_argument("--max-n", type=int, default=2, help="alphabet size cap")
            p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        else:
            p.add_argument("--spec", help="element spec KIND:payload@n=N")
            p.add_argument("--lambda", dest="lam", metavar="PARTITION",
                           help="shorthand for --spec S:PARTITION@n=N (needs --n)")
            p.add_argument("--k", type=int, help="shorthand for --spec H:K@n=N (needs --n)")
            p.add_argument("--n", type=int, help="proper alphabet size for --lambda/--k")
        if handler is cmd_eigen:
            p.add_argument("--mu", metavar="PARTITION", help="highest weight as a partition")
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _VERBS[args.verb][0](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the request is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
