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
from fractions import Fraction
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
from .superspace import poly_mul

_KINDS = ("S", "H", "I", "CB", "YC", "DYC", "CIMM")
_SUITES = ("core", "schur", "duality", "olshanski", "hc")


class UsageError(Exception):
    """Bad flags, a malformed element spec, or an unwritable --out path."""


class VerificationFailure(Exception):
    """A requested computation contradicts a verified property."""


def parse_element_spec(spec: str) -> tuple:
    """Split "KIND:payload@n=N" into (kind, payload, n)."""
    head, sep, tail = spec.rpartition("@n=")
    if not sep:
        raise UsageError(f"element spec must end in '@n=N': {spec!r}")
    try:
        n = int(tail)
    except ValueError:
        raise UsageError(f"bad n in element spec: {tail!r}") from None
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
            return central.capelli_H(int(payload), n)
        if kind == "I":
            return central.nazarov_umeda_I(int(payload), n)
        if kind == "CIMM":
            mu_s, left_s, right_s = _fields(payload, 3, spec)
            left = tuple(int(x) for x in left_s.split())
            right = tuple(int(x) for x in right_s.split())
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
    except UsageError:
        raise
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


def _suite_core(max_size: int, max_n: int, seed: int, d: int, schur) -> list:
    checks = []
    for n in range(1, max_n + 1):
        for k in range(1, min(n, max_size) + 1):
            checks.append(
                (
                    f"H-routes k={k} n={n}",
                    lambda k=k, n=n: central.capelli_H(k, n).body
                    == central.capelli_H_cdet(k, n).body,
                )
            )
            checks.append(
                (
                    f"I-routes k={k} n={n}",
                    lambda k=k, n=n: central.nazarov_umeda_I(k, n).body
                    == central.nazarov_umeda_I_cper(k, n).body,
                )
            )
            checks.append(
                (
                    f"central H:{k}@n={n}",
                    lambda k=k, n=n: enveloping.is_central(
                        central.capelli_H(k, n).body, n
                    ),
                )
            )
            checks.append(
                (
                    f"central I:{k}@n={n}",
                    lambda k=k, n=n: enveloping.is_central(
                        central.nazarov_umeda_I(k, n).body, n
                    ),
                )
            )
    rng = random.Random(seed)
    n = min(max_n, 3)
    monos = _monomials(n, d, 2)
    for i in range(8):
        word = enveloping.random_balanced_word(rng, n, max_len=min(6, 2 * max_size))
        checks.append(
            (
                f"devirt-action n={n} i={i}",
                lambda word=word, monos=monos: _action_matches(word, monos),
            )
        )
    return checks


def _monomials(n: int, d: int, max_deg: int) -> list:
    variables = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    out = [{(): Fraction(1)}]
    for deg in range(1, max_deg + 1):
        for combo in combinations_with_replacement(variables, deg):
            q = {(): Fraction(1)}
            for v in combo:
                q = poly_mul(q, {(v,): Fraction(1)})
            if q:
                out.append(q)
    return out


def _action_matches(word, monos) -> bool:
    x = {word: Fraction(1)}
    image = enveloping.devirtualize(x)
    return all(
        enveloping.act(x, p) == enveloping.act(image, p) for p in monos
    )


def _suite_schur(max_size: int, max_n: int, seed: int, d: int, schur) -> list:
    checks = []
    for n in range(1, max_n + 1):
        for lam in partitions_upto(max_size, include_empty=False):
            if conjugate(lam)[0] > n:
                continue
            name = f"S:{format_partition(lam)}@n={n}"
            checks.append(
                (
                    f"eigen-diag {name}",
                    lambda lam=lam, n=n: central.eigenvalue(schur(lam, n), lam)
                    == hook_number(lam),
                )
            )

            def vanish(lam=lam, n=n):
                x = schur(lam, n)
                for mu in partitions_upto(size(lam), include_empty=False):
                    if mu == lam or len(mu) > n:
                        continue
                    if central.eigenvalue(x, mu) != 0:
                        return False
                return True

            checks.append((f"eigen-vanish {name}", vanish))
            checks.append(
                (
                    f"central {name}",
                    lambda lam=lam, n=n: enveloping.is_central(schur(lam, n).body, n),
                )
            )
    return checks


def _suite_duality(max_size: int, max_n: int, seed: int, d: int, schur) -> list:
    checks = []
    for n in range(2, max_n + 1):
        for lam in partitions_upto(max_size, include_empty=False):
            if size(lam) > n:
                continue
            checks.append(
                (
                    f"dual S:{format_partition(lam)}@n={n}",
                    lambda lam=lam, n=n: central.duality_W(schur(lam, n)).body
                    == schur(conjugate(lam), n).body,
                )
            )
        for k in range(1, min(n, max_size) + 1):
            checks.append(
                (
                    f"dual-involution H:{k}@n={n}",
                    lambda k=k, n=n: central.duality_W(
                        central.duality_W(central.capelli_H(k, n))
                    ).body
                    == central.capelli_H(k, n).body,
                )
            )
    for k in range(1, max_size + 1):
        for mu in partitions_upto(max_size, include_empty=False):
            if mu[0] > max_n or conjugate(mu)[0] > max_n:
                continue
            nv = max(k, mu[0], len(mu), 1)
            checks.append(
                (
                    f"strip-duality k={k} mu={format_partition(mu)}",
                    lambda k=k, mu=mu, nv=nv: shifted.eval_at_partition(
                        shifted.e_star(k, nv), conjugate(mu)
                    )
                    == shifted.eval_at_partition(shifted.h_star(k, nv), mu),
                )
            )
    return checks


def _suite_olshanski(max_size: int, max_n: int, seed: int, d: int, schur) -> list:
    checks = []
    for n in range(2, max_n + 1):
        for k in range(1, min(n - 1, max_size) + 1):
            checks.append(
                (
                    f"project H:{k}@n={n}",
                    lambda k=k, n=n: central.olshanski_project(
                        central.capelli_H(k, n)
                    ).body
                    == central.capelli_H(k, n - 1).body,
                )
            )
            checks.append(
                (
                    f"project I:{k}@n={n}",
                    lambda k=k, n=n: central.olshanski_project(
                        central.nazarov_umeda_I(k, n)
                    ).body
                    == central.nazarov_umeda_I(k, n - 1).body,
                )
            )
        checks.append(
            (
                f"project-top H:{n}@n={n}",
                lambda n=n: central.olshanski_project(central.capelli_H(n, n)).body
                == {},
            )
        )
        for lam in partitions_upto(max_size, include_empty=False):
            if conjugate(lam)[0] > n - 1:
                continue
            checks.append(
                (
                    f"project S:{format_partition(lam)}@n={n}",
                    lambda lam=lam, n=n: central.olshanski_project(schur(lam, n)).body
                    == schur(lam, n - 1).body,
                )
            )
            checks.append(
                (
                    f"embed-retract S:{format_partition(lam)}@n={n - 1}",
                    lambda lam=lam, n=n: central.olshanski_project(
                        central.embed(schur(lam, n - 1))
                    ).body
                    == schur(lam, n - 1).body,
                )
            )
    return checks


def _suite_hc(max_size: int, max_n: int, seed: int, d: int, schur) -> list:
    checks = []
    for n in range(1, max_n + 1):
        for k in range(1, min(n, max_size) + 1):
            checks.append(
                (
                    f"hc-e* H:{k}@n={n}",
                    lambda k=k, n=n: (
                        shifted.harish_chandra(central.capelli_H(k, n))
                        == shifted.e_star(k, n)
                    ),
                )
            )
        for k in range(1, max_size + 1):
            checks.append(
                (
                    f"hc-h* I:{k}@n={n}",
                    lambda k=k, n=n: (
                        shifted.harish_chandra(central.nazarov_umeda_I(k, n))
                        == shifted.h_star(k, n)
                    ),
                )
            )
        for lam in partitions_upto(max_size, include_empty=False):
            if conjugate(lam)[0] > n:
                continue
            checks.append(
                (
                    f"hc-s* S:{format_partition(lam)}@n={n}",
                    lambda lam=lam, n=n: (
                        shifted.harish_chandra(schur(lam, n))
                        == shifted.s_star(lam, n)
                        == shifted.s_star_determinant(lam, n)
                    ),
                )
            )
    return checks


_SUITE_BUILDERS = {
    "core": _suite_core,
    "schur": _suite_schur,
    "duality": _suite_duality,
    "olshanski": _suite_olshanski,
    "hc": _suite_hc,
}


def _run_check(fn) -> tuple:
    try:
        return (bool(fn()), "")
    except Exception as exc:
        return (False, f" (error: {exc})")


def cmd_verify(args) -> int:
    if args.suite is not None and args.suite not in _SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; pick from {', '.join(_SUITES)}")
    if args.max_size < 1 or args.max_n < 1:
        raise UsageError("--max-size and --max-n must be at least 1")
    if args.d < 1:
        raise UsageError(f"--d must be at least 1, got {args.d}")
    names = [args.suite] if args.suite else list(_SUITES)
    built = {}  # S_lam(n) by the definition, once per (lam, n) of this run

    def schur(lam, n):
        # central.schur_element is looked up at call time, so a rebinding of
        # it sees every real build; each check gets a copy of its own
        if (lam, n) not in built:
            built[lam, n] = central.schur_element(lam, n)
        x = built[lam, n]
        return central.CentralElement(dict(x.body), x.n, x.provenance)

    lines = []
    summary_checks = []
    failures = 0
    for name in names:
        checks = _SUITE_BUILDERS[name](args.max_size, args.max_n, args.seed, args.d, schur)
        passed = 0
        for label, fn in checks:
            start = time.perf_counter()
            ok, note = _run_check(fn)
            seconds = time.perf_counter() - start
            passed += ok
            failures += not ok
            lines.append(("PASS " if ok else "FAIL ") + label + note)
            summary_checks.append(
                {
                    "name": label,
                    "seconds": seconds,
                    "status": "pass" if ok else "fail",
                    "suite": name,
                }
            )
        lines.append(f"suite {name}: {passed}/{len(checks)} passed")
    if args.format == "json":
        summary = {
            "checks": summary_checks,
            "max_n": args.max_n,
            "max_size": args.max_size,
            "passed": sum(1 for c in summary_checks if c["status"] == "pass"),
            "seed": args.seed,
            "suites": names,
            "total": len(summary_checks),
        }
        lines.append(json.dumps(summary, sort_keys=True))
    _emit("\n".join(lines), args.out)
    return 1 if failures else 0


def _add_output_flags(p) -> None:
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def _add_element_flags(p) -> None:
    p.add_argument("--spec", help="element spec KIND:payload@n=N")
    p.add_argument(
        "--lambda",
        dest="lam",
        metavar="PARTITION",
        help="shorthand for --spec S:PARTITION@n=N (needs --n)",
    )
    p.add_argument("--k", type=int, help="shorthand for --spec H:K@n=N (needs --n)")
    p.add_argument("--n", type=int, help="proper alphabet size for --lambda/--k")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glcenter",
        description="Exact computations in the center of U(gl(n)).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("element", help="build an element and print its PBW form")
    _add_element_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("eigen", help="eigenvalue on the highest weight module of --mu")
    _add_element_flags(p)
    p.add_argument("--mu", metavar="PARTITION", help="highest weight as a partition")
    _add_output_flags(p)

    p = sub.add_parser("hc", help="Harish-Chandra image as a shifted symmetric polynomial")
    _add_element_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("dual", help="apply the duality involution")
    _add_element_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("project", help="project one alphabet letter away")
    _add_element_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", help=f"one of {', '.join(_SUITES)}; default all")
    p.add_argument("--max-size", type=int, default=3, help="partition size cap")
    p.add_argument("--max-n", type=int, default=2, help="alphabet size cap")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument(
        "--d", type=int, default=2, help="place columns for action checks"
    )
    _add_output_flags(p)
    return parser


_DISPATCH = {
    "element": cmd_element,
    "eigen": cmd_eigen,
    "hc": cmd_center_map,
    "dual": cmd_center_map,
    "project": cmd_center_map,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.verb](args)
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
