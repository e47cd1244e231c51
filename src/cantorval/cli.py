"""Command-line front end.

Parses spec files (or inline JSON), runs classification, measure, gap, and
series computations, verifies certificates, and emits deterministic JSON,
plain text, or self-contained SVG. Exit codes are stable: 0 success,
1 verification failure, 2 parse/validation error, 3 hypothesis violation,
4 interval budget or the interpreter's digit limit on an exact value exceeded.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

from .budget import charge_power
from .construction import THIRD, RatioSequence, depth_length
from .diffsets import code_str, diff_approximation
from .errors import (
    AssumptionError,
    CantorvalError,
    SpecValidationError,
    VerificationError,
)
from .intervals import IntervalUnion
from .rationals import fill_rows, format_rational, parse_rational
from .records import Record

_EXAMPLES = (
    {
        "k_rule": "2n",
        "period_bits": (0, 1),
        "period": ("7/15", "5/21"),
        "measure": "8/5",
    },
    {
        "k_rule": "3n",
        "period_bits": (0, 0, 1),
        "period": ("8/21", "11/24", "7/33"),
        "measure": "13/7",
    },
    {
        "k_rule": "2,3,5,6,...",
        "period_bits": (0, 1, 1),
        "period": ("25/51", "23/75", "17/69"),
        "measure": "26/17",
    },
)


def _load_input(spec: str | None) -> dict:
    """Accept a file path or inline JSON (anything starting with '{')."""
    if spec is None:
        raise SpecValidationError("this command needs --spec")
    raw = spec.strip()
    if raw.startswith("{"):
        source, origin = raw, "inline spec"
    else:
        try:
            source = Path(spec).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecValidationError(f"cannot read spec file {spec}: {exc}") from exc
        origin = spec
    try:
        data = json.loads(source)
    except (ValueError, RecursionError) as exc:  # also nesting too deep
        limit = _digit_limit(exc)
        reason = f"an integer {limit}" if limit else exc
        raise SpecValidationError(f"{origin}: invalid JSON: {reason}") from exc
    if not isinstance(data, dict):
        raise SpecValidationError(f"{origin}: top-level JSON must be an object")
    return data


def _digit_limit(exc: BaseException) -> str | None:
    """For the interpreter's refusal to convert an int of more digits than its limit
    to or from a string, that limit, without the advice to call
    sys.set_int_max_str_digits(), which a command line cannot take; None for any
    other error."""
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        return f"has more than {sys.get_int_max_str_digits()} digits, the interpreter's limit"
    return None


def _check_digits(*denoms: int) -> None:
    """Meet the digit limit on bulk rows before their first byte is written: every
    end of a union or a gap family lies in [-1, 1], so it has no more digits than
    its denominator, and converting that raises the ValueError main reports."""
    for denom in denoms:
        str(denom)


def _lambda_spec(data: dict) -> RatioSequence:
    if "lambda" not in data:
        raise SpecValidationError('expected a top-level "lambda" key')
    return RatioSequence.from_json(data["lambda"])


def _depth(args, default: int, minimum: int = 0) -> int:
    depth = default if args.depth is None else args.depth
    if depth < minimum:
        raise SpecValidationError(f"--depth must be >= {minimum}")
    return depth


def _cert_text(cert) -> str:
    lines = [f"verdict: {cert.verdict}", f"rule: {cert.rule}"]
    if cert.measure is not None:
        lines.append(f"measure: {format_rational(cert.measure)}")
    if cert.base is not None:
        lines.append(f"k0: {cert.base}")
    if cert.residuals is not None:
        worst = max((abs(e.value) for e in cert.residuals), default=Fraction(0))
        lines.append(f"residuals: {len(cert.residuals)} checked, largest |value| {worst}")
    if cert.stable_depth is not None:
        lines.append(f"stable_depth: {cert.stable_depth}")
    if cert.report is not None:
        for row in cert.report:
            lines.append(
                f"depth {row.depth}: measure {format_rational(row.measure)}, "
                f"{row.gap_count} gaps"
            )
    return "\n".join(lines) + "\n"


def _cmd_classify(args, budget):
    from .classify import classify

    cert = classify(_lambda_spec(_load_input(args.spec)), base=args.k0, budget=budget)
    return _cert_text(cert) if args.format == "text" else cert.to_json(), 0


def _cmd_measure(args, budget):
    from .classify import classify

    cert = classify(_lambda_spec(_load_input(args.spec)), budget=budget)
    if cert.measure is None:
        raise AssumptionError(
            f"no exact measure available (verdict {cert.verdict}); the closed "
            "form needs every cover equation to vanish with k0 = 0"
        )
    measure = format_rational(cert.measure)
    return measure + "\n" if args.format == "text" else {"verdict": cert.verdict, "measure": measure}, 0


def _cmd_approx(args, budget):
    seq = _lambda_spec(_load_input(args.spec))
    depth = _depth(args, 4)
    charge_power(3, depth, budget)
    if depth and seq.ratio_at(depth) < THIRD:
        # the leftmost part is then exactly [-1, -1 + 2 d_n], so the reduced
        # denominator of 2 d_n divides union.denom: the same refusal, before the fold
        _check_digits((2 * depth_length(seq, depth)).denominator)
    union = diff_approximation(seq, depth, budget)
    _check_digits(union.denom)
    if args.format == "text":
        return _union_text(union), 0
    # _json writes the union's parts straight from its lattice
    return {"depth": depth, "count": len(union.los), "measure": format_rational(union.measure), "parts": union}, 0


def _cmd_gaps(args, budget):
    from .gapforest import gap_family, smallest_valid_base

    seq = _lambda_spec(_load_input(args.spec))
    base = smallest_valid_base(seq)
    if base > 0:
        raise AssumptionError(f"the gap family under the empty root needs k0 = 0, got k0 = {base}")
    # the root family starts at level 1
    levels = _depth(args, 3, minimum=1)
    family = gap_family(seq, (), levels, budget=budget)
    if args.format == "json":
        _check_digits(family.denom)
        return _family_rows(family), 0
    # the text body prints counts only
    lines = [f"k0: {family.base}"]
    for n, gaps in family.levels:
        lines.append(f"level {n}: {len(gaps)} gaps")
    return "\n".join(lines) + "\n", 0


def _cmd_series(args, budget):
    from .series import (
        DoublingPattern,
        MultigeometricSeries,
        is_fast_convergent,
        kakeya_classify,
        multigeometric_form,
        ratios_from_series,
        series_from_pattern,
        series_from_ratios,
    )

    data = _load_input(args.spec)
    kinds = set(data) & {"lambda", "series", "k"}
    if len(kinds) != 1:
        raise SpecValidationError(
            'input must contain exactly one of "lambda", "series", or "k"'
        )
    kind = kinds.pop()

    if kind == "lambda":
        seq = RatioSequence.from_json(data["lambda"])
        series = series_from_ratios(seq)
        payload = {
            "input": {"lambda": seq.to_json()},
            "series": series.to_json(),
            "total": format_rational(series.total),
            "kakeya": kakeya_classify(series),
        }
    elif kind == "series":
        series = MultigeometricSeries.from_json(data["series"])
        fast = is_fast_convergent(series)
        payload = {
            "input": {"series": series.to_json()},
            "kakeya": kakeya_classify(series),
            "total": format_rational(series.total),
            "lambda": ratios_from_series(series).to_json() if fast else None,
        }
    else:
        pattern = DoublingPattern.from_json(data["k"])
        series, seq, cert = series_from_pattern(pattern)
        diff_measure = series.total * cert.measure
        form = None if pattern.prefix_bits else multigeometric_form(pattern).to_json()
        payload = {
            "input": {"k": pattern.to_json()},
            "series": series.to_json(),
            "lambda": seq.to_json(),
            "verdict": cert.verdict,
            "measure": format_rational(cert.measure),
            "difference_measure": format_rational(diff_measure),
            "multigeometric": form,
        }

    if args.format == "json":
        return payload, 0
    text = "".join(
        f"{key}: {json.dumps(value, sort_keys=True)}\n" for key, value in sorted(payload.items())
    )
    return text, 0


def _cmd_verify(args, budget):
    from .classify import VERDICT_CANTOR, Certificate, verification_passed, verify_certificate

    cert = Certificate.from_json(_load_input(args.spec))
    # a CantorSet's measure check compares depths depth - 1 and depth
    depth = _depth(args, 6, minimum=1 if cert.verdict == VERDICT_CANTOR else 0)
    checks = verify_certificate(cert, depth=depth, budget=budget)
    passed = verification_passed(checks)
    status = 0 if passed else 1
    if args.format == "json":
        return {"passed": passed, "checks": [c.to_json() for c in checks]}, status
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f" — {c.detail}" if c.detail else "")
        for c in checks
    ]
    lines.append("verification " + ("passed" if passed else "FAILED"))
    return "\n".join(lines) + "\n", status


def _cmd_render(args, budget):
    from .render import ascii_depth_stack, depth_stack, svg_depth_stack

    seq = _lambda_spec(_load_input(args.spec))
    stack = depth_stack(seq, _depth(args, 5), budget)
    if args.format != "json":
        return {"text": ascii_depth_stack, "svg": svg_depth_stack}[args.format](stack), 0
    # DepthStack.to_json(), with each row's parts and family gaps written by _json from the lattice
    _check_digits(stack.gap_denom, *(row.union.denom for row in stack.rows))
    rows = []
    for row in stack.rows:
        gaps = _union_rows([lo for lo, _ in row.family_gaps], [hi for _, hi in row.family_gaps], stack.gap_denom)
        rows.append({"depth": row.depth, "parts": row.union, "family_gaps": gaps})
    return {"hull": ["-1", "1"], "rows": rows}, 0


def _cmd_examples(args, budget):
    from .series import DoublingPattern, series_from_pattern

    text = args.format == "text"
    body = []  # one text line or one JSON row per example
    for entry in _EXAMPLES:
        pattern = DoublingPattern(prefix_bits=(), period_bits=entry["period_bits"])
        series, seq, cert = series_from_pattern(pattern)
        expected_period = tuple(parse_rational(x) for x in entry["period"])
        expected_measure = parse_rational(entry["measure"])
        if seq.prefix or seq.period != expected_period:
            raise VerificationError(
                f"pattern {entry['k_rule']} induced ratios {seq.to_json()}, "
                f"expected period {entry['period']}"
            )
        if cert.measure != expected_measure:
            raise VerificationError(
                f"pattern {entry['k_rule']} gave measure {cert.measure}, "
                f"expected {entry['measure']}"
            )
        body.append(
            f"k = {entry['k_rule']:<12} lambda period ({', '.join(entry['period'])})"
            f"  measure {entry['measure']}  difference-set measure 3"
            if text
            else {
                "k_rule": entry["k_rule"],
                "pattern": pattern.to_json(),
                "lambda_period": list(entry["period"]),
                "verdict": cert.verdict,
                "measure": entry["measure"],
                "difference_measure": "3",
            }
        )
    return "\n".join(body) + "\n" if text else {"examples": body}, 0


_JSON_TEXT = ("json", "text")
# each command's handler, help, options besides --format and --out, and --format
# values with the default first, as README's "Flags and limits" lists them. A
# handler returns (body, exit status): a str or an iterator of str printed as it
# is, or a JSON value.
_COMMANDS = {
    "classify": (_cmd_classify, "decide the trichotomy and emit a certificate", ("spec", "budget", "k0"), _JSON_TEXT),
    "measure": (_cmd_measure, "exact measure of the difference set", ("spec", "budget"), _JSON_TEXT),
    "approx": (_cmd_approx, "difference-set approximation at a depth", ("spec", "depth", "budget"), _JSON_TEXT),
    "gaps": (_cmd_gaps, "persistent gap family by level", ("spec", "depth", "budget"), _JSON_TEXT),
    "series": (_cmd_series, "convert between ratio, series, and doubling-pattern forms", ("spec",), _JSON_TEXT),
    "verify": (_cmd_verify, "recheck a certificate and its invariants", ("spec", "depth", "budget"), _JSON_TEXT),
    "render": (
        _cmd_render, "depth-stack picture of the difference set", ("spec", "depth", "budget"), ("svg", "json", "text")
    ),
    "examples": (_cmd_examples, "reproduce the three bundled examples end to end", (), _JSON_TEXT),
}
_HANDLERS = {name: entry[0] for name, entry in _COMMANDS.items()}
_OPTIONS = {
    "spec": (str, "spec file path, or inline JSON starting with '{'"),
    "depth": (int, "construction depth / family levels"),
    "budget": (int, "max intervals per enumeration"),
    "k0": (int, "override the base split index"),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, with one subparser per command."""
    import argparse  # only help and the argv _parse_plain declines load it

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # main prints it as one error: line and exits 2
            raise SpecValidationError(f"{self.prog}: {message}")

    parser = _Parser(
        prog="cantorval",
        description="Exact classification and measure of central Cantor set "
        "difference sets, with series and doubling-pattern conversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text, options, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            kind, option_help = _OPTIONS[option]
            p.add_argument(f"--{option}", type=kind, help=option_help)
        default = formats[0]
        p.add_argument("--format", choices=formats, default=default, help=f"output format (default {default})")
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives, for a command
    followed by "--flag value" pairs: each flag one of the command's, spelled in
    full and given once, no value starting with "-", each int value taken by
    int() and the format one of the command's. None for any other argv."""
    flags, values = argv[1::2], argv[2::2]
    # a flag without its value, or a flag given twice
    if not argv or argv[0] not in _COMMANDS or len(flags) != len(values) or len(set(flags)) < len(flags):
        return None
    _, _, options, formats = _COMMANDS[argv[0]]
    kinds = {f"--{name}": _OPTIONS[name][0] for name in options} | {"--format": str, "--out": str}
    args = {flag[2:]: None for flag in kinds} | {"command": argv[0], "format": formats[0]}
    for flag, value in zip(flags, values):
        if flag not in kinds or value.startswith("-"):
            return None
        try:
            args[flag[2:]] = kinds[flag](value)  # the call argparse makes
        except ValueError:
            return None
    return SimpleNamespace(**args) if args["format"] in formats else None


# bulk output is cut into pieces of at most this many rows, and written once
# at least this many characters have gathered
_CHUNK_ROWS = 4096
_WRITE_CHARS = 1 << 16
# JSON row templates at indent {0}, with keys sorted
_UNION_ROW = '[{0}  "%d/%d",{0}  "%d/%d"{0}]'
_GAP_ROW = '{{{0}  "code": "%s",{0}  "hi": "%d/%d",{0}  "lo": "%d/%d",{0}  "side": %d{0}}}'


class _Rows(Record):
    """A JSON list of count rows cut from one template: cut(a, b) gives the
    columns of rows a..b-1, and a %d/%d slot's column holds numerators over denom."""

    template: str
    count: int
    denom: int
    cut: Callable[[int, int], list]


def _union_rows(los: Sequence[int], his: Sequence[int], denom: int) -> _Rows:
    return _Rows(template=_UNION_ROW, count=len(los), denom=denom, cut=lambda a, b: [los[a:b], his[a:b]])


def _level_rows(gaps: dict, denom: int) -> _Rows:
    refs = list(gaps)

    def cut(a: int, b: int) -> list:
        part = refs[a:b]
        ends = [gaps[ref] for ref in part]
        return [[code_str(c) for c, _ in part], [hi for _, hi in ends], [lo for lo, _ in ends], [s for _, s in part]]

    return _Rows(template=_GAP_ROW, count=len(refs), denom=denom, cut=cut)


def _family_rows(family) -> dict:
    """A GapFamily's to_json(), with each level's gaps as _Rows on the family's lattice."""
    levels = {str(n): _level_rows(gaps, family.denom) for n, gaps in family.levels}
    return {"k0": family.base, "levels": levels, "root": code_str(family.root)}


def _chunks(row: str, rows: _Rows) -> Iterator[str]:
    for a in range(0, rows.count, _CHUNK_ROWS):
        yield fill_rows(row, rows.cut(a, a + _CHUNK_ROWS), rows.denom)


def _union_text(union: IntervalUnion) -> Iterator[str]:
    return _chunks("[%d/%d, %d/%d]\n", _union_rows(union.los, union.his, union.denom))


def _json(value, indent: str = "\n") -> Iterator[str]:
    """The pieces of json.dumps(value, indent=2, sort_keys=True), value standing
    at indent, for the payloads the commands build: dicts with str keys, lists,
    tuples, str, int, bool and None. An IntervalUnion is written as its
    to_json(); its list of parts, and a _Rows value, go out one piece per chunk
    of at most _CHUNK_ROWS rows, cut from one template."""
    if isinstance(value, IntervalUnion):
        value = _union_rows(value.los, value.his, value.denom)
    inner = indent + "  "
    if isinstance(value, (dict, list, tuple)) and value:
        keyed = isinstance(value, dict)
        ends = "{}" if keyed else "[]"
        for i, item in enumerate(sorted(value.items()) if keyed else value):
            yield ("," if i else ends[0]) + inner
            if keyed:
                yield json.dumps(item[0]) + ": "
                item = item[1]
            yield from _json(item, inner)
        yield indent + ends[1]
    elif not isinstance(value, _Rows):
        yield json.dumps(value)
    elif value.count:
        # ends are digits, "-" and "/", and codes are digits: nothing to escape
        chunks = _chunks(f",{inner}" + value.template.format(inner), value)
        yield "[" + next(chunks)[1:]  # every row follows a comma but the first
        yield from chunks
        yield indent + "]"
    else:
        yield "[]"


def _write(out, pieces: Iterable[str]) -> None:
    """Write the pieces, gathered into writes of at least _WRITE_CHARS characters
    but the last. Under PYTHONUNBUFFERED=1 stdout writes through to an unbuffered
    file, so each piece written alone would be one write(2): EX1's verify --depth
    10 JSON output is 195 pieces (2,360 characters) and classify's 64, and
    gathered, each is one write."""
    gathered, size = [], 0
    for piece in pieces:
        gathered.append(piece)
        size += len(piece)
        if size >= _WRITE_CHARS:
            out.write("".join(gathered))
            gathered, size = [], 0
    out.write("".join(gathered))


def _emit(args, body) -> None:
    if isinstance(body, str):
        body = (body,)
    elif not isinstance(body, Iterator):
        body = chain(_json(body), ("\n",))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                _write(out, body)
        except OSError as exc:
            raise SpecValidationError(f"cannot write {args.out}: {exc}") from exc
    else:
        _write(sys.stdout, body)
        sys.stdout.flush()  # a closed pipe shows here, not at exit


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        # a leading "--" only separates options from the command
        if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
            argv = argv[1:]
        args = _parse_plain(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        budget = getattr(args, "budget", None)  # series and examples take no --budget
        if budget is not None and budget < 1:
            raise SpecValidationError("--budget must be >= 1")
        body, status = _HANDLERS[args.command](args, budget)
        try:
            _emit(args, body)
        except BrokenPipeError:
            # the reader closed stdout, having read what it wanted: the exit status
            # stays the command's, and what is still buffered goes to devnull, so
            # that the flush at exit raises nothing either
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return status
    except CantorvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        limit = _digit_limit(exc)
        if limit is None:
            raise
        print(f"error: an exact value of the result {limit}", file=sys.stderr)
        return 4


def run() -> None:
    """The command-line entry point: main(), then the process ends with its status
    once stdout and stderr are flushed, without the interpreter's teardown. main
    has written every byte by then, and cantorval registers no atexit callback; a
    SystemExit or exception leaving main takes the normal exit."""
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
