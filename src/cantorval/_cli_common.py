"""What `cli.py` and the command handler modules share: reading the input,
the depth option, the digit-limit checks, bulk rows and their chunks.

Handler modules import this module, never `cantorval.cli`: under
`python -m cantorval.cli` that import would run `cli.py` a second time.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterator, Sequence

from .construction import RatioSequence
from .errors import SpecValidationError
from .rationals import fill_rows
from .records import Record


def _load_input(spec: str | None) -> dict:
    """Accept a file path or inline JSON (anything starting with '{')."""
    if spec is None:
        raise SpecValidationError("this command needs --spec")
    raw = spec.strip()
    if raw.startswith("{"):
        source, origin = raw, "inline spec"
    else:
        try:
            with open(spec, encoding="utf-8") as handle:
                source = handle.read()
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


# a union's JSON row template at indent {0}
_UNION_ROW = '[{0}  "%d/%d",{0}  "%d/%d"{0}]'


class _Rows(Record):
    """A JSON list of count rows cut from one template: cut(a, b) gives the
    columns of rows a..b-1, and a %d/%d slot's column holds numerators over denom."""

    template: str
    count: int
    denom: int
    cut: Callable[[int, int], list]


def _union_rows(los: Sequence[int], his: Sequence[int], denom: int) -> _Rows:
    return _Rows(template=_UNION_ROW, count=len(los), denom=denom, cut=lambda a, b: [los[a:b], his[a:b]])


# bulk output is cut into pieces of at most this many rows
_CHUNK_ROWS = 4096


def _chunks(row: str, rows: _Rows) -> Iterator[str]:
    for a in range(0, rows.count, _CHUNK_ROWS):
        yield fill_rows(row, rows.cut(a, a + _CHUNK_ROWS), rows.denom)
