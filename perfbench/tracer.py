"""Run one `cantorval` CLI request with its public kernels timed from outside.

    python perfbench/tracer.py FD cantorval-args...

The wrapper replaces each traced function at every module that binds it,
since `from .diffsets import diff_approximation` copies the name into
`classify`, `cli` and `render`. Spans (name, parent, start, end) and counts
stay in memory; when the request ends, their per-name totals go to the pipe
file descriptor FD as one JSON object. Standard output, standard error and
the exit status are the CLI's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from time import perf_counter_ns

# module -> public functions traced in it
FUNCTIONS = {
    "budget": ("charge",),
    "rationals": ("format_rational", "parse_rational"),
    "intervals": ("minkowski_diff", "complement_gaps", "normalize"),
    "construction": ("depth_length", "scaled_lengths", "cantor_approximation"),
    "diffsets": ("diff_approximation", "diff_interval", "gap_bounds"),
    "gapforest": ("gap_family", "small_ratio_indices", "gap_union_measure"),
    "classify": ("classify", "verify_certificate", "depth_report"),
    "series": ("series_from_pattern", "ratios_from_series"),
    "render": ("depth_stack", "ascii_depth_stack"),
    "cli": ("main",),
}
# (module, class, attribute) traced on the class itself
METHODS = (
    ("intervals", "IntervalUnion", "measure"),
    ("intervals", "IntervalUnion", "to_json"),
    ("intervals", "IntervalUnion", "__eq__"),
    ("gapforest", "GapFamily", "to_json"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.open: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def wrap(self, name: str, fn, after=None, errors=None):
        """`fn` recorded as span `name`; `after(args, kwargs, result)` and
        `errors(exc)` run once the span has closed."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = perf_counter_ns()
                stack.pop()
                if errors is not None:
                    errors(exc)
                raise
            end[idx] = perf_counter_ns()
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls and self time: a span's duration minus its children's."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, up, t0, t1 in zip(self.name_of, self.parent, self.start, self.end):
            calls[nid] += 1
            self_ns[nid] += t1 - t0
            if up >= 0:
                self_ns[self.name_of[up]] -= t1 - t0
        spans = {
            name: {"calls": calls[i], "self_ms": self_ns[i] / 1e6}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        return {"spans": spans, "counts": self.counts, "maxima": self.maxima}


def install(tracer: Tracer) -> None:
    import cantorval.cli  # noqa: F401  (loads every module of the package)
    from cantorval import construction, errors

    modules = [m for name, m in sys.modules.items() if name == "cantorval" or name.startswith("cantorval.")]
    scaled_lengths = construction.scaled_lengths

    def diff_after(args, kwargs, result):
        seq = args[0] if args else kwargs["seq"]
        depth = args[1] if len(args) > 1 else kwargs["depth"]
        tracer.add("diffsets.diff_approximation.coded_intervals", 3**depth)
        tracer.add("diffsets.diff_approximation.parts_out", len(result.parts))
        tracer.peak("diffsets.diff_approximation.denom_bits", scaled_lengths(seq, depth)[1].bit_length())

    def charge_after(args, kwargs, result):
        tracer.peak("budget.charge.max_needed", args[0] if args else kwargs["needed"])

    def charge_error(exc):
        if isinstance(exc, errors.DepthBudgetError):
            tracer.peak("budget.charge.max_needed", exc.needed)
            tracer.add("budget.refusals", 1)

    def family_after(args, kwargs, result):
        tracer.add("gapforest.gap_family.gaps", sum(len(g) for _, g in result.levels))

    hooks = {
        "diffsets.diff_approximation": {"after": diff_after},
        "budget.charge": {"after": charge_after, "errors": charge_error},
        "gapforest.gap_family": {"after": family_after},
    }
    for module, names in FUNCTIONS.items():
        home = sys.modules[f"cantorval.{module}"]
        for attr in names:
            original = getattr(home, attr)
            wrapped = tracer.wrap(f"{module}.{attr}", original, **hooks.get(f"{module}.{attr}", {}))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
    for module, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"cantorval.{module}"], cls_name)
        name = f"{module}.{cls_name}.{attr}"
        original = cls.__dict__[attr]
        if isinstance(original, property):
            setattr(cls, attr, property(tracer.wrap(name, original.fget)))
        else:
            setattr(cls, attr, tracer.wrap(name, original))


def main() -> int:
    fd, args = int(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import cantorval.cli

    try:
        return cantorval.cli.main(args)
    except SystemExit as exc:  # argparse exits on bad arguments
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as pipe:
            json.dump(tracer.summary(), pipe)


if __name__ == "__main__":
    sys.exit(main())
