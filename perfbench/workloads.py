"""Request decks for the three workloads.

A deck is a sequence of rounds. Each round holds the workload's fixed mix of
request kinds, drawn afresh from the seeded generators and shuffled, so any
prefix of the deck keeps the mix to within one round. The program sees only
the generated specs; the seed stays with the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks
import specs
from specs import CANTOR_QUARTER, EX1, EXAMPLES, FULL_TWO_FIFTHS

# request depths at full size, and the tiny ones the smoke run uses
FULL = {"deep": 12, "mid": 11, "render": 9, "shallow": 6, "cantor": 8, "cantor_deep": 9,
        "refuse": 16, "gaps": 6, "gaps_seeded": 5, "verify": 10, "verify_cantor": 9}
TINY = {"deep": 4, "mid": 3, "render": 3, "shallow": 3, "cantor": 3, "cantor_deep": 4,
        "refuse": 16, "gaps": 2, "gaps_seeded": 2, "verify": 6, "verify_cantor": 4}

REFUSAL_BUDGET = 1_000_000


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple[str, ...]
    check: Callable | None  # given the parsed stdout; None for a refusal
    exit_code: int = 0
    text: bool = False  # stdout is text, not JSON


def _approx(kind, seq, depth, regime) -> Request:
    return Request(kind, ("approx", "--spec", seq.spec(), "--depth", str(depth)),
                   checks.approx(seq, depth, regime))


def _verify(kind, seq, measure, depth, names) -> Request:
    return Request(kind, ("verify", "--spec", checks.certificate(seq, measure), "--depth", str(depth)),
                   checks.verify_passed(names))


def _render(seq, depth) -> Request:
    return Request("render", ("render", "--spec", seq.spec(), "--depth", str(depth), "--format", "text"),
                   checks.render_text(seq, depth), text=True)


def overlap_round(rng: random.Random, size: dict) -> list[Request]:
    """Specs whose 3^n coded intervals merge into few parts."""
    example, _, _ = rng.choice(EXAMPLES)
    full = FULL_TWO_FIFTHS if rng.random() < 0.5 else specs.full_constant(rng)
    shown = rng.choice((example, specs.mixed_period(rng)))
    return [
        _approx("approx-deep", example, size["deep"], "certified"),
        _approx("approx-deep", specs.mixed_period(rng), size["deep"], "certified"),
        _approx("approx-deep", full, size["deep"], "full"),
        _approx("approx-mid", rng.choice(EXAMPLES)[0], size["mid"], "certified"),
        _approx("approx-mid", specs.mixed_period(rng), size["mid"], "certified"),
        *(_approx("approx-mid", specs.finite_union(rng), size["mid"], "finite") for _ in range(2)),
        _approx("approx-shallow", specs.mixed_period(rng), size["shallow"], "certified"),
        _render(shown, size["render"]),
        Request("classify-unknown", ("classify", "--spec", (p := specs.perturbed(rng)).spec()),
                checks.classify_unknown(p)),
    ]


def disjoint_round(rng: random.Random, size: dict) -> list[Request]:
    """Specs with every ratio below 1/3: all 3^n parts survive."""
    cantor = [specs.cantor_period(rng) for _ in range(7)]
    quarter_or_seeded = [CANTOR_QUARTER if rng.random() < 0.5 else specs.cantor_period(rng) for _ in range(2)]
    names = ("verdict-matches", "measure-strictly-decreasing", "pairwise-oracle-agrees")
    return [
        _approx("approx-cantor", CANTOR_QUARTER, size["cantor"], "cantor"),
        *(_approx("approx-cantor", seq, size["cantor"], "cantor") for seq in cantor[:4]),
        _approx("approx-cantor-deep", quarter_or_seeded[0], size["cantor_deep"], "cantor"),
        _verify("verify-cantor", quarter_or_seeded[1], None, size["verify_cantor"], names),
        _approx("approx-shallow", cantor[4], size["shallow"], "cantor"),
        *(Request("refusal", ("approx", "--spec", seq.spec(), "--depth",
                              str(rng.randint(size["refuse"] - 2, size["refuse"])),
                              "--budget", str(REFUSAL_BUDGET)), None, exit_code=4)
          for seq in cantor[5:7]),
    ]


def certify_round(rng: random.Random, size: dict) -> list[Request]:
    """Certificates, gap families and the series bridge on Cantorvals."""
    bits = [specs.doubling_bits(rng, rng.choice((2, 3))) for _ in range(4)]
    seeded = [specs.pattern_lambda(b) for b in bits]
    example, _, example_measure = rng.choice(EXAMPLES)
    names = ("verdict-matches", "closed-form-measure", "complement-equals-family",
             "pairwise-oracle-agrees")
    return [
        *(Request("gaps", ("gaps", "--spec", EX1.spec(), "--depth", str(size["gaps"])),
                  checks.gaps(EX1, size["gaps"]))
          for _ in range(2)),
        Request("gaps", ("gaps", "--spec", seeded[0].spec(), "--depth", str(size["gaps_seeded"])),
                checks.gaps(seeded[0], size["gaps_seeded"])),
        _verify("verify", example, example_measure, size["verify"], names),
        _verify("verify", seeded[1], specs.pattern_measure(bits[1]), size["verify"] - 1, names),
        _verify("verify", seeded[2], specs.pattern_measure(bits[2]), size["verify"] - 2, names),
        Request("classify", ("classify", "--spec", seeded[3].spec()),
                checks.classify_cantorval(seeded[3], specs.pattern_measure(bits[3]))),
        Request("measure", ("measure", "--spec", (fixed := rng.choice(EXAMPLES))[0].spec()),
                checks.measure_value(fixed[2])),
        Request("series", ("series", "--spec", '{"k":{"prefix_bits":"","period_bits":"%s"}}' % bits[0]),
                checks.series_pattern(bits[0])),
        Request("examples", ("examples",), checks.examples(EXAMPLES)),
    ]


WORKLOADS = {"overlap-enum": overlap_round, "disjoint-enum": disjoint_round, "certify": certify_round}


def deck(workload: str, seed: int, rounds: int, tiny: bool = False) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds):
        batch = WORKLOADS[workload](rng, TINY if tiny else FULL)
        rng.shuffle(batch)
        out.extend(batch)
    return out
