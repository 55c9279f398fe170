"""Seeded token-level mutations of the fixtures, run through `cli.main`.

Each case takes one fixture and mutates one to three of its tokens (drop,
repeat, swap with the next token, or replace with another token of the
same file), through `random.Random(seed)` only, so every case is
reproducible from its seed.  The mutant runs against an unmutated partner,
on either side, with and without `--oracle`.  Every run must return a
documented exit status and raise nothing: a broken input ends in status 2
with an `error:` line, never in a traceback.
"""

from __future__ import annotations

import random
import re

import pytest

from conftest import FIXTURES, fixture_text
from semdiff.cli import main

SEEDS = range(6)
CASES_PER_SEED = 50
# fixture -> (subcommand, partners, flags); cddiff keeps the oracle's scope
FAMILIES = {
    "cd_v1.cd": ("cddiff", ("cd_v1.cd", "cd_v2.cd"), ("--scope", "3")),
    "cd_v2.cd": ("cddiff", ("cd_v1.cd", "cd_v2.cd"), ("--scope", "3")),
    "ad_v1.ad": ("addiff", ("ad_v1.ad", "ad_v2.ad", "ad_v3.ad"), ()),
    "ad_v2.ad": ("addiff", ("ad_v1.ad", "ad_v2.ad", "ad_v3.ad"), ()),
    "ad_v3.ad": ("addiff", ("ad_v1.ad", "ad_v2.ad", "ad_v3.ad"), ()),
    "om1.od": ("check", ("cd_v1.cd", "cd_v2.cd"), ()),
    "om2.od": ("check", ("cd_v1.cd", "cd_v2.cd"), ()),
}
PIECE = re.compile(r"\s+|\w+|\S")


def mutate(rng: random.Random, text: str) -> str:
    pieces = PIECE.findall(text)
    tokens = [i for i, p in enumerate(pieces) if not p.isspace()]
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(tokens)
        op = rng.randrange(4)
        if op == 0:
            pieces[i] = ""
        elif op == 1:
            pieces[i] = pieces[i] + " " + pieces[i]
        elif op == 2:
            j = tokens[min(tokens.index(i) + 1, len(tokens) - 1)]
            pieces[i], pieces[j] = pieces[j], pieces[i]
        else:
            pieces[i] = pieces[rng.choice(tokens)]
    return "".join(pieces)


def cases(seed: int):
    rng = random.Random(f"fuzz:{seed}")
    for _ in range(CASES_PER_SEED):
        name = rng.choice(sorted(FAMILIES))
        command, partners, flags = FAMILIES[name]
        oracle = command != "check" and rng.random() < 0.5
        yield (command, mutate(rng, fixture_text(name)), str(FIXTURES / rng.choice(partners)),
               rng.random() < 0.5, flags + (("--oracle",) if oracle else ()))


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_inputs_end_in_a_documented_status(seed, tmp_path, capsys):
    mutant = tmp_path / "mutant"
    for command, text, partner, swap, flags in cases(seed):
        mutant.write_text(text, encoding="utf-8")
        pair = [str(mutant), partner]
        if swap and command != "check":
            pair.reverse()
        status = main([command, *pair, *flags])
        err = capsys.readouterr().err
        assert status in range(6), (command, pair, flags, text)
        if status in (2, 4, 5):
            assert err.startswith("error: ") and "Traceback" not in err, (flags, text)
