"""Seeded token-level mutations of the fixtures, run through `cli.main`.

Each case takes one fixture and mutates one to three of its tokens (drop,
repeat, swap with the next token, or replace with another token of the
same file), through `random.Random(seed)` only, so every case is
reproducible from its seed.  The mutant runs against an unmutated partner,
on either side, with and without `--oracle`.  Every run must return a
documented exit status and raise nothing: a broken input ends in status 2
with an `error:` line, never in a traceback.

Token mutations keep the text UTF-8 and its expressions shallow, so a
second family mutates below and above the token: a byte that is never
valid UTF-8 at a random offset, or one activity-diagram expression (a
guard, or an effect put on an action) nested N deep, with N parentheses,
N `!`s or one term repeated N times.
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


DEPTHS = (400, 1000, 3000)
NOT_UTF8 = (0xC0, 0xC1, 0xFE, 0xFF)  # bytes no UTF-8 text holds
GUARD = re.compile(r"(?<=\[)[^\]]+(?=\];)")
ACTION = re.compile(r"action \w+(?=;)")


def deepen(rng: random.Random, text: str) -> str:
    n = rng.choice(DEPTHS)
    if rng.random() < 0.5:
        spot = rng.choice(list(GUARD.finditer(text)))
        head, expr, tail = text[:spot.start()], spot[0], text[spot.end():]
    else:  # every activity-diagram fixture declares the input tickets
        spot = rng.choice(list(ACTION.finditer(text)))
        head, expr, tail = text[:spot.end()] + " { tickets := ", "tickets", "; }" + text[spot.end():]
    shape = rng.randrange(3)
    if shape == 0:
        expr = "(" * n + expr + ")" * n
    elif shape == 1:
        expr = "!" * n + expr
    else:
        term = rng.choice(re.findall(r"\w+", expr))
        expr = re.sub(rf"\b{term}\b", " + ".join([term] * n), expr, count=1)
    return head + expr + tail


def deep_cases(seed: int):
    rng = random.Random(f"deep:{seed}")
    for _ in range(CASES_PER_SEED):
        name = rng.choice(sorted(FAMILIES))
        command, partners, flags = FAMILIES[name]
        data = fixture_text(name).encode()
        if name.endswith(".ad") and rng.random() < 0.5:
            data = deepen(rng, data.decode()).encode()
        else:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + bytes([rng.choice(NOT_UTF8)]) + data[at:]
        yield command, data, str(FIXTURES / rng.choice(partners)), rng.random() < 0.5, flags


@pytest.mark.parametrize("seed", SEEDS)
def test_bytes_and_depth_end_in_a_documented_status(seed, tmp_path, capsys):
    mutant = tmp_path / "mutant"
    for command, data, partner, swap, flags in deep_cases(seed):
        mutant.write_bytes(data)
        pair = [str(mutant), partner]
        if swap and command != "check":
            pair.reverse()
        status = main([command, *pair, *flags])
        err = capsys.readouterr().err
        assert status in range(6), (command, pair, flags, data)
        if status in (2, 4, 5):
            assert err.startswith("error: ") and "Traceback" not in err, (flags, data)
