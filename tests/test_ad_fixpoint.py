"""The two ways backward_fixpoint grows its layers.

Where the right diagram is deterministic on the jointly reachable pairs,
the frontier pre-images must give the forcing game's layers node for
node in one manager; elsewhere addiff must keep playing the game, and
one pair below shows the two fixpoints disagreeing there.
"""

from __future__ import annotations

import pytest

from semdiff.ad import diff, validate_ad
from semdiff.ad.diff import (addiff, backward_fixpoint, non_correspondence,
                             reachable_pairs, right_deterministic)
from semdiff.ad.encode import encode_product
from semdiff.ad.model import ActivityDiagram, Cmp, IntLit, Var
from semdiff.parsing import parse_ad

from conftest import fixture_text
from test_ad_random import SEEDS, _texts
from test_ad_reach import api_ad
from test_ad_settle import TWO_LOOPS
from test_golden import counter_text, fork_text


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


def both_fixpoints(left: ActivityDiagram, right: ActivityDiagram):
    """(right deterministic on reach?, game layers, pre-image layers),
    all built in one manager."""
    enc = encode_product(left, right)
    reach = reachable_pairs(enc)
    d0 = non_correspondence(enc, reach)
    return (right_deterministic(enc, reach),
            backward_fixpoint(enc, d0, reach, False).layers,
            backward_fixpoint(enc, d0, reach, True).layers)


def directions(pairs):
    return [(a, b) for x, y in pairs for a, b in ((x, y), (y, x))]


def fixture_directions():
    ads = {n: _ad(fixture_text(f"ad_{n}.ad")) for n in ("v1", "v2", "v3")}
    return directions([(ads["v1"], ads["v2"]), (ads["v1"], ads["v3"]),
                       (ads["v2"], ads["v3"])])


def family_directions():
    loops = TWO_LOOPS.replace("[c < 2]", "[c < 3]").replace("[c >= 2]", "[c >= 3]")
    texts = [(TWO_LOOPS, loops.replace("loops", "loops3")),
             (TWO_LOOPS, TWO_LOOPS.replace("loops", "renamed").replace("t1", "t9")),
             (counter_text("count_v1", 12, "stop"), counter_text("count_v2", 12, "halt")),
             (counter_text("count_v1", 12, "stop"), counter_text("count_v2", 9, "stop"))]
    texts += [(fork_text(f"fork{w}_v1", w, "ship"),
               fork_text(f"fork{w}_v2", w, "archive", moves=3)) for w in (2, 3, 4)]
    return directions([(_ad(a), _ad(b)) for a, b in texts])


@pytest.mark.parametrize("left, right", fixture_directions() + family_directions(),
                         ids=lambda ad: ad.name)
def test_preimage_layers_are_the_game_layers(left, right):
    deterministic, game, pre = both_fixpoints(left, right)
    assert deterministic
    assert pre == game


@pytest.mark.parametrize("seed", SEEDS)
def test_preimage_layers_match_on_the_seeded_pairs(seed):
    left, right = map(_ad, _texts(seed))
    checked = 0
    for a, b in ((left, right), (right, left)):
        deterministic, game, pre = both_fixpoints(a, b)
        if deterministic:
            assert pre == game, (a.name, b.name)
            checked += 1
    assert checked


def test_some_seeded_direction_grows_past_its_base_layer():
    depths = [len(game) - 1 for seed in SEEDS
              for a, b in directions([tuple(map(_ad, _texts(seed)))])
              for deterministic, game, _ in [both_fixpoints(a, b)] if deterministic]
    assert max(depths) >= 1


def nondeterministic_pair() -> tuple[ActivityDiagram, ActivityDiagram]:
    """Left `a` then `b`; on the right a decision whose guards both hold
    leads to two nodes named `a`, one followed by `b`, one by `c`.  The
    right diagram has every left trace, so there is no difference; the
    pre-image, reading "some right reply" for "every right reply", would
    find one after `a`."""
    anyway = Cmp(">=", Var("x"), IntLit(0))
    left = api_ad("left", 0, [("i", "initial"), ("a", "action"), ("b", "action"),
                              ("f", "final")],
                  [("i", "a"), ("a", "b"), ("b", "f")])
    right = api_ad("right", 0, [("i", "initial"), ("d", "decision"),
                                ("a1", "action", "a"), ("a2", "action", "a"),
                                ("b", "action"), ("c", "action"), ("f", "final")],
                   [("i", "d"), ("d", "a1", anyway), ("d", "a2", anyway),
                    ("a1", "b"), ("a2", "c"), ("b", "f"), ("c", "f")])
    return left, right


def test_the_fixpoints_differ_where_the_right_diagram_branches():
    deterministic, game, pre = both_fixpoints(*nondeterministic_pair())
    assert not deterministic
    assert pre != game
    assert len(game) == 1 < len(pre)


def test_addiff_plays_the_game_where_the_right_diagram_branches(monkeypatch):
    left, right = nondeterministic_pair()
    used = []
    real = diff.backward_fixpoint

    def kept(*args, **kwargs):
        used.append(real(*args, **kwargs))
        return used[-1]

    monkeypatch.setattr(diff, "backward_fixpoint", kept)
    res = addiff(left, right)
    assert res.semantics == "simulation"
    assert not res.has_diffs
    (layers,) = used
    assert layers.depth() == 0
