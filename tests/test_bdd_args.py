"""Level checks on the arguments of the quantifiers and of rename.

The manager checks each distinct level list or rename map once and
remembers it, so a repeated argument costs one lookup.  These tests pin
what must not change with that: a level outside the allocation raises
IndexOutOfRangeError on every call, an argument changed after a good
call is checked again, and every spelling of one level set (any order,
repeats, a bundle for its bits) quantifies the same levels.
"""

from __future__ import annotations

import pytest

from semdiff.bdd import BddManager, IndexOutOfRangeError, VarBundle


def manager(n: int) -> tuple[BddManager, list[int]]:
    m = BddManager()
    return m, [m.var(m.new_var()) for _ in range(n)]


def test_out_of_range_levels_raise_on_every_call():
    m, (x, y) = manager(2)
    u = m.band(x, y)
    for _ in range(3):
        with pytest.raises(IndexOutOfRangeError):
            m.exists(u, [0, 5])
        with pytest.raises(IndexOutOfRangeError):
            m.and_exists(u, x, (5,))
        with pytest.raises(IndexOutOfRangeError):
            m.branching(u, [-1])
        with pytest.raises(IndexOutOfRangeError):
            m.rename(u, {0: 5})
        with pytest.raises(IndexOutOfRangeError):
            m.rename(u, {7: 0})
    # a level allocated later is valid from then on
    z = m.var(m.new_var())
    assert m.exists(u, [0, 2]) == y
    assert m.rename(u, {1: 2}) == m.band(x, z)


def test_arguments_changed_after_a_good_call_are_checked_again():
    m, (x, y) = manager(2)
    levels, ren = [0], {0: 1}
    assert m.exists(m.band(x, y), levels) == y
    assert m.rename(x, ren) == y
    levels.append(9)
    ren[0] = 9
    for _ in range(2):
        with pytest.raises(IndexOutOfRangeError):
            m.exists(m.band(x, y), levels)
        with pytest.raises(IndexOutOfRangeError):
            m.rename(x, ren)


def test_spellings_of_one_level_set_quantify_alike():
    m, (a, b, c) = manager(3)
    u = m.band(m.bor(a, b), c)
    bundle = VarBundle("n", 0, 3, (0, 1))
    for _ in range(2):
        for levels in ([0, 1], (1, 0), [1, 0, 1], [bundle], range(2), {1, 0}):
            assert m.exists(u, levels) == c, levels
            assert m.and_exists(u, m.bnot(b), levels) == c, levels
    assert m.exists(u, [0]) == c
    assert m.exists(u, [1]) == c
    assert m.exists(u, [2]) == m.bor(a, b)
    assert m.and_exists(u, m.bnot(b), [1]) == m.band(a, c)
