"""Property: the run join of ``star_id._count_votes`` equals the rule.

A candidate table is a set of entries (cx, sx, cy, sy), centroid cx as
star sx and centroid cy as star sy, with cx != cy, that holds the mirror
(cy, sy, cx, sx) of each of its entries: the shape of the tables that
``_candidate_table`` builds.  The reference takes the rule of the
``star_id`` docstring literally, with set intersections: for each leg
(i -> a, j -> b) with i < j and each third centroid r, the stars c with
(i, a, r, c) and (j, b, r, c) both in the table are intersected, and a
single such c votes for (i, a), (j, b) and (r, c).
"""

from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnav.star_id import _count_votes


def reference_votes(entries, n):
    partners = {}
    for x, s, y, t in entries:
        partners.setdefault((x, s, y), set()).add(t)
    votes = Counter()
    for i, a, j, b in entries:
        if i > j:
            continue
        for r in range(n):
            if r in (i, j):
                continue
            common = partners.get((i, a, r), set()) & partners.get((j, b, r), set())
            if len(common) == 1:
                (c,) = common
                votes.update([(i, a), (j, b), (r, c)])
    return dict(votes)


def keys_of(entries, n, n_stars):
    """The sorted keys of ``_candidate_table`` for the entries, with its
    ``node_bits`` and ``star_bits``."""
    star_bits = (n_stars - 1).bit_length()
    node_bits = star_bits + (n - 1).bit_length()
    keys = sorted((x << star_bits | s) << node_bits | y << star_bits | t for x, s, y, t in entries)
    return np.array(keys, dtype=np.int64), node_bits, star_bits


@st.composite
def tables(draw):
    """Small symmetric candidate tables: n centroids, n_stars stars."""
    n = draw(st.integers(3, 6))
    n_stars = draw(st.integers(1, 5))
    entry = st.tuples(
        st.integers(0, n - 1), st.integers(0, n_stars - 1), st.integers(0, n - 1), st.integers(0, n_stars - 1)
    ).filter(lambda e: e[0] != e[2])
    drawn = draw(st.lists(entry, max_size=40))
    return n, n_stars, sorted(set(drawn) | {(y, t, x, s) for x, s, y, t in drawn})


def mirrored(*entries):
    return sorted(set(entries) | {(y, t, x, s) for x, s, y, t in entries})


@settings(max_examples=400, deadline=None)
@given(table=tables())
@example(table=(3, 2, []))  # an empty table
@example(  # leg (0 -> 0, 1 -> 1): its j-side run, node (1, 1), holds only the mirror key
    table=(3, 3, mirrored((0, 0, 1, 1), (0, 0, 2, 2)))
)
@example(  # ambiguous: legs 0 -> 0, 1 -> 1 share the two stars 2 and 3 at centroid 2
    table=(3, 4, mirrored((0, 0, 1, 1), (0, 0, 2, 2), (0, 0, 2, 3), (1, 1, 2, 2), (1, 1, 2, 3)))
)
@example(  # one confirmed triangle, and the same leg ambiguous at a fourth centroid
    table=(
        4,
        5,
        mirrored(
            (0, 0, 1, 1), (0, 0, 2, 2), (1, 1, 2, 2),
            (0, 0, 3, 3), (0, 0, 3, 4), (1, 1, 3, 3), (1, 1, 3, 4),
        ),
    )
)
def test_run_join_equals_set_intersections(table):
    n, n_stars, entries = table
    keys, node_bits, star_bits = keys_of(entries, n, n_stars)
    voted, counts = _count_votes(keys, node_bits, star_bits)
    assert np.all(np.diff(voted) > 0)
    voter, star = voted >> star_bits, voted & ((1 << star_bits) - 1)
    got = {(int(v), int(s)): int(c) for v, s, c in zip(voter, star, counts)}
    assert got == reference_votes(entries, n)
