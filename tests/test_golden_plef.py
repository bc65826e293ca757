"""Golden divisions, recursion statistics and query counts of ``pl_ef``.

The pins were recorded before each PL-EF half began to build its local
instance in one pass (``restrict_unit`` returning the normalized restriction)
and to ask its chain and audit queries through leaner loops; those are speed
changes that must leave every division, ``RecursionStats`` field and ledger
bit-identical.  A division is pinned by agent 0's first cut, the number of
pieces per agent and a digest of every endpoint's ``float.hex``.  The
instance for (n, k, seed) is ``gen.piecewise_linear_instance(n, k,
default_rng(seed))``.

``restrict_unit`` is also checked against its reference, the
``PiecewiseLinear`` constructor on the restricted segments followed by
``normalized()``: every field, derived constant and bound must match
bit-for-bit, and so must the errors, but for one: the constructor rejects a
segment end below -1e-15, which a restricted segment that falls to 0 at a
breakpoint can reach by rounding, and ``restrict_unit`` keeps that segment.
"""

import hashlib

import numpy as np
import pytest

from fairslice import PiecewiseLinear, QueryLedger, pl_ef
from fairslice.density import as_piecewise_linear, restrict_unit
from fairslice.errors import DegenerateDensityError, FairsliceError, NotFullSupportError
import gen

# (n, k, seed, eta): agent 0's first cut, pieces per agent, endpoint digest,
# (node_count, max_depth, small_interval_nodes, binsearch_hits, recursed_halves),
# (eval, cut) counts
GOLDEN = {
    (3, 4, 0, 0.01): (0.16725980456001688, (3, 4, 4), '6c1cfaec045b8a8f',
                      (3, 3, 0, 4, 2), (139, 56)),
    (3, 4, 0, 0.001): (0.16725987447151738, (3, 4, 4), '783533691945eec5',
                       (3, 3, 0, 4, 2), (147, 64)),
    (4, 9, 1, 0.01): (0.05590638932657872, (3, 4, 4, 4), '8a544b3b26eb1f1a',
                      (3, 2, 0, 4, 2), (337, 213)),
    (4, 9, 1, 0.001): (0.055906400864567496, (3, 4, 4, 4), '66a94276dab99868',
                       (3, 2, 0, 4, 2), (355, 231)),
    (5, 7, 2, 0.01): (0.16909452095132294, (7, 7, 7, 7, 7), 'eaa00be1711167c7',
                      (6, 5, 0, 7, 5), (842, 498)),
    (5, 7, 2, 0.001): (0.1690945670164636, (7, 7, 7, 7, 7), '77ffe615056cfbed',
                       (6, 5, 0, 7, 5), (922, 578)),
    (3, 5, 3, 0.01): (0.16804734188790357, (2, 2, 2), '2a22b952afb7ba44',
                      (1, 1, 0, 2, 0), (48, 18)),
    (3, 5, 3, 0.001): (0.16804741354097538, (2, 2, 2), 'b59d5120c5d94007',
                       (1, 1, 0, 2, 0), (48, 18)),
    (4, 10, 4, 0.01): (0.09411974854259302, (5, 5, 4, 5), '022d8147d06a2902',
                       (4, 3, 0, 5, 3), (398, 214)),
    (4, 10, 4, 0.001): (0.09411975800340996, (5, 5, 4, 5), 'fb7041148ffed442',
                        (4, 3, 0, 5, 3), (425, 241)),
    (5, 8, 5, 0.01): (0.04970984480091246, (22, 22, 22, 21, 21), 'ab4b3bef6f53e941',
                      (21, 10, 0, 22, 20), (2623, 1426)),
    (5, 8, 5, 0.001): (0.049709857278257594, (22, 22, 22, 21, 21), 'c32461acdb65f760',
                       (21, 10, 0, 22, 20), (2983, 1786)),
    (3, 6, 6, 0.01): (0.08352328251494122, (6, 4, 6), '067138e02039a4db',
                      (5, 5, 0, 6, 4), (332, 188)),
    (3, 6, 6, 0.001): (0.08352331743889653, (6, 4, 6), '217cb0d9d2899ff1',
                       (5, 5, 0, 6, 4), (354, 210)),
    (4, 4, 7, 0.01): (0.05862694070390878, (5, 5, 5, 5), 'b5b41fd4c88190b3',
                      (4, 3, 0, 5, 3), (390, 222)),
    (4, 4, 7, 0.001): (0.05862700856313186, (5, 5, 5, 5), '7dfeb726d7a6fef1',
                       (4, 3, 0, 5, 3), (468, 300)),
    (5, 9, 8, 0.01): (0.14311291443545124, (6, 5, 6, 6, 6), 'b51d1fe9f16b3bc7',
                      (5, 5, 0, 6, 4), (707, 395)),
    (5, 9, 8, 0.001): (0.14311294102482167, (6, 5, 6, 6, 6), '623d8075e9569c7d',
                       (5, 5, 0, 6, 4), (759, 447)),
    (3, 7, 9, 0.01): (0.16290678348637747, (3, 3, 3), '1825ae1f07260dab',
                      (2, 2, 0, 3, 1), (125, 68)),
    (3, 7, 9, 0.001): (0.16290688713597004, (3, 3, 3), '8f829766f45478d0',
                       (2, 2, 0, 3, 1), (131, 74)),
    (4, 5, 10, 0.01): (0.05382730155987808, (9, 9, 9, 8), 'dbf37e2cf4db67da',
                       (8, 5, 0, 9, 7), (645, 308)),
    (4, 5, 10, 0.001): (0.05382733316238893, (9, 9, 9, 8), '337c816fa04d9114',
                        (8, 5, 0, 9, 7), (717, 380)),
    (5, 10, 11, 0.01): (0.25, (12, 13, 13, 12, 13), '2180567c801215e8',
                        (12, 8, 0, 13, 11), (1459, 729)),
    (5, 10, 11, 0.001): (0.25, (12, 13, 13, 12, 13), '909b455077ebdf20',
                         (12, 8, 0, 13, 11), (1675, 945)),
}


def _digest(pieces) -> str:
    text = ";".join(",".join(f"{l.hex()}:{r.hex()}" for l, r in p) for p in pieces)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda key: "n{}-k{}-s{}-eta{:g}".format(*key))
def test_golden_plef(key):
    n, k, seed, eta = key
    first_cut, counts, digest, stats, queries = GOLDEN[key]
    inst = gen.piecewise_linear_instance(n, k, np.random.default_rng(seed))
    ledger = QueryLedger()
    division, st = pl_ef(inst, eta, ledger)
    assert division.pieces[0][0][1] == first_cut
    assert tuple(len(p) for p in division.pieces) == counts
    assert _digest(division.pieces) == digest
    assert (st.node_count, st.max_depth, st.small_interval_nodes,
            st.binsearch_hits, st.recursed_halves) == stats
    assert (ledger.eval_count, ledger.cut_count) == queries


def reference_segments(spec: PiecewiseLinear, a: float, b: float):
    """The restriction's breakpoints, slopes and intercepts, before any table is built."""
    w = b - a
    kept: list[tuple[float, float]] = []  # (original knot, mapped knot)
    for t in spec.breakpoints:
        if a < t < b:
            y = (t - a) / w
            if 0.0 < y < 1.0 and (not kept or y > kept[-1][1]):
                kept.append((t, y))
    edges = [a, *(t for t, _ in kept), b]
    slopes, intercepts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        j = spec._segment(0.5 * (lo + hi))
        s, c = spec.slopes[j], spec.intercepts[j]
        slopes.append(s * w * w)
        intercepts.append((s * a + c) * w)
    return tuple(y for _, y in kept), tuple(slopes), tuple(intercepts)


def reference_restrict_unit(spec: PiecewiseLinear, a: float, b: float) -> PiecewiseLinear:
    """The restriction through the constructor, then ``normalized()``: two objects per agent."""
    return PiecewiseLinear(*reference_segments(spec, a, b), scale=spec.scale).normalized()


def _outcome(restrict, spec, a, b):
    try:
        return restrict(spec, a, b)
    except FairsliceError as exc:
        return type(exc), str(exc)


def _assert_same_restriction(spec, a, b):
    """Check ``restrict_unit`` against its reference; returns the reference's error type, or None."""
    got = _outcome(restrict_unit, spec, a, b)
    want = _outcome(reference_restrict_unit, spec, a, b)
    if isinstance(want, tuple) and want[0] is NotFullSupportError and not isinstance(got, tuple):
        # spec is nonnegative, so the constructor rejects only a segment end that
        # rounds below -1e-15; restrict_unit keeps those segments, and its bounds
        # start at 0
        got_segments = (got.breakpoints, got.slopes, got.intercepts)
        assert repr(got_segments) == repr(reference_segments(spec, a, b))
        assert got.bounds().lower == 0.0
        return NotFullSupportError
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return want[0]
    for name in (*PiecewiseLinear.__dataclass_fields__, *PiecewiseLinear._derived):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name  # repr keeps every bit
    assert repr(got.bounds()) == repr(want.bounds())
    assert list(got.__dict__) == list(want.__dict__)  # the same attributes, set in the same order
    return None


def _windows(spec, rng):
    """PL-EF's dyadic halves to depth 4, windows whose ends sit on breakpoints, random windows."""
    out = [(j / 2 ** d, (j + 1) / 2 ** d) for d in range(5) for j in range(2 ** d)]
    ends = (0.0, *spec.breakpoints, 1.0)
    out += [(p, q) for p in ends for q in ends if p < q]
    for _ in range(8):
        p, q = sorted(rng.uniform(0.0, 1.0, 2))
        out.append((float(p), float(q)))
    return out


def test_restrict_unit_matches_constructor_then_normalized_on_golden_agents():
    rng = np.random.default_rng(5)
    pairs = 0
    for n, k, seed in sorted({key[:3] for key in GOLDEN}):
        inst = gen.piecewise_linear_instance(n, k, np.random.default_rng(seed))
        for agent in inst.agents:
            spec = as_piecewise_linear(agent)
            for a, b in _windows(spec, rng):
                assert _assert_same_restriction(spec, a, b) is None
                pairs += 1
    assert pairs > 1000


@pytest.mark.parametrize("spec", [
    PiecewiseLinear((0.5,), (2.0, -2.0), (0.0, 2.0)),  # the tent: 0 at both ends
    PiecewiseLinear((0.25, 0.5), (4.0, -4.0, 0.0), (0.0, 2.0, 0.0)),  # 0 on a whole segment
    PiecewiseLinear((), (2.0,), (0.0,), scale=0.5),  # Linear(2, 0) at half scale
    PiecewiseLinear((), (-2.0,), (2.0,)),  # Linear(-2, 2)
    PiecewiseLinear((0.4,), (-1000.0, 0.0), (400.0, 1.0)),  # steeply down to 0 at 0.4
], ids=["tent", "zero-segment", "rising-from-0", "falling-to-0", "steeply-falling-to-0"])
def test_restrict_unit_matches_reference_where_segments_touch_zero(spec):
    rng = np.random.default_rng(11)
    errors = [_assert_same_restriction(spec, a, b) for a, b in _windows(spec, rng)]
    if spec.intercepts == (0.0, 2.0, 0.0):  # a window inside the zero segment has no mass
        assert DegenerateDensityError in errors
    if spec.slopes[0] == -1000.0:  # some windows round the zero end below -1e-15
        assert NotFullSupportError in errors


def test_restrict_unit_keeps_a_window_that_rounds_a_zero_end_negative():
    # the segment falls to exactly 0 at its breakpoint 0.4; restricted to [0.36, 0.4]
    # it reaches -1.4e-15 at y = 1, which the constructor rejects
    spec = PiecewiseLinear((0.4,), (-1000.0, 0.0), (400.0, 1.0))
    with pytest.raises(NotFullSupportError, match="negative on"):
        reference_restrict_unit(spec, 0.36, 0.4)
    assert restrict_unit(spec, 0.36, 0.4).bounds().lower == 0.0
    assert _assert_same_restriction(spec, 0.36, 0.4) is NotFullSupportError
