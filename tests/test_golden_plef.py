"""Golden divisions, recursion statistics and query counts of ``pl_ef``.

The pins were recorded when each PL-EF half began to keep local envy eta/3
in its own normalized values and to drop agents that value it below
eta / (6k(B+1)), with the cancellation-free root of near-flat linear cuts;
speed changes to ``pl_ef`` must leave every division, ``RecursionStats``
field and ledger bit-identical.  The eval counts were re-pinned three times:
when each half's audit began to take agents 0..m-2's own values from the
chain that ``bin_search`` settled on instead of asking them again; when a
recursed half began to hand its children their values (v - v t and v t, t
its ``detect_order`` value of the right half) instead of their asking them;
and when the audit began to ask prefix values at the half's cuts, taking
those the chain already answered without a query (m^2 - 3m + 3 evals for a
passing half of m agents, m^2 - m + 1 before), while the root began to take
v_i(0, 0.5) as 1 - v_i(0.5, 1).  Every division and ``RecursionStats`` field
stayed the same.  The divisions themselves were re-pinned once, with their
ledgers, when each half's search began at the point where the ripple chain of
its agents' linear models ends at the goal (``ripple._model_probe``) instead of
at the uniform agents' (1 - delta/2) / m: the search settles on a different
chain inside the same window, so first cuts, digests and counts moved, while
every piece count and ``RecursionStats`` field stayed the same.  Three first
cuts and five digests moved again, by a few ulps, when the search began to take
that model's probe as it is rather than through a slope that rounded it, with
every ledger, piece count and ``RecursionStats`` field unchanged.  None moved
when a first chain that misses began to aim the second probe by the linear
fit its own queries confirm.  A division is pinned by agent 0's first cut, the number of pieces per agent and a digest of
every endpoint's ``float.hex``.  The instance for (n, k, seed) is
``gen.piecewise_linear_instance(n, k, default_rng(seed))``.

``restrict_unit`` is also checked against its reference, the
``PiecewiseLinear`` constructor on the restricted segments followed by
``normalized()``: every field, derived constant and bound must match
bit-for-bit, and so must the errors, but for one: the constructor rejects a
segment end below -1e-15, which a restricted segment that falls to 0 at a
breakpoint can reach by rounding, and ``restrict_unit`` keeps that segment.
Windows with no breakpoint inside, which give one segment, and windows with
some are checked, more than 100 of each; both run the segment pass of
``_set_tables`` (``_segment_tables``) over the segments they build.
"""

import hashlib
import math

import numpy as np
import pytest

from fairslice import PiecewiseLinear, QueryLedger, pl_ef
from fairslice.density import as_piecewise_linear, restrict_unit
from fairslice.errors import DegenerateDensityError, FairsliceError, NotFullSupportError
import gen

# (n, k, seed, eta): agent 0's first cut, pieces per agent, endpoint digest,
# (node_count, max_depth, binsearch_hits, recursed_halves),
# (eval, cut) counts
GOLDEN = {
    (3, 4, 0, 0.01): (0.16719845286186527, (3, 4, 4), 'c3bc68d34e670d17',
                      (3, 3, 4, 2), (74, 40)),
    (3, 4, 0, 0.001): (0.1672537707301564, (3, 4, 4), '27c1fdac9ff886b0',
                       (3, 3, 4, 2), (80, 46)),
    (4, 9, 1, 0.01): (0.05585261974927548, (3, 4, 4, 4), '200f386f6a11f1bd',
                      (3, 2, 4, 2), (130, 72)),
    (4, 9, 1, 0.001): (0.05590008157121554, (3, 4, 4, 4), '56b867785447e41b',
                       (3, 2, 4, 2), (142, 84)),
    (5, 7, 2, 0.01): (0.1689479354786689, (4, 4, 4, 4, 4), 'c8bfe25b59bb776d',
                      (3, 3, 4, 2), (203, 108)),
    (5, 7, 2, 0.001): (0.1690775248987754, (6, 6, 6, 6, 6), '559cfbe87c6a6335',
                       (5, 4, 6, 4), (315, 168)),
    (3, 5, 3, 0.01): (0.167956855515107, (2, 2, 2), '86e50e1f1dd6a767',
                      (1, 1, 2, 0), (29, 14)),
    (3, 5, 3, 0.001): (0.16803837303765462, (2, 2, 2), 'ffccc3baafa0c40f',
                       (1, 1, 2, 0), (33, 18)),
    (4, 10, 4, 0.01): (0.09402497523849292, (5, 5, 4, 5), '2af8e226eb553add',
                       (4, 3, 5, 3), (165, 78)),
    (4, 10, 4, 0.001): (0.09411483033703195, (5, 5, 4, 5), 'fad6043b140d7e88',
                        (4, 3, 5, 3), (201, 114)),
    (5, 8, 5, 0.01): (0.18148043701411384, (10, 10, 10, 9, 9), '5053de3108885909',
                      (9, 6, 10, 8), (487, 236)),
    (5, 8, 5, 0.001): (0.09844860680459855, (15, 15, 15, 14, 15), '7841904a68496266',
                       (14, 9, 15, 13), (774, 392)),
    (3, 6, 6, 0.01): (0.08344193640664625, (6, 4, 6), 'fad85e76586f1040',
                      (5, 5, 6, 4), (118, 59)),
    (3, 6, 6, 0.001): (0.08351473566174222, (6, 4, 6), 'ff34096f73f1250c',
                       (5, 5, 6, 4), (134, 75)),
    (4, 4, 7, 0.01): (0.05853079330809459, (5, 5, 5, 5), '5e54d8d277ad5e26',
                      (4, 3, 5, 3), (148, 72)),
    (4, 4, 7, 0.001): (0.0586191696121456, (5, 5, 5, 5), 'd1f9c558fbbf3c5d',
                       (4, 3, 5, 3), (157, 81)),
    (5, 9, 8, 0.01): (0.14285968610052457, (6, 5, 6, 6, 6), '2fc340471058660e',
                      (5, 5, 6, 4), (277, 116)),
    (5, 9, 8, 0.001): (0.14309878701390827, (6, 5, 6, 6, 6), '3a00728bbf1e4438',
                       (5, 5, 6, 4), (289, 128)),
    (3, 7, 9, 0.01): (0.16271226677927142, (3, 3, 3), 'b1633d95b81619b6',
                      (2, 2, 3, 1), (45, 20)),
    (3, 7, 9, 0.001): (0.1628861106664273, (3, 3, 3), '8fc386421c6ee947',
                       (2, 2, 3, 1), (57, 32)),
    (4, 5, 10, 0.01): (0.05380305337424074, (7, 7, 7, 6), '3d50cd302087ba11',
                       (6, 4, 7, 5), (238, 122)),
    (4, 5, 10, 0.001): (0.05382528893591711, (9, 9, 9, 8), '530724f8d498bc8a',
                        (8, 5, 9, 7), (344, 194)),
    (5, 10, 11, 0.01): (0.25, (7, 8, 8, 7, 8), 'a9a7114f26669ad0',
                        (7, 5, 8, 6), (384, 185)),
    (5, 10, 11, 0.001): (0.25, (10, 11, 11, 10, 11), 'f547f987a97fce14',
                         (10, 8, 11, 9), (543, 245)),
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
    assert (st.node_count, st.max_depth, st.binsearch_hits, st.recursed_halves) == stats
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
    """PL-EF's dyadic halves to depth 4, windows whose ends sit on breakpoints, windows
    strictly between two adjacent knots, random windows."""
    out = [(j / 2 ** d, (j + 1) / 2 ** d) for d in range(5) for j in range(2 ** d)]
    ends = (0.0, *spec.breakpoints, 1.0)
    out += [(p, q) for p in ends for q in ends if p < q]
    out += [(p + (q - p) * u, p + (q - p) * v) for p, q in zip(ends, ends[1:])
            for u, v in ((0.25, 0.75), (0.1, 0.2), (0.5, 0.9))]
    for _ in range(8):
        p, q = sorted(rng.uniform(0.0, 1.0, 2))
        out.append((float(p), float(q)))
    return out


def _has_inner_breakpoint(spec, a, b) -> bool:
    """True iff a breakpoint of spec lies strictly inside [a, b]; without one the
    restriction is one segment."""
    return any(a < t < b for t in spec.breakpoints)


def test_restrict_unit_matches_constructor_then_normalized_on_golden_agents():
    rng = np.random.default_rng(5)
    counts = [0, 0]  # windows without a breakpoint inside, windows with some
    for n, k, seed in sorted({key[:3] for key in GOLDEN}):
        inst = gen.piecewise_linear_instance(n, k, np.random.default_rng(seed))
        for agent in inst.agents:
            spec = as_piecewise_linear(agent)
            for a, b in _windows(spec, rng):
                assert _assert_same_restriction(spec, a, b) is None
                counts[_has_inner_breakpoint(spec, a, b)] += 1
    assert sum(counts) > 1000 and min(counts) > 100


def test_restrict_unit_matches_reference_where_a_breakpoint_rounds_onto_an_end():
    # 0.9519... lies inside the window, but its image (t - a) / (b - a) rounds to 1.0, so
    # restrict_unit drops it and builds one segment, as the reference does
    t = 0.9519684937426224
    a, b = 0.11081219841142803, math.nextafter(t, 1.0)
    spec = PiecewiseLinear((t,), (1.0, -2.0), (0.5, 3.3))
    assert _has_inner_breakpoint(spec, a, b) and (t - a) / (b - a) == 1.0
    assert _assert_same_restriction(spec, a, b) is None
    assert restrict_unit(spec, a, b).breakpoints == ()


@pytest.mark.parametrize("spec", [
    PiecewiseLinear((0.5,), (2.0, -2.0), (0.0, 2.0)),  # the tent: 0 at both ends
    PiecewiseLinear((0.25, 0.5), (4.0, -4.0, 0.0), (0.0, 2.0, 0.0)),  # 0 on a whole segment
    PiecewiseLinear((), (2.0,), (0.0,), scale=0.5),  # Linear(2, 0) at half scale
    PiecewiseLinear((), (-2.0,), (2.0,)),  # Linear(-2, 2)
    PiecewiseLinear((0.4,), (-1000.0, 0.0), (400.0, 1.0)),  # steeply down to 0 at 0.4
    PiecewiseLinear((0.5,), (-0.0, 2.0), (-0.0, -1.0)),  # 0 as -0.0 on [0, 0.5], then rising
], ids=["tent", "zero-segment", "rising-from-0", "falling-to-0", "steeply-falling-to-0", "signed-zero"])
def test_restrict_unit_matches_reference_where_segments_touch_zero(spec):
    rng = np.random.default_rng(11)
    windows = _windows(spec, rng)
    errors = [_assert_same_restriction(spec, a, b) for a, b in windows]
    kinds = {_has_inner_breakpoint(spec, a, b) for a, b in windows}
    assert kinds == ({False, True} if spec.breakpoints else {False})
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
