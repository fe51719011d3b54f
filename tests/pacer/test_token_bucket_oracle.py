"""Differential test: the live ``TokenBucket`` against the seed implementation.

``tests/oracles/seed_token_bucket.py`` is the bucket before ``stamp`` and
``would_stamp`` were flattened: it composes them from ``max``,
``_refill``, ``tokens_at`` and ``min``.  The flat code claims the same
float expressions in the same order, so both buckets are driven in
lockstep with one random script and every return value and every piece
of state must be ``==``.  The shaper oracle cannot catch a float change
here: ``tests/oracles/seed_shaper.py`` runs on the live bucket.

``now`` rises, repeats, goes backwards (before the virtual clock a
deficit stamp pushed out) and lands exactly on the clock, the boundary
where ``stamp`` and ``would_stamp`` switch between the refill and the
clamp branch.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.pacer.token_bucket import TokenBucket

from seed_token_bucket import TokenBucket as SeedBucket

SIZES = (units.MTU, 700.0, 64.0, 1e-3)
RATES = (units.mbps(50), units.gbps(1), units.gbps(3), 100.0)

sizes = st.one_of(st.sampled_from(SIZES),
                  st.floats(1e-6, 1e5, allow_nan=False))
rates = st.one_of(st.sampled_from(RATES),
                  st.floats(1.0, 1e11, allow_nan=False))

#: How ``now`` moves before an operation: forward by ``dt``, back by
#: ``dt`` (never below 0), not at all, or onto the bucket's clock.
moves = st.one_of(
    st.tuples(st.just("forward"),
              st.sampled_from((0.0, 1e-9, 0.3e-6, 12e-6, 1.2e-3, 1.0))
              | st.floats(0.0, 2.0, allow_nan=False)),
    st.tuples(st.just("back"),
              st.sampled_from((1e-9, 0.3e-6, 12e-6, 1.2e-3))),
    st.tuples(st.just("clock"), st.just(0.0)),
)

ops = st.one_of(
    st.tuples(st.just("stamp"), moves, sizes),
    st.tuples(st.just("would_stamp"), moves, sizes),
    st.tuples(st.just("set_rate"), moves, rates),
    st.tuples(st.just("tokens_at"), moves, st.just(None)),
    st.tuples(st.just("deficit"), moves, st.just(None)),
)


def state(bucket):
    return (bucket.rate, bucket.capacity, bucket._tokens, bucket._updated)


def apply(bucket, name, now, arg):
    method = getattr(bucket, name)
    return method(now) if arg is None else method(arg, now)


@settings(max_examples=300, deadline=None)
# A full-MTU deficit stamp, then probes before, on and after the clock it
# pushed out: every branch of both flat methods at one rate.
@example(rate=units.gbps(1), capacity=1.5 * units.KB, start=0.0,
         script=[("stamp", ("forward", 0.0), units.MTU),
                 ("stamp", ("forward", 0.0), units.MTU),
                 ("would_stamp", ("back", 0.3e-6), units.MTU),
                 ("would_stamp", ("clock", 0.0), units.MTU),
                 ("stamp", ("clock", 0.0), 700.0),
                 ("set_rate", ("forward", 12e-6), units.mbps(50)),
                 ("would_stamp", ("forward", 1.0), units.MTU),
                 ("tokens_at", ("forward", 0.0), None),
                 ("deficit", ("back", 1e-9), None)])
@given(rate=rates, capacity=st.sampled_from((64.0, units.MTU, 1.5 * units.KB,
                                             6 * units.KB, 30 * units.KB)),
       start=st.sampled_from((0.0, 1e-6, 3.7)),
       script=st.lists(ops, min_size=1, max_size=40))
def test_flat_bucket_bit_equal_to_seed(rate, capacity, start, script):
    live = TokenBucket(rate, capacity, start)
    seed = SeedBucket(rate, capacity, start)
    now = start
    for name, (move, dt), arg in script:
        if move == "forward":
            now += dt
        elif move == "back":
            now = max(0.0, now - dt)
        else:
            now = seed._updated
        assert apply(live, name, now, arg) == apply(seed, name, now, arg)
        assert state(live) == state(seed)


@pytest.mark.parametrize("name,arg", [("stamp", 0.0), ("stamp", -1.0),
                                      ("set_rate", 0.0)])
def test_bad_arguments_raise_like_the_seed(name, arg):
    for bucket_class in (TokenBucket, SeedBucket):
        bucket = bucket_class(units.gbps(1), units.MTU)
        with pytest.raises(ValueError):
            apply(bucket, name, 0.0, arg)
