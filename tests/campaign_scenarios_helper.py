"""Toy scenarios for the campaign-runner tests.

This file is deliberately *not* a test module: the tests load it via
``SweepSpec.module_paths``, which is exactly how an example script's
scenarios become importable inside spawned worker processes.
"""

import os
import random

from repro.campaign import scenario


@scenario("toy_stats")
def toy_stats(n, scale, seed, artifact_dir=None):
    """Cheap deterministic cell: summary stats of ``n`` seeded draws."""
    rng = random.Random(seed)
    values = [scale * rng.random() for _ in range(n)]
    if artifact_dir is not None:
        with open(os.path.join(artifact_dir, "values.csv"), "w",
                  encoding="utf-8") as handle:
            for value in values:
                handle.write(f"{value}\n")
    return {"n": n, "mean": sum(values) / n, "max": max(values)}


@scenario("toy_boom")
def toy_boom(n, scale, seed):
    """Scenario that fails on one specific cell (error-path tests)."""
    if n == 13:
        raise RuntimeError("unlucky cell")
    return {"n": n}


@scenario("toy_nan")
def toy_nan(n, scale, seed):
    """Scenario whose ``n == 13`` cell leaks a non-finite number."""
    return {"n": n, "mean": float("nan") if n == 13 else scale}


@scenario("toy_sleeper")
def toy_sleeper(duration, seed):
    """Cell that stalls for ``duration`` wall seconds (timeout tests)."""
    import time
    time.sleep(duration)
    return {"duration": duration}


class _SlowFinalizer:
    """Object whose ``__del__`` busy-waits ``seconds`` of wall time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __del__(self):
        import time
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            pass


@scenario("toy_finalizer_then_spin")
def toy_finalizer_then_spin(finalizer_s, spin_s, seed):
    """Cell that sits in a finalizer for up to ``finalizer_s``, then spins
    for ``spin_s`` (an alarm expiring inside ``__del__`` is swallowed as
    unraisable; the timeout tests check it fires again)."""
    import time
    _SlowFinalizer(finalizer_s)  # dropped at once: __del__ runs here
    deadline = time.perf_counter() + spin_s
    while time.perf_counter() < deadline:
        pass
    return {"spun": spin_s}
