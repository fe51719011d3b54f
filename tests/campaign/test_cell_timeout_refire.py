"""Regression: a cell timeout swallowed inside a finalizer fires again.

``campaign.runner._alarm`` raises :class:`CellTimeout` from a SIGALRM
handler.  Python drops an exception raised while it is inside a
``__del__`` (it prints "Exception ignored in ..." and carries on), so
with a one-shot timer a budget that expired there left the cell running
unbounded.  The toy cell is inside a finalizer when its budget expires
and then spins for far longer; the repeating timer must still cut it
short, and must be silent once the block has exited.
"""

import signal
import time
from pathlib import Path

import pytest

from repro.campaign import SweepSpec, run_campaign
from repro.campaign.runner import _ALARM_REPEAT_S, CellTimeout, _alarm

HELPER = str(Path(__file__).resolve().parents[1]
             / "campaign_scenarios_helper.py")

BUDGET_S = 0.05
SPIN_S = 3.0


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")
def test_timeout_swallowed_in_a_finalizer_fires_again():
    spec = SweepSpec(name="finalizer", scenario="toy_finalizer_then_spin",
                     grid={"finalizer_s": [4 * BUDGET_S]}, seeds=(1,),
                     fixed={"spin_s": SPIN_S}, modules=(),
                     module_paths=(HELPER,))
    started = time.perf_counter()
    result = run_campaign(spec, cell_timeout=BUDGET_S)
    elapsed = time.perf_counter() - started
    (failed,) = result.failed
    assert failed.error.startswith("timeout:")
    assert not result.records
    assert elapsed < SPIN_S


def test_repeating_alarm_is_disarmed_after_the_block():
    with pytest.raises(CellTimeout):
        with _alarm(BUDGET_S):
            deadline = time.perf_counter() + SPIN_S
            while time.perf_counter() < deadline:
                pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # A repeat that was still armed would raise out of this sleep.
    time.sleep(3 * _ALARM_REPEAT_S)


def test_a_block_over_budget_times_out_when_every_alarm_is_lost(
        monkeypatch):
    """A cell shorter than one alarm repeat used to pass when its only
    alarm was swallowed; its measured wall time now decides."""
    monkeypatch.setattr(signal, "setitimer", lambda *args: (0.0, 0.0))
    with pytest.raises(CellTimeout, match="wall-clock budget"):
        with _alarm(BUDGET_S):
            time.sleep(2 * BUDGET_S)
