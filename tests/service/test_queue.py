"""The bounded ingress queue: priorities, backpressure, shedding."""

import pytest

from repro.service import BoundedIngressQueue, IngressItem, Priority


def admit(t, deadline=None, attempt=0):
    return IngressItem(Priority.ADMIT, t, payload=f"req@{t}",
                       deadline=deadline, attempt=attempt)


class TestOffer:
    def test_admissions_bounce_at_capacity_with_retry_after(self):
        q = BoundedIngressQueue(capacity=2)
        assert q.offer(admit(0.0, deadline=1.0)) is None
        assert q.offer(admit(0.1, deadline=2.0)) is None
        retry_after = q.offer(admit(0.2, deadline=3.0))
        assert retry_after is not None and retry_after > 0
        assert len(q) == 2

    def test_retry_after_grows_with_fill_and_attempt(self):
        q = BoundedIngressQueue(capacity=4)
        empty_hint = q.retry_after(0)
        q.offer(admit(0.0))
        q.offer(admit(0.1))
        fuller_hint = q.retry_after(0)
        assert fuller_hint > empty_hint
        # Exponential in the attempt count, capped at 64x.
        assert q.retry_after(3) == pytest.approx(8 * q.retry_after(0))
        assert q.retry_after(6) == q.retry_after(99)

    def test_control_items_always_enqueue_past_capacity(self):
        q = BoundedIngressQueue(capacity=1)
        assert q.offer(admit(0.0)) is None
        assert q.offer(IngressItem(Priority.FAULT, 0.1, "f")) is None
        assert q.offer(IngressItem(Priority.DEPARTURE, 0.2, 7)) is None
        assert len(q) == 3
        assert q.max_depth == 3
        assert q.max_admit_depth == 1

    def test_force_bypasses_the_bound(self):
        q = BoundedIngressQueue(capacity=1)
        assert q.offer(admit(0.0)) is None
        assert q.offer(admit(0.1), force=True) is None
        assert len(q) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedIngressQueue(capacity=0)


class TestDrainOrder:
    def test_faults_then_departures_then_admissions(self):
        q = BoundedIngressQueue(capacity=8)
        q.offer(admit(0.0, deadline=5.0))
        q.offer(IngressItem(Priority.DEPARTURE, 0.1, 7))
        q.offer(IngressItem(Priority.FAULT, 0.2, "f"))
        kinds = [q.pop().priority for _ in range(3)]
        assert kinds == [Priority.FAULT, Priority.DEPARTURE,
                         Priority.ADMIT]
        assert q.pop() is None

    def test_admissions_drain_earliest_deadline_first(self):
        q = BoundedIngressQueue(capacity=8)
        q.offer(admit(0.0, deadline=9.0))
        q.offer(admit(0.1, deadline=3.0))
        q.offer(admit(0.2, deadline=6.0))
        batch = q.pop_admissions(limit=10)
        assert [item.deadline for item in batch] == [3.0, 6.0, 9.0]

    def test_no_deadline_sorts_last_in_arrival_order(self):
        q = BoundedIngressQueue(capacity=8)
        q.offer(admit(0.0))
        q.offer(admit(0.1, deadline=5.0))
        q.offer(admit(0.2))
        batch = q.pop_admissions(limit=10)
        assert batch[0].deadline == 5.0
        assert [item.enqueued_at for item in batch[1:]] == [0.0, 0.2]


class TestShed:
    def test_sheds_earliest_deadline_first_down_to_target(self):
        q = BoundedIngressQueue(capacity=8)
        for i in range(4):
            q.offer(admit(0.1 * i, deadline=float(10 - i)))
        victims = q.shed(target_depth=2)
        assert [v.deadline for v in victims] == [7.0, 8.0]
        assert len(q) == 2

    def test_control_items_are_never_shed(self):
        q = BoundedIngressQueue(capacity=8)
        q.offer(IngressItem(Priority.FAULT, 0.0, "f"))
        q.offer(IngressItem(Priority.DEPARTURE, 0.1, 7))
        q.offer(admit(0.2, deadline=1.0))
        victims = q.shed(target_depth=0)
        assert len(victims) == 1
        assert victims[0].priority is Priority.ADMIT
        assert len(q) == 2  # both control items survive
