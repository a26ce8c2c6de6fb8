import random
import threading
import time

import pytest

from resflow.pool import (
    DevicePool,
    StarvationError,
    Ticket,
    TicketReturnError,
    audit_events,
    parse_event_line,
)


class TestCheckoutPolicy:
    def test_most_free_then_lowest_id(self):
        pool = DevicePool(2, 1)
        assert pool.checkout(0).device_id == 0
        assert pool.checkout(1).device_id == 1

    def test_prefers_device_with_more_free(self):
        pool = DevicePool(2, 2)
        t0 = pool.checkout(0)
        assert t0.device_id == 0
        assert pool.checkout(1).device_id == 1
        assert pool.checkout(2).device_id == 0
        assert pool.checkout(3).device_id == 1

    def test_starvation_after_timeout(self):
        pool = DevicePool(2, 1)
        pool.checkout(0)
        pool.checkout(1)
        t0 = time.monotonic()
        with pytest.raises(StarvationError) as err:
            pool.checkout(2, timeout=0.05)
        assert time.monotonic() - t0 >= 0.05
        assert err.value.snapshot == {0: 1, 1: 1}


class TestReturnTicket:
    def test_round_trip_restores_state(self):
        pool = DevicePool(2, 1)
        ticket = pool.checkout(0)
        pool.return_ticket(ticket)
        assert pool.snapshot() == {0: 0, 1: 0}

    def test_double_return(self):
        pool = DevicePool(1, 1)
        ticket = pool.checkout(0)
        pool.return_ticket(ticket)
        with pytest.raises(TicketReturnError):
            pool.return_ticket(ticket)

    def test_foreign_ticket(self):
        pool = DevicePool(1, 1)
        with pytest.raises(TicketReturnError):
            pool.return_ticket(Ticket(device_id=0, ticket_id=999, holder=0))

    def test_blocked_waiter_gets_released_ticket(self):
        pool = DevicePool(2, 1)
        first = pool.checkout(0)
        pool.checkout(1)
        got = {}

        def waiter():
            got["ticket"] = pool.checkout(2, timeout=5.0)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.02)
        assert "ticket" not in got
        pool.return_ticket(first)
        t.join(timeout=5.0)
        assert got["ticket"].device_id == first.device_id


class TestAudit:
    def test_event_log_round_trip(self, tmp_path):
        pool = DevicePool(2, 1)
        t = pool.checkout(7)
        pool.return_ticket(t)
        pool.write_event_log(tmp_path / "events.log")
        lines = (tmp_path / "events.log").read_text().splitlines()
        events = [parse_event_line(line) for line in lines]
        assert [e.op for e in events] == ["checkout", "return"]
        assert events[0].worker == 7

    def test_audit_flags_violations(self):
        pool = DevicePool(1, 2)
        a = pool.checkout(0)
        b = pool.checkout(0)
        pool.return_ticket(a)
        pool.return_ticket(b)
        report = audit_events(pool.events, tickets_per_device=2)
        assert report.ok
        assert report.max_outstanding == {0: 2}
        report = audit_events(pool.events, tickets_per_device=1)
        assert not report.ok

    def test_audit_detects_unreturned(self):
        pool = DevicePool(1, 1)
        pool.checkout(0)
        report = audit_events(pool.events, tickets_per_device=1)
        assert report.unreturned == 1

    def test_concurrent_bound_holds(self):
        pool = DevicePool(3, 2)
        stop = time.monotonic() + 0.3

        def worker(worker_id):
            rng = random.Random(worker_id)
            while time.monotonic() < stop:
                ticket = pool.checkout(worker_id, timeout=5.0)
                if rng.random() < 0.2:
                    time.sleep(0.0005)
                pool.return_ticket(ticket)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = audit_events(pool.events, tickets_per_device=2)
        assert report.ok
        assert max(report.max_outstanding.values()) <= 2
        assert report.checkouts == report.returns
