"""Accelerator ticket pool: a counting semaphore per device with an audit log.

Workers check a ticket out before running a device-bound batch and return it
after. The pool grants from the device with the most free tickets (ties go to
the lowest device id), blocks when everything is taken, and raises a
starvation error with a pool snapshot when a timeout expires. Every grant and
return lands in an in-memory event log that can be replayed to prove the
per-device bound was never exceeded.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


class PoolError(RuntimeError):
    pass


class StarvationError(PoolError):
    """Checkout timed out; carries the outstanding-per-device snapshot."""

    def __init__(self, worker_id, timeout, snapshot):
        self.worker_id = worker_id
        self.timeout = timeout
        self.snapshot = dict(snapshot)
        super().__init__(
            f"worker {worker_id} starved after {timeout}s; outstanding per device {self.snapshot}"
        )


class TicketReturnError(PoolError):
    """Double return or a ticket foreign to this pool."""


@dataclass(frozen=True)
class Ticket:
    device_id: int
    ticket_id: int
    holder: int


@dataclass(frozen=True)
class PoolEvent:
    ts: float
    worker: int
    op: str
    device: int
    ticket: int

    def to_line(self) -> str:
        return f"{self.ts:.9f} {self.worker} {self.op} {self.device} {self.ticket}\n"


def parse_event_line(line: str) -> PoolEvent:
    ts, worker, op, device, ticket = line.split()
    return PoolEvent(float(ts), int(worker), op, int(device), int(ticket))


class DevicePool:
    """Bounded ticket grants per device; safe for many concurrent workers."""

    def __init__(self, devices: int, tickets_per_device: int):
        if devices <= 0 or tickets_per_device <= 0:
            raise PoolError("devices and tickets_per_device must be positive")
        self.devices = list(range(devices))
        self.tickets_per_device = tickets_per_device
        self._outstanding: dict[int, set[int]] = {d: set() for d in self.devices}
        self._device_of: dict[int, int] = {}
        self._next_ticket = 0
        self._cond = threading.Condition()
        self.events: list[PoolEvent] = []

    def snapshot(self) -> dict[int, int]:
        with self._cond:
            return {d: len(s) for d, s in self._outstanding.items()}

    def _free_device(self) -> int | None:
        best, best_free = None, 0
        for d in self.devices:
            free = self.tickets_per_device - len(self._outstanding[d])
            if free > best_free:
                best, best_free = d, free
        return best

    def checkout(self, worker_id: int, timeout: float | None = None) -> Ticket:
        """Grant a ticket, blocking up to ``timeout`` seconds when none is free."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                device = self._free_device()
                if device is not None:
                    ticket = Ticket(device_id=device, ticket_id=self._next_ticket, holder=worker_id)
                    self._next_ticket += 1
                    self._outstanding[device].add(ticket.ticket_id)
                    self._device_of[ticket.ticket_id] = device
                    self.events.append(
                        PoolEvent(time.time(), worker_id, "checkout", device, ticket.ticket_id)
                    )
                    return ticket
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise StarvationError(
                        worker_id, timeout, {d: len(s) for d, s in self._outstanding.items()}
                    )
                self._cond.wait(timeout=remaining)

    def return_ticket(self, ticket: Ticket) -> None:
        """Hand a ticket back; exactly one return per checkout."""
        with self._cond:
            device = self._device_of.get(ticket.ticket_id)
            if device is None or ticket.ticket_id not in self._outstanding.get(device, set()):
                raise TicketReturnError(
                    f"ticket {ticket.ticket_id} is not outstanding (double return or foreign)"
                )
            if device != ticket.device_id:
                raise TicketReturnError(
                    f"ticket {ticket.ticket_id} belongs to device {device}, not {ticket.device_id}"
                )
            self._outstanding[device].remove(ticket.ticket_id)
            del self._device_of[ticket.ticket_id]
            self.events.append(
                PoolEvent(time.time(), ticket.holder, "return", device, ticket.ticket_id)
            )
            self._cond.notify()

    def write_event_log(self, path) -> None:
        with self._cond:
            events = list(self.events)
        with open(path, "w", encoding="ascii") as f:
            for ev in events:
                f.write(ev.to_line())


@dataclass
class AuditReport:
    max_outstanding: dict[int, int]
    checkouts: int
    returns: int
    unreturned: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations and self.unreturned == 0


def audit_events(events, tickets_per_device: int | None = None) -> AuditReport:
    """Replay an event log and report per-device concurrency and pairing.

    Independent of the pool internals: only the recorded event sequence is used.
    """
    outstanding: dict[int, set[int]] = {}
    max_out: dict[int, int] = {}
    owner: dict[int, int] = {}
    violations: list[str] = []
    checkouts = returns = 0
    for ev in events:
        if ev.op == "checkout":
            checkouts += 1
            if ev.ticket in owner:
                violations.append(f"ticket {ev.ticket} granted twice")
            owner[ev.ticket] = ev.device
            dev = outstanding.setdefault(ev.device, set())
            dev.add(ev.ticket)
            max_out[ev.device] = max(max_out.get(ev.device, 0), len(dev))
            if tickets_per_device is not None and len(dev) > tickets_per_device:
                violations.append(
                    f"device {ev.device} held {len(dev)} tickets, cap {tickets_per_device}"
                )
        elif ev.op == "return":
            returns += 1
            dev = outstanding.get(ev.device, set())
            if ev.ticket not in dev:
                violations.append(f"return of ticket {ev.ticket} that is not outstanding")
            else:
                dev.remove(ev.ticket)
                del owner[ev.ticket]
        else:
            violations.append(f"unknown op {ev.op!r}")
    unreturned = sum(len(s) for s in outstanding.values())
    return AuditReport(
        max_outstanding=max_out,
        checkouts=checkouts,
        returns=returns,
        unreturned=unreturned,
        violations=violations,
    )
