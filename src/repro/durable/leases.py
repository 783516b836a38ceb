"""Durable inflight leases with fencing tokens.

A worker that owns a tick (or a turn in the campaign demo) first takes a
lease: ``(key, owner, token, expires)``, journaled through the durable
store's WAL before it takes effect.  If the worker dies mid-work, the
lease outlives it — any observer can see *who* was inflight and *until
when* — and once ``expires`` passes, the coordinator reclaims the key
for a new owner under a strictly larger fencing token.

The token is the safety half: a paused-but-alive worker that wakes up
after its lease was reclaimed still holds the old token, and every
commit / renew validates the token against the lease row.  Stale token →
:class:`~repro.errors.LeaseFencedError`, so the zombie cannot
double-apply a tick it no longer owns.

Expiry is measured in ticks (the simulation clock), not wall time —
deterministic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LeaseFencedError, LeaseHeldError
from repro.durable.store import DurableStore


@dataclass(frozen=True)
class Lease:
    """One granted lease: the caller's proof of ownership."""

    key: str
    owner: str
    token: int
    expires: int


def _lease(row: dict) -> Lease:
    return Lease(
        key=row["lease_key"],
        owner=row["owner"],
        token=row["token"],
        expires=row["expires"],
    )


class LeaseTable:
    """Acquire / renew / release / reclaim over the durable lease rows."""

    def __init__(self, store: DurableStore):
        self.store = store
        self.acquires = 0
        self.renews = 0
        self.reclaims = 0
        self.denials = 0

    # -- the worker side ----------------------------------------------------------

    def acquire(self, key: str, owner: str, ttl: int, now: int) -> Lease:
        """Take ``key`` for ``owner`` until ``now + ttl``.

        A live lease held by someone else raises
        :class:`~repro.errors.LeaseHeldError`; re-acquiring one's own
        live lease renews it; an *expired* lease — whoever held it — is
        reclaimed under a fresh (strictly larger) fencing token, which
        is what fences out the previous holder if it was merely paused.
        """
        holder = self.holder(key)
        if holder is not None and holder.expires > now:
            if holder.owner != owner:
                self.denials += 1
                raise LeaseHeldError(key, holder.owner, holder.expires)
            return self.renew(holder, ttl, now)
        op = "acquire" if holder is None else "reclaim"
        token = self.store.next_fence()
        lease = Lease(key=key, owner=owner, token=token, expires=now + ttl)
        self._journal(op, lease)
        if op == "reclaim":
            self.reclaims += 1
            self._reclaim_span(lease, holder)
        self.acquires += 1
        return lease

    def renew(self, lease: Lease, ttl: int, now: int) -> Lease:
        """Extend a held lease to ``now + ttl``; token must still rule."""
        self.validate(lease, now)
        renewed = Lease(
            key=lease.key,
            owner=lease.owner,
            token=lease.token,
            expires=now + ttl,
        )
        self._journal("renew", renewed)
        self.renews += 1
        return renewed

    def release(self, lease: Lease) -> None:
        """Drop a lease deliberately (finished the work it covered)."""
        holder = self.holder(lease.key)
        if holder is None or holder.token != lease.token:
            # Already reclaimed or released: nothing ours to drop.
            return
        self._journal("release", lease)

    def validate(self, lease: Lease, now: int) -> None:
        """Assert ``lease`` still rules its key (the commit-time fence).

        Raises :class:`~repro.errors.LeaseFencedError` if the row moved
        to a newer token or vanished, i.e. the caller was fenced out.
        """
        holder = self.holder(lease.key)
        current = 0 if holder is None else holder.token
        if holder is None or holder.token != lease.token:
            raise LeaseFencedError(lease.key, lease.token, current)
        if holder.expires <= now:
            # Expired but not yet reclaimed: refuse rather than race the
            # reclaim — the worker must re-acquire (getting a new token).
            raise LeaseFencedError(lease.key, lease.token, holder.token)

    # -- the coordinator side ------------------------------------------------------

    def holder(self, key: str) -> Lease | None:
        """The current lease row for ``key`` (expired or not)."""
        rows = self.store.engine.execute(
            "SELECT * FROM leases WHERE lease_key = ?", (key,)
        )
        return _lease(rows[0]) if rows else None

    def inflight(self, now: int) -> list[Lease]:
        """All live (unexpired) leases — the crashed-worker radar's input.

        In the order their keys were leased: a renewal keeps its place,
        a key released and leased again moves to the end.
        """
        rows = self.store.engine.execute(
            "SELECT * FROM leases WHERE expires > ? ORDER BY rowid",
            (now,),
        )
        return [_lease(r) for r in rows]

    def expired(self, now: int) -> list[Lease]:
        """Lease rows whose expiry has passed: dead workers' leftovers.

        Same order as :meth:`inflight`; :meth:`reclaim_expired` hands
        out fresh tokens in it.
        """
        rows = self.store.engine.execute(
            "SELECT * FROM leases WHERE expires <= ? ORDER BY rowid",
            (now,),
        )
        return [_lease(r) for r in rows]

    def reclaim_expired(
        self, now: int, owner: str = "coordinator", ttl: int = 0
    ) -> list[Lease]:
        """Sweep expired leases, re-owning each under a fresh token.

        With ``ttl`` 0 the reclaimed lease is immediately releasable by
        the new owner (a pure fence bump); a positive ``ttl`` hands the
        key to ``owner`` for that long.  Returns the *new* leases.
        """
        out: list[Lease] = []
        for stale in self.expired(now):
            token = self.store.next_fence()
            lease = Lease(
                key=stale.key, owner=owner, token=token, expires=now + ttl
            )
            self._journal("reclaim", lease)
            self.reclaims += 1
            self._reclaim_span(lease, stale)
            out.append(lease)
        return out

    # -- plumbing ------------------------------------------------------------------

    def _journal(self, op: str, lease: Lease) -> None:
        self.store.append_lease(
            {
                "op": op,
                "key": lease.key,
                "owner": lease.owner,
                "token": lease.token,
                "expires": lease.expires,
            }
        )

    def _reclaim_span(self, lease: Lease, stale: Lease | None) -> None:
        tracer = self.store.obs.tracer
        if tracer.enabled:
            with tracer.span(
                "lease.reclaim",
                cat="durable",
                key=lease.key,
                token=lease.token,
                from_owner="" if stale is None else stale.owner,
            ):
                pass

    def stats(self) -> dict[str, int]:
        """Counters for the obs stats row."""
        return {
            "acquires": self.acquires,
            "renews": self.renews,
            "reclaims": self.reclaims,
            "denials": self.denials,
        }
