"""Concurrency control for game-world transactions.

    "games require that their data — which is often the state of the
    entire world — be in a consistent state. … traditional approaches
    such as locking transactions are often too slow for games."

This module makes that claim testable.  It provides a versioned key/value
world store, a transaction abstraction (an ordered list of read/write
operations whose write values are computed from prior reads), and three
classic schedulers:

* :class:`TwoPhaseLocking` — strict 2PL with waits-for deadlock detection;
* :class:`OptimisticCC` — backward-validation OCC (read snapshot, buffer
  writes, validate read set at commit);
* :class:`TimestampOrdering` — basic T/O with immediate aborts.

Concurrency is simulated deterministically: each in-flight transaction is
a task stepped round-robin (one operation = one simulated time unit), so
conflicts, blocking, and aborts arise exactly as they would across server
threads, but runs are reproducible.  All schedulers produce histories
that are *serializable*; the tests verify committed results against a
serial replay, and experiment E6 compares throughput/abort behaviour
under contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

from repro.consistency.lockmgr import LockManager, LockMode
from repro.errors import TransactionError

#: A write function computes the new value from (old value, reads-so-far).
WriteFn = Callable[[Any, dict[Hashable, Any]], Any]


@dataclass(frozen=True)
class Op:
    """One transaction operation.

    ``kind`` is ``"r"`` (read), ``"u"`` (read *for update* — semantically a
    read, but lock-based schedulers take the exclusive lock up front,
    avoiding the S→X upgrade deadlock storm), or ``"w"`` (write).  For
    writes, ``fn(old, reads)`` computes the stored value, where ``reads``
    maps keys to the values this transaction has read so far — enough to
    express transfers, increments, and compare-and-swap game logic.
    """

    kind: str
    key: Hashable
    fn: WriteFn | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("r", "u", "w"):
            raise TransactionError(f"bad op kind {self.kind!r}")
        if self.kind == "w" and self.fn is None:
            raise TransactionError("write op requires fn")


def read(key: Hashable) -> Op:
    """Convenience: a read operation."""
    return Op("r", key)


def read_for_update(key: Hashable) -> Op:
    """Convenience: a read that will be followed by a write to ``key``."""
    return Op("u", key)


def write(key: Hashable, fn: WriteFn) -> Op:
    """Convenience: a write operation."""
    return Op("w", key, fn)


class Increment:
    """Add-``amount`` write function (a class, not a lambda, so ops pickle)."""

    __slots__ = ("amount",)

    def __init__(self, amount: float = 1):
        self.amount = amount

    def __call__(self, old: Any, reads: Mapping[Hashable, Any]) -> Any:
        return (old or 0) + self.amount


def increment(key: Hashable, amount: float = 1) -> Op:
    """Write op adding ``amount`` to the key's current value."""
    return Op("w", key, Increment(amount))


@dataclass
class TxnSpec:
    """A transaction: a name and its ordered operations."""

    name: str
    ops: list[Op]


@dataclass
class CCStats:
    """Outcome of one scheduler run."""

    committed: int = 0
    aborted: int = 0
    deadlock_aborts: int = 0
    validation_aborts: int = 0
    ts_aborts: int = 0
    steps: int = 0
    blocked_steps: int = 0
    commit_order: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Commits per simulated step."""
        return self.committed / self.steps if self.steps else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborts per attempted execution (retries count as attempts)."""
        attempts = self.committed + self.aborted
        return self.aborted / attempts if attempts else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean steps from first start to commit (approximated via totals)."""
        return self.steps / self.committed if self.committed else float("inf")


class VersionedStore:
    """Key/value store with per-key version counters."""

    def __init__(self, initial: dict[Hashable, Any] | None = None):
        self._data: dict[Hashable, Any] = dict(initial or {})
        self._version: dict[Hashable, int] = {k: 0 for k in self._data}

    def get(self, key: Hashable) -> Any:
        return self._data.get(key)

    def version(self, key: Hashable) -> int:
        return self._version.get(key, 0)

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._version[key] = self._version.get(key, 0) + 1

    def snapshot(self) -> dict[Hashable, Any]:
        """Copy of all data (tests compare against serial replays)."""
        return dict(self._data)

    def keys(self) -> list[Hashable]:
        return list(self._data)


def serial_replay(
    store_data: dict[Hashable, Any], specs: Iterable[TxnSpec]
) -> dict[Hashable, Any]:
    """Execute transactions one at a time; the correctness oracle."""
    data = dict(store_data)
    for spec in specs:
        reads: dict[Hashable, Any] = {}
        for op in spec.ops:
            if op.kind in ("r", "u"):
                reads[op.key] = data.get(op.key)
            else:
                data[op.key] = op.fn(data.get(op.key), dict(reads))
    return data


class _Task:
    """One in-flight transaction execution attempt."""

    __slots__ = (
        "txn_id", "spec", "pc", "reads", "read_versions", "write_buffer",
        "undo_log", "start_ts", "restarts", "done", "blocked_on",
        "sleep_steps",
    )

    def __init__(self, txn_id: int, spec: TxnSpec, start_ts: int):
        self.txn_id = txn_id
        self.spec = spec
        self.pc = 0
        self.reads: dict[Hashable, Any] = {}
        self.read_versions: dict[Hashable, int] = {}
        self.write_buffer: dict[Hashable, Any] = {}
        self.undo_log: list[tuple[Hashable, Any]] = []
        self.start_ts = start_ts
        self.restarts = 0
        self.done = False
        self.blocked_on: Hashable | None = None
        self.sleep_steps = 0

    def restart(self, new_ts: int) -> None:
        self.pc = 0
        self.reads.clear()
        self.read_versions.clear()
        self.write_buffer.clear()
        self.undo_log.clear()
        self.start_ts = new_ts
        self.restarts += 1
        self.blocked_on = None


class Scheduler:
    """Base class: round-robin stepping of concurrent transactions.

    Subclasses implement :meth:`_step_task`, returning True when the task
    consumed a simulated time unit of useful work.
    """

    name = "base"

    def __init__(self, store: VersionedStore, max_restarts: int = 1000):
        self.store = store
        self.max_restarts = max_restarts
        self.stats = CCStats()
        self._ts_counter = 0

    def run(
        self, specs: list[TxnSpec], concurrency: int = 8, max_steps: int = 10 ** 7
    ) -> CCStats:
        """Run all transactions with up to ``concurrency`` in flight."""
        pending = list(specs)
        active: list[_Task] = []
        next_id = 0
        while (pending or active) and self.stats.steps < max_steps:
            while pending and len(active) < concurrency:
                spec = pending.pop(0)
                task = _Task(next_id, spec, self._next_ts())
                next_id += 1
                active.append(task)
                self._on_start(task)
            progressed = False
            for task in list(active):
                self.stats.steps += 1
                if task.sleep_steps > 0:
                    task.sleep_steps -= 1
                    self.stats.blocked_steps += 1
                    # Backoff progress counts: a sleeping task will wake, so
                    # the scheduler is not stalled.
                    progressed = True
                    continue
                moved = self._step_task(task)
                if moved:
                    progressed = True
                else:
                    self.stats.blocked_steps += 1
                if task.done:
                    active.remove(task)
            if not progressed and active:
                # Everyone blocked: resolve a deadlock or error out.
                if not self._resolve_stall(active):
                    raise TransactionError(
                        f"{self.name}: scheduler stalled with no deadlock; "
                        f"{len(active)} tasks blocked"
                    )
        return self.stats

    # -- subclass hooks ------------------------------------------------------------

    def _on_start(self, task: _Task) -> None:
        """Called when a task first enters the active set."""

    def _step_task(self, task: _Task) -> bool:
        raise NotImplementedError

    def _resolve_stall(self, active: list[_Task]) -> bool:
        """Break a global stall; return True when progress is possible."""
        return False

    # -- shared helpers ----------------------------------------------------------------

    def _next_ts(self) -> int:
        self._ts_counter += 1
        return self._ts_counter

    def _abort_common(self, task: _Task, counter: str) -> None:
        self.stats.aborted += 1
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if task.restarts >= self.max_restarts:
            task.done = True
            raise TransactionError(
                f"{self.name}: transaction {task.spec.name} exceeded "
                f"{self.max_restarts} restarts"
            )
        task.restart(self._next_ts())
        # Exponential-ish backoff so repeated losers stop dueling forever
        # (the practical fix for timestamp-ordering livelock).
        task.sleep_steps = min(4 * task.restarts, 64)

    def _commit_common(self, task: _Task) -> None:
        task.done = True
        self.stats.committed += 1
        self.stats.commit_order.append(task.spec.name)


class TwoPhaseLocking(Scheduler):
    """Strict 2PL: lock on access, hold to commit, detect deadlocks."""

    name = "2pl"

    def __init__(self, store: VersionedStore, max_restarts: int = 1000):
        super().__init__(store, max_restarts)
        self.locks = LockManager()

    def _step_task(self, task: _Task) -> bool:
        if task.pc >= len(task.spec.ops):
            self.locks.release_all(task.txn_id)
            self._commit_common(task)
            return True
        op = task.spec.ops[task.pc]
        mode = LockMode.SHARED if op.kind == "r" else LockMode.EXCLUSIVE
        if not self.locks.try_acquire(task.txn_id, op.key, mode):
            task.blocked_on = op.key
            return False
        task.blocked_on = None
        if op.kind in ("r", "u"):
            task.reads[op.key] = self.store.get(op.key)
        else:
            old = self.store.get(op.key)
            task.undo_log.append((op.key, old))
            self.store.put(op.key, op.fn(old, dict(task.reads)))
        task.pc += 1
        return True

    def _resolve_stall(self, active: list[_Task]) -> bool:
        cycle = self.locks.find_deadlock()
        if not cycle:
            return False
        # Victim: youngest (highest start_ts) transaction in the cycle.
        by_id = {t.txn_id: t for t in active}
        victims = [by_id[t] for t in cycle if t in by_id]
        if not victims:
            return False
        victim = max(victims, key=lambda t: t.start_ts)
        self._abort_2pl(victim)
        return True

    def _abort_2pl(self, task: _Task) -> None:
        # Undo writes in reverse order, release locks, retry.
        for key, old in reversed(task.undo_log):
            self.store.put(key, old)
        self.locks.release_all(task.txn_id)
        self._abort_common(task, "deadlock_aborts")


class OptimisticCC(Scheduler):
    """Backward-validation OCC.

    Reads record the key's version; writes buffer locally.  At commit,
    the read set is revalidated against current versions — any change
    means a concurrent commit overlapped, and the transaction retries.
    """

    name = "occ"

    def _step_task(self, task: _Task) -> bool:
        ops = task.spec.ops
        if task.pc >= len(ops):
            return self._try_commit(task)
        op = ops[task.pc]
        if op.kind in ("r", "u"):
            if op.key in task.write_buffer:
                task.reads[op.key] = task.write_buffer[op.key]
            else:
                task.reads[op.key] = self.store.get(op.key)
                task.read_versions.setdefault(op.key, self.store.version(op.key))
        else:
            if op.key in task.write_buffer:
                old = task.write_buffer[op.key]
            else:
                old = self.store.get(op.key)
                # a blind write still depends on the old value via fn
                task.read_versions.setdefault(op.key, self.store.version(op.key))
            task.write_buffer[op.key] = op.fn(old, dict(task.reads))
        task.pc += 1
        return True

    def _try_commit(self, task: _Task) -> bool:
        for key, version in task.read_versions.items():
            if self.store.version(key) != version:
                self._abort_common(task, "validation_aborts")
                return True
        for key, value in task.write_buffer.items():
            self.store.put(key, value)
        self._commit_common(task)
        return True


class TimestampOrdering(Scheduler):
    """Basic timestamp ordering with immediate restart on violation.

    Each key tracks the largest read/write timestamps that touched it;
    an operation arriving "too late" aborts its transaction, which
    restarts with a fresh (larger) timestamp.  Writes apply immediately
    (no Thomas write rule), with undo on abort.
    """

    name = "ts"

    def __init__(self, store: VersionedStore, max_restarts: int = 1000):
        super().__init__(store, max_restarts)
        self._read_ts: dict[Hashable, int] = {}
        self._write_ts: dict[Hashable, int] = {}
        #: writer that produced the current value (for cascade-free undo we
        #: forbid reading uncommitted data: key -> txn holding dirty write)
        self._dirty: dict[Hashable, int] = {}

    def _step_task(self, task: _Task) -> bool:
        ops = task.spec.ops
        if task.pc >= len(ops):
            for key, holder in list(self._dirty.items()):
                if holder == task.txn_id:
                    del self._dirty[key]
            self._commit_common(task)
            return True
        op = ops[task.pc]
        ts = task.start_ts
        dirty_holder = self._dirty.get(op.key)
        if dirty_holder is not None and dirty_holder != task.txn_id:
            # Wait for the writer to finish (avoids cascading aborts).
            task.blocked_on = op.key
            return False
        task.blocked_on = None
        if op.kind in ("r", "u"):
            if ts < self._write_ts.get(op.key, 0):
                self._abort_ts(task)
                return True
            task.reads[op.key] = self.store.get(op.key)
            self._read_ts[op.key] = max(self._read_ts.get(op.key, 0), ts)
        else:
            if ts < self._read_ts.get(op.key, 0) or ts < self._write_ts.get(op.key, 0):
                self._abort_ts(task)
                return True
            old = self.store.get(op.key)
            task.undo_log.append((op.key, old))
            self.store.put(op.key, op.fn(old, dict(task.reads)))
            self._write_ts[op.key] = ts
            self._dirty[op.key] = task.txn_id
        task.pc += 1
        return True

    def _abort_ts(self, task: _Task) -> None:
        for key, old in reversed(task.undo_log):
            self.store.put(key, old)
        for key, holder in list(self._dirty.items()):
            if holder == task.txn_id:
                del self._dirty[key]
        self._abort_common(task, "ts_aborts")

    def _resolve_stall(self, active: list[_Task]) -> bool:
        # Dirty-wait cycles: abort the youngest blocked task.
        blocked = [t for t in active if t.blocked_on is not None]
        if not blocked:
            return False
        victim = max(blocked, key=lambda t: t.start_ts)
        self._abort_ts(victim)
        return True


class TwoPhaseParticipant:
    """Participant-side hooks for two-phase commit across shards.

    Layered on the same vocabulary the local schedulers use — ``Op``
    specs, a keyed store with ``get``/``put``, and a :class:`LockManager`
    — so a cluster shard exposes its world to distributed transactions
    without a second transaction engine.  The policy is **no-wait**:
    a lock conflict at prepare time refuses the transaction instead of
    queueing, which makes distributed deadlock impossible (at the price
    of aborts under contention, which the E14 bench measures).

    Protocol per transaction id:

    * :meth:`prepare` — lock every key, read current values, and return
      the read map (the participant's yes-vote payload); ``None`` means
      refused (locks released, nothing changed).
    * :meth:`commit` — apply coordinator-computed writes, release locks.
    * :meth:`abort` — release locks; the store is untouched by design
      because prepare buffers nothing and writes only land on commit.
    * :meth:`execute_local` — one-shot fast path for single-shard
      transactions: lock, run the ops serially, apply, release.
    """

    def __init__(self, store: Any, locks: LockManager | None = None):
        self.store = store
        self.locks = locks or LockManager()
        self._prepared: dict[int, list[Hashable]] = {}
        self.prepares = 0
        self.refusals = 0
        self.commits = 0
        self.aborts = 0

    def _lock_all(self, txn_id: int, keys: Iterable[tuple[str, Hashable]]) -> bool:
        """Acquire every (mode, key) lock or roll back; no waiting."""
        for kind, key in keys:
            mode = LockMode.SHARED if kind == "r" else LockMode.EXCLUSIVE
            if not self.locks.try_acquire(txn_id, key, mode):
                self.locks.release_all(txn_id)
                return False
        return True

    def prepare(
        self, txn_id: int, keyed_ops: Iterable[tuple[str, Hashable]]
    ) -> dict[Hashable, Any] | None:
        """Vote on ``[(kind, key), ...]``; returns reads or ``None`` (refused)."""
        self.prepares += 1
        ops = list(keyed_ops)
        if not self._lock_all(txn_id, ops):
            # A failed incremental prepare (entity migration can land two
            # key-slices of one txn here) refuses the whole transaction
            # at this participant; the coordinator will abort it anyway.
            self._prepared.pop(txn_id, None)
            self.refusals += 1
            return None
        self._prepared.setdefault(txn_id, []).extend(key for _kind, key in ops)
        return {key: self.store.get(key) for _kind, key in ops}

    def commit(self, txn_id: int, writes: Mapping[Hashable, Any]) -> None:
        """Apply the coordinator's computed writes and release locks."""
        prepared = self._prepared.pop(txn_id, None)
        if prepared is None:
            raise TransactionError(f"commit for unprepared txn {txn_id}")
        for key, value in writes.items():
            self.store.put(key, value)
        self.locks.release_all(txn_id)
        self.commits += 1

    def abort(self, txn_id: int) -> None:
        """Drop a prepared transaction; the store is left unchanged."""
        if self._prepared.pop(txn_id, None) is not None:
            self.locks.release_all(txn_id)
        self.aborts += 1

    def execute_local(self, txn_id: int, ops: Iterable[Op]) -> bool:
        """Run a wholly-local transaction atomically; False when refused."""
        ops = list(ops)
        self.prepares += 1
        if not self._lock_all(txn_id, [(op.kind, op.key) for op in ops]):
            self.refusals += 1
            return False
        reads: dict[Hashable, Any] = {}
        writes: dict[Hashable, Any] = {}
        for op in ops:
            current = writes.get(op.key, self.store.get(op.key))
            if op.kind in ("r", "u"):
                reads[op.key] = current
            else:
                writes[op.key] = op.fn(current, dict(reads))
        for key, value in writes.items():
            self.store.put(key, value)
        self.locks.release_all(txn_id)
        self.commits += 1
        return True

    def prepared_count(self) -> int:
        """Transactions currently holding prepare locks."""
        return len(self._prepared)

    def prepared_keys(self) -> set[Hashable]:
        """Keys locked by prepared transactions awaiting a decision.

        Cluster shards consult this before evicting an entity: handing
        off state under a prepared transaction would orphan the commit.
        """
        return {key for keys in self._prepared.values() for key in keys}


def compute_writes(
    ops: Iterable[Op], reads: Mapping[Hashable, Any]
) -> dict[Hashable, Any]:
    """Coordinator-side write computation for distributed commit.

    Replays the op list serially against the participants' merged read
    map — exactly :func:`serial_replay` semantics, so a distributed
    commit produces the same values a single-shard execution would.
    """
    data = dict(reads)
    seen: dict[Hashable, Any] = {}
    writes: dict[Hashable, Any] = {}
    for op in ops:
        if op.kind in ("r", "u"):
            seen[op.key] = data.get(op.key)
        else:
            value = op.fn(data.get(op.key), dict(seen))
            data[op.key] = value
            writes[op.key] = value
    return writes


SCHEDULERS: dict[str, type[Scheduler]] = {
    "2pl": TwoPhaseLocking,
    "occ": OptimisticCC,
    "ts": TimestampOrdering,
}


def make_scheduler(
    name: str, store: VersionedStore, max_restarts: int = 1000
) -> Scheduler:
    """Factory: scheduler by name (``2pl`` | ``occ`` | ``ts``)."""
    cls = SCHEDULERS.get(name)
    if cls is None:
        raise TransactionError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        )
    return cls(store, max_restarts)
