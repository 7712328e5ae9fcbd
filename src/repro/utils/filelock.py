"""Portable inter-process file locking.

Two cooperating implementations behind one context-manager interface:

* **``fcntl`` flock** (POSIX): an exclusive advisory lock on the lock file
  itself.  Blocking, fair enough in practice, released automatically by the
  kernel when the process dies — the preferred mode wherever ``fcntl``
  exists.
* **Lock-file fallback** (any platform): atomically creating the lock file
  with ``O_CREAT | O_EXCL`` *is* acquiring the lock; deleting it releases.
  ``O_EXCL`` creation is atomic on every mainstream filesystem, so two
  processes can never both think they created the file.  Because a crashed
  holder leaves the file behind, the fallback breaks locks whose file is
  older than ``stale_ttl`` seconds, and bounds the wait with ``timeout``
  (raising :class:`LockTimeoutError` rather than hanging forever).

The fallback exists because :class:`~repro.serving.cache.JSONFileCache`
used to degrade to *no cross-process lock at all* on platforms without
``fcntl`` — a silent lost-update window.  The calibration cache now always
gets a real mutual-exclusion guarantee; only its failure mode differs per
platform.

The module-level ``fcntl`` name is resolved at *acquire* time, so tests can
``monkeypatch.setattr(filelock, "fcntl", None)`` to force the fallback path
on POSIX hosts.
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path
from typing import Iterator

try:  # POSIX advisory file locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None  # type: ignore[assignment]

from repro.exceptions import ReproError


class LockTimeoutError(ReproError, TimeoutError):
    """The lock-file fallback could not acquire the lock within ``timeout``.

    Only the fallback path can raise this — the ``fcntl`` path blocks
    indefinitely (matching its historical behavior).  Subclasses
    :class:`TimeoutError` so generic timeout handling keeps working.
    """

    http_status = 503  # transient contention; the client may retry
    #: Default retry hint; the raise site overrides it with the actual
    #: configured lock timeout (the bound on a healthy holder's tenure).
    retry_after = 1.0


class InterProcessLock:
    """Exclusive lock shared by threads *and* processes, keyed by a path.

    Parameters
    ----------
    path:
        The lock file.  Under ``fcntl`` the file persists and is flocked;
        under the fallback its existence is the lock (it is created on
        acquire and deleted on release).
    timeout:
        Fallback only: seconds to keep retrying before
        :class:`LockTimeoutError`.
    poll_interval:
        Fallback only: sleep between creation attempts.
    stale_ttl:
        Fallback only: a lock file older than this many seconds is presumed
        abandoned by a crashed holder and broken (deleted, then re-raced).
        Must comfortably exceed the longest legitimate critical section.

    Not reentrant: one instance guards one critical section at a time.
    Instances are cheap — create one per acquisition site rather than
    sharing, or serialize shared use behind a thread lock (the cache does
    the latter).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        timeout: float = 60.0,
        poll_interval: float = 0.005,
        stale_ttl: float = 300.0,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        if stale_ttl <= 0:
            raise ValueError(f"stale_ttl must be positive, got {stale_ttl}")
        self.path = Path(path)
        self.timeout = float(timeout)
        self.poll_interval = float(poll_interval)
        self.stale_ttl = float(stale_ttl)
        self._handle = None  # fcntl mode: the flocked file object
        self._owns_file = False  # fallback mode: we created path and must unlink

    # -- acquisition -----------------------------------------------------
    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            self._acquire_flock()
        else:
            self._acquire_fallback()

    def _acquire_flock(self) -> None:
        handle = open(self.path, "a")
        fcntl.flock(handle, fcntl.LOCK_EX)
        self._handle = handle

    def _acquire_fallback(self) -> None:
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                self._break_if_stale()
                if time.monotonic() >= deadline:
                    error = LockTimeoutError(
                        f"could not acquire lock file {self.path} within "
                        f"{self.timeout:g}s (held by another process? a stale "
                        f"holder is broken after {self.stale_ttl:g}s)"
                    )
                    error.retry_after = self.timeout
                    raise error
                time.sleep(self.poll_interval)
                continue
            with os.fdopen(fd, "w") as stream:
                # Diagnostics only (who holds it); correctness never reads it.
                stream.write(f"{os.getpid()}\n")
            self._owns_file = True
            return

    def _break_if_stale(self) -> None:
        """Delete the lock file if its mtime exceeds the stale TTL.

        Racy by design: several waiters may decide to break at once, but
        ``unlink`` of an already-unlinked file just fails quietly and the
        winners still race through one atomic ``O_EXCL`` create — mutual
        exclusion is preserved, only the *break* is best-effort.
        """
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return  # already released; retry the create immediately
        if age > self.stale_ttl:
            with contextlib.suppress(OSError):
                self.path.unlink()

    # -- release ---------------------------------------------------------
    def release(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            fcntl.flock(handle, fcntl.LOCK_UN)
            handle.close()
        elif self._owns_file:
            self._owns_file = False
            with contextlib.suppress(OSError):
                self.path.unlink()

    def __enter__(self) -> "InterProcessLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


@contextlib.contextmanager
def interprocess_lock(
    path: str | Path,
    *,
    timeout: float = 60.0,
    stale_ttl: float = 300.0,
) -> Iterator[None]:
    """One-shot convenience wrapper around :class:`InterProcessLock`."""
    lock = InterProcessLock(path, timeout=timeout, stale_ttl=stale_ttl)
    lock.acquire()
    try:
        yield
    finally:
        lock.release()
