"""SQLite connection set-up shared by the durable stores.

The calibration cache (:class:`~repro.serving.cache.SQLiteCache`) and the
ledger store (:class:`~repro.service.stores.SQLiteLedgerStore`) both open
one file that other threads and processes may be opening at the same
moment, and both run it in WAL mode.  Stdlib only.
"""

from __future__ import annotations

import sqlite3
import time

#: Seconds a writer (or an opener switching the file to WAL) waits for
#: another connection's lock before raising ``database is locked``.
BUSY_TIMEOUT = 60.0


def open_in_wal_mode(conn: sqlite3.Connection) -> None:
    """Set ``conn``'s busy timeout to :data:`BUSY_TIMEOUT`, then put its
    file in WAL mode, waiting out concurrent openers for as long.

    On a file not yet in WAL mode the switch reads the header under a
    shared lock and then asks for the write lock, and SQLite refuses that
    upgrade at once, busy timeout or not, while another connection holds
    the write lock (two upgraders would deadlock).  Several connections
    opening one fresh file meet exactly that, so the switch is retried
    until the lock frees: by then the file is in WAL mode, or this
    connection's switch can take the lock itself.  Any other error, or a
    lock held past the timeout, raises.
    """
    conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT * 1000)}")
    deadline = time.monotonic() + BUSY_TIMEOUT
    delay = 0.001
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() > deadline:
                raise
        time.sleep(delay)
        delay = min(2 * delay, 0.05)
