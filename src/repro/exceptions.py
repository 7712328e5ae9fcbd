"""Exception hierarchy for the Pufferfish reproduction library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything from this package with a single ``except`` clause while
still being able to distinguish validation problems from mechanism-level
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Every subclass is *HTTP-mappable*: :attr:`http_status` is the response
    status a service front-end should answer with when the error escapes a
    handler, and :meth:`payload` is the JSON-safe response body.  The
    service layer (:mod:`repro.service`) relies on this so refusals carry
    machine-readable structure end to end instead of being flattened into
    strings at the HTTP boundary.
    """

    #: HTTP status the service layer maps this error to.  ``500`` for the
    #: base class (an unmapped library error is a server bug); subclasses
    #: override with the semantically right 4xx.
    http_status: int = 500

    #: Optional hint, in seconds, for when retrying this refusal could
    #: succeed.  The service layer turns it into a ``Retry-After`` response
    #: header.  ``None`` (the default) means either "retrying cannot help"
    #: (a validation error, a permanently spent budget) or "no estimate";
    #: raise sites that *know* the horizon — lock contention bounded by the
    #: lock timeout, budget held by reservations bounded by the reservation
    #: TTL — set an instance attribute.
    retry_after: "float | None" = None

    def payload(self) -> dict:
        """JSON-safe response body: the error class name and message.

        Subclasses extend this with their structured fields (see
        :meth:`BudgetExhaustedError.payload`).  When a retry hint is set it
        rides along as ``retry_after`` (mirroring the ``Retry-After``
        header) so non-HTTP callers see it too.
        """
        body = {"error": type(self).__name__, "message": str(self)}
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        return body


class ValidationError(ReproError, ValueError):
    """Raised when an input fails validation (shapes, ranges, stochasticity).

    Subclasses :class:`ValueError` so that generic callers treating bad
    arguments as value errors keep working.
    """

    http_status = 400


class PrivacyParameterError(ReproError, ValueError):
    """Raised when a privacy parameter (epsilon, delta) is invalid.

    Examples include ``epsilon <= 0`` or a composition budget that has been
    exhausted.
    """

    http_status = 400


class BudgetExhaustedError(PrivacyParameterError):
    """Raised when a release would push the composed privacy guarantee past
    the configured epsilon budget.

    Subclasses :class:`PrivacyParameterError` so existing callers that treat
    budget overruns as parameter errors keep working; new callers (the
    serving layer) can catch this type specifically to distinguish "budget
    spent" from "bad epsilon".

    Carries a structured partial-progress payload so a caller interrupted
    mid-batch or mid-stream knows exactly where the ledger stands:

    Attributes
    ----------
    budget:
        The configured total epsilon budget.
    spent:
        The composed guarantee already accumulated (``K * max_k eps_k``)
        *before* the refused attempt — nothing from the failing call is ever
        recorded.
    remaining:
        ``max(0, budget - spent)``.
    requested:
        How many releases the failing call asked for.
    n_completed:
        How many releases the failing caller's unit of work completed before
        the refusal: always 0 for an atomic :meth:`PrivacyEngine.release_batch`
        (batches record all-or-nothing), and the number of values already
        yielded for a :class:`~repro.serving.stream.ReleaseSession`.
    accountant:
        Class name of the accountant that refused (``"CompositionAccountant"``
        for linear Theorem 4.4 accounting, ``"RenyiAccountant"`` for Rényi
        composition).  A service mixing accountants across tenants can tell
        from the payload alone which accounting regime ran out — the
        ``spent`` semantics differ (linear sum versus converted Rényi
        guarantee at the accountant's delta).

    All payload fields default to ``None`` when the raiser has no ledger
    (e.g. an exception reconstructed from its message alone).
    """

    #: "Too many requests" — the client exceeded its budget, not a server
    #: fault; retrying cannot succeed until the tenant's budget grows.
    http_status = 429

    def __init__(
        self,
        message: str,
        *,
        budget: "float | None" = None,
        spent: "float | None" = None,
        remaining: "float | None" = None,
        requested: "int | None" = None,
        n_completed: "int | None" = None,
        accountant: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.budget = budget
        self.spent = spent
        self.remaining = remaining
        self.requested = requested
        self.n_completed = n_completed
        self.accountant = accountant

    def ledger(self) -> dict:
        """The partial-progress payload as a plain dict (JSON-safe)."""
        return {
            "budget": self.budget,
            "spent": self.spent,
            "remaining": self.remaining,
            "requested": self.requested,
            "n_completed": self.n_completed,
            "accountant": self.accountant,
        }

    def payload(self) -> dict:
        """The HTTP body: base fields plus the full refusal ledger."""
        return {**super().payload(), "ledger": self.ledger()}


class LockTimeoutError(ReproError, TimeoutError):
    """A lock could not be acquired within its timeout.

    Transient contention (HTTP 503): the retrying ledger store retries it
    and the service answers it with ``Retry-After``.  The fault
    injector's ``lock_timeout`` kind raises it.  Subclasses
    :class:`TimeoutError` so generic timeout handling keeps working.
    """

    http_status = 503  # transient contention; the client may retry
    retry_after = 1.0  # seconds, sent as ``Retry-After``


class NotApplicableError(ReproError, RuntimeError):
    """Raised when a mechanism does not apply to the given instantiation.

    The canonical case is GK16 when the spectral norm of the influence matrix
    is >= 1 (reported as "N/A" in the paper's tables), or MQMApprox when the
    distribution class contains a non-mixing (reducible or periodic) chain.
    """

    http_status = 422


class EnumerationError(ReproError, RuntimeError):
    """Raised when an exact computation would require enumerating a state
    space that exceeds the configured safety limit.

    The Wasserstein Mechanism and the general Markov Quilt Mechanism both
    enumerate joint distributions; this error protects against accidentally
    requesting an exponential computation on a large model.
    """

    http_status = 422


class ReservationError(ReproError, ValueError):
    """Raised when a reservation operation is inconsistent with its state.

    Examples: consuming more releases than the reservation holds, consuming
    at an epsilon other than the one reserved, or double-releasing.  This is
    a caller protocol error (HTTP 409 Conflict), distinct from
    :class:`BudgetExhaustedError` — the *tenant budget* may be fine; the
    *session's carved-out sub-budget* was used incorrectly.
    """

    http_status = 409


class UnknownTenantError(ReproError, KeyError):
    """Raised when a tenant has no ledger in the store (HTTP 404).

    Tenants must be created explicitly (``POST /tenants/{tenant}``) so a
    typo in a tenant name can never silently mint a fresh unlimited ledger.
    """

    http_status = 404

    def __str__(self) -> str:  # KeyError quotes its message; undo that.
        return self.args[0] if self.args else ""


class UnknownReservationError(ReproError, KeyError):
    """Raised when a reservation id is not outstanding for the tenant —
    never issued, already released, or expired past the ledger's stale
    reservation TTL (HTTP 410 Gone: retrying with the same id cannot
    succeed; open a new session)."""

    http_status = 410

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class UnknownSessionError(ReproError, KeyError):
    """Raised when a streaming session id is not live on this service
    process (HTTP 404) — never opened, closed, or lost to a restart (the
    budget its reservation carved out is reclaimed by the reservation
    TTL)."""

    http_status = 404

    def __str__(self) -> str:
        return self.args[0] if self.args else ""
