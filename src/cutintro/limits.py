"""The run's limits.  ``LimitReached`` ends every meter past its cap:
``deadline`` (a run's ``Deadline``), ``termset_limit``, ``oracle_steps``
(per query) and ``clause_form_literals`` (per clause form).  A handler
catches its own meter and lets any other pass, so a deadline that
strikes inside an oracle query still ends the run.
"""

from __future__ import annotations

import time


class LimitReached(Exception):
    """The meter named ``meter`` passed its cap, ``cap``."""

    def __init__(self, meter: str, cap: float, message: str = "") -> None:
        super().__init__(message or f"{meter} passed its cap of {cap}")
        self.meter, self.cap = meter, cap


class Deadline:
    """``seconds`` of wall clock from its creation; None never strikes."""

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._at = time.monotonic() + seconds if seconds else float("inf")

    def poll(self) -> None:
        if time.monotonic() > self._at:
            message = f"deadline of {self.seconds:g}s struck during the search"
            raise LimitReached("deadline", self.seconds, message)


NO_DEADLINE = Deadline(None)  # for a stage called without a deadline
