"""Adjudication records.

`fibword.claims` builds every one: its `_claim(id, location)` decorator turns
a check's `(status, witness, payload)` into the `ClaimResult` below.
"""

from __future__ import annotations

from typing import Any, Mapping

from ._frozen import Frozen

VERIFIED = "verified"
REFUTED = "refuted"


class ClaimResult(Frozen):
    """Outcome of checking one quantitative statement.

    `witness` is human-readable exact data: for a refutation, a concrete
    counterexample; for a verification, the sweep bounds that were checked.
    `payload` holds the same information in structured, JSON-ready form.
    """

    def __init__(
        self, id: str, location: str, status: str, witness: str, payload: Mapping[str, Any] | None = None
    ) -> None:
        if status not in (VERIFIED, REFUTED):
            raise ValueError(f"status must be {VERIFIED!r} or {REFUTED!r}")
        if not witness:
            raise ValueError("a claim result must carry witness text")
        payload = {} if payload is None else payload
        self.__dict__.update(id=id, location=location, status=status, witness=witness, payload=payload)

    def __hash__(self) -> int:  # the dict payload is unhashable; equal results agree on these four fields
        return hash((self.id, self.location, self.status, self.witness))

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def record(self) -> dict[str, Any]:
        """Plain-dict form with the fixed field names id/location/status/witness/payload."""
        return {
            "id": self.id,
            "location": self.location,
            "status": self.status,
            "witness": self.witness,
            "payload": dict(self.payload),
        }
