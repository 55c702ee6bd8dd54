"""Adjudication records.

`fibword.claims` builds them, in one place: its `_claim(id, location, bounds)`
decorator turns a check's `(status, witness, payload)` into the `ClaimResult`
below.
"""

from __future__ import annotations

from collections.abc import Mapping

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
        self, id: str, location: str, status: str, witness: str, payload: Mapping[str, object] | None = None
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

    def record(self) -> dict[str, object]:
        """Plain-dict form: the fields id/location/status/witness/payload, in that order."""
        return {**self.__dict__, "payload": dict(self.payload)}
