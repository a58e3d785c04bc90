"""Answer checking against an in-process reference.

Every answer a workload receives is compared, as ``detection_payload``
JSON, with one-shot ``detect`` on a separately loaded detector of the
snapshot generation that may have served it.
"""

from __future__ import annotations

import json
from pathlib import Path


def canonical(payload: dict) -> str:
    """The comparison form of a detection payload."""
    return json.dumps(payload, sort_keys=True)


def canonical_body(body: bytes) -> str | None:
    """The comparison form of an HTTP response body (``None`` if it is
    not a JSON object)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return canonical(payload) if isinstance(payload, dict) else None


class References:
    """Expected payloads per ``(generation, query)``, computed lazily
    from one reference detector per generation."""

    def __init__(self, snapshots: dict[int, Path]) -> None:
        self._snapshots = dict(snapshots)
        self._detectors: dict[int, object] = {}
        self._memo: dict[tuple[int, str], str] = {}

    def add(self, generation: int, snapshot: Path) -> None:
        self._snapshots[generation] = snapshot

    def expected(self, generation: int, query: str) -> str:
        key = (generation, query)
        found = self._memo.get(key)
        if found is None:
            from repro.serving.http import detection_payload

            detector = self._detectors.get(generation)
            if detector is None:
                from repro.runtime.compiled import CompiledDetector

                detector = CompiledDetector.load_snapshot(self._snapshots[generation])
                self._detectors[generation] = detector
            found = self._memo[key] = canonical(detection_payload(detector.detect(query)))
        return found

    def matches(self, generations, query: str, got: str | None) -> bool:
        """True when ``got`` equals the expected payload of any of
        ``generations``."""
        return got is not None and any(
            self.expected(generation, query) == got for generation in sorted(generations)
        )

    def tells_apart(self, generations, query: str) -> bool:
        """True when the generation before the oldest of ``generations``
        answers ``query`` differently from all of them, so a server
        serving it (one that applied a reload late, or never) would fail
        the check."""
        older = min(generations) - 1
        if older not in self._snapshots:
            return False
        allowed = {self.expected(generation, query) for generation in generations}
        return self.expected(older, query) not in allowed

    def close(self) -> None:
        for detector in self._detectors.values():
            detector.close()
        self._detectors.clear()
