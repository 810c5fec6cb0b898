"""The common shape every experiment returns, and the gate helpers
that pin it."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .tables import format_table


def fingerprint(payload: Any) -> str:
    """A short stable digest of any JSON-serializable payload.

    Gates pin these digests instead of bulky per-request sequences:
    the baseline stays small, yet any single changed outcome or timing
    still fails it.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def pinned(current: Dict[str, Any], baseline: Dict[str, Any],
           arms: Sequence[Optional[str]], fields: Sequence[str],
           label: str) -> List[str]:
    """Violations of ``fields`` that must match the baseline exactly.

    Each arm names a sub-document of both docs (``None`` compares the
    top level). Gate replays are deterministic, so any drift in a
    pinned field is a behaviour change, not noise.
    """
    violations: List[str] = []
    for arm in arms:
        cur_arm = current.get(arm, {}) if arm else current
        base_arm = baseline.get(arm, {}) if arm else baseline
        where = f"{label} {arm}." if arm else f"{label} "
        for fld in fields:
            base, cur = base_arm.get(fld), cur_arm.get(fld)
            if base != cur:
                violations.append(f"{where}{fld}: {cur} vs pinned {base}")
    return violations


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rows plus machine-readable facts.

    ``claims`` holds the quantities the paper's argument rests on
    (ratios, orderings); benchmark tests assert against them, and
    EXPERIMENTS.md prints them next to the paper's numbers.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    claims: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The experiment as an ASCII table with notes."""
        out = [format_table(self.headers, self.rows,
                            title=f"[{self.experiment_id}] {self.title}")]
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)
