"""Result containers with deterministic serialization.

Reports serialize to byte-identical JSON for identical inputs and seeds:
keys are sorted, floats use shortest round-trip repr, and volatile fields
(wall time) are kept out of the payload and only shown on the console.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def _json_default(value):
    """Numpy values for json.dumps; np.float64 is a float and never gets here."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@dataclass
class Report:
    """Outcome of one experiment: echoed inputs, scalars, bounds and flags."""

    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    satisfied: bool | None = None
    flags: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def payload(self) -> dict[str, Any]:
        """Report fields; wall time is left out so the output bytes are reproducible."""
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "bounds": self.bounds,
            "satisfied": self.satisfied,
            "flags": self.flags,
        }

    def to_json_bytes(self) -> bytes:
        text = json.dumps(
            self.payload(), sort_keys=True, indent=2, allow_nan=False, default=_json_default
        )
        return (text + "\n").encode()

    @property
    def exit_code(self) -> int:
        return 0 if self.satisfied in (True, None) else 2


def sweep_csv_bytes(rows, header=("alpha", "value", "bound")) -> bytes:
    """CSV for parameter sweeps; floats printed with round-trip repr."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    return ("\n".join(lines) + "\n").encode()
