"""Summary statistics for experiment results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    def row(self, scale: float = 1.0, fmt: str = "{:.3f}") -> list[str]:
        """Render as table cells, values multiplied by *scale*."""
        return [
            str(self.count),
            fmt.format(self.mean * scale),
            fmt.format(self.std * scale),
            fmt.format(self.minimum * scale),
            fmt.format(self.median * scale),
            fmt.format(self.maximum * scale),
        ]

    @staticmethod
    def header() -> list[str]:
        """Column names matching :meth:`row`."""
        return ["n", "mean", "std", "min", "median", "max"]


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of *values*."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    import numpy as np

    array = np.asarray(list(values), dtype=float)
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=0)),
        minimum=float(array.min()),
        p25=float(np.percentile(array, 25)),
        median=float(np.percentile(array, 50)),
        p75=float(np.percentile(array, 75)),
        maximum=float(array.max()),
    )
