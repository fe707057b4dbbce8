"""Shared helpers: error types, deterministic parallel map, float formatting."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class SingularSystemError(RuntimeError):
    """A linear system was structurally or numerically singular."""

    def __init__(self, message: str, context: str = ""):
        self.context = context
        super().__init__(f"{message}{' [' + context + ']' if context else ''}")


class NonConvergenceError(RuntimeError):
    """Nonlinear iteration failed to reach tolerance."""

    def __init__(self, message: str, residual_history: Sequence[float] = ()):
        self.residual_history = list(residual_history)
        super().__init__(message)


def parallel_map(fn: Callable, items: Iterable, threads: int = 1) -> list:
    """Map ``fn`` over ``items`` with a thread pool, preserving input order.

    Results are gathered by index, so the output is independent of the
    number of workers and of task completion order.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return f"{x:.17g}"


def csv_escape(field: str) -> str:
    if any(c in field for c in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
              echo: Sequence[str] = ()) -> None:
    """Write an RFC-4180 style CSV with optional '#' comment preamble.

    Floats are formatted with 17 significant digits so identical runs
    produce byte-identical files.
    """
    with open(path, "w", newline="") as fh:
        for line in echo:
            fh.write(f"# {line}\r\n")
        fh.write(",".join(csv_escape(h) for h in header) + "\r\n")
        for row in rows:
            cells = [fmt17(c) if isinstance(c, float) else csv_escape(str(c))
                     for c in row]
            fh.write(",".join(cells) + "\r\n")
