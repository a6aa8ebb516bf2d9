"""Exceptions and the verdict type shared across the package.

Two failure classes matter to callers: bad input (rejected data, out of
domain) and internal inconsistency (an identity that is guaranteed to hold
failed on valid input).  The CLI maps them to exit codes 2 and 3.

Every exact check returns its verdict as a :class:`Report`.
"""

from __future__ import annotations

from dataclasses import dataclass


class InputError(ValueError):
    """Malformed or out-of-domain input (bad JSON, degenerate configuration, ...)."""


class InconsistencyError(RuntimeError):
    """A mathematically guaranteed identity failed; indicates a bug, never bad input."""


@dataclass(frozen=True)
class Report:
    """Named exact checks, one ``(name, ok, detail)`` each, in the order run.

    ``detail`` says what failed and is empty for a check that passed; the
    detail of the first failed check is the report's ``witness``.
    """

    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def passed(self, name: str) -> bool:
        """The verdict of the first check called ``name``."""
        for check, ok, _ in self.checks:
            if check == name:
                return ok
        raise KeyError(name)

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]

    def first_failure(self) -> str | None:
        return next(iter(self.failures), None)

    @property
    def witness(self) -> str | None:
        return next((detail for _, ok, detail in self.checks if not ok), None)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
        }
