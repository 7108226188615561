"""Shared error contract of the toolkit.

:class:`UsageError` is the one exception callers are expected to
handle: it means the *request* was malformed (unknown benchmark or
input names, conflicting flags), not that the toolkit failed.  The CLI
maps it to exit code 2 with a one-line stderr message — never a
traceback — as documented in :mod:`repro.cli`; library callers can
catch it to validate user-supplied benchmark subsets up front.

It lives in its own leaf module so every layer (workload registry,
experiment drivers, facade, CLI) can raise or catch it without import
cycles.
"""

from __future__ import annotations


class UsageError(Exception):
    """A malformed request: bad names or flags, reported without traceback."""


def read_text(command: str, path: str, what: str) -> str:
    """The UTF-8 text of a user-named file, or a UsageError naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise UsageError(f"no such {what}: {path}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{command}: {path}: byte {exc.start}: "
                         f"not UTF-8 ({exc.reason})")
    except OSError as exc:
        raise UsageError(f"{command}: {path}: {exc.strerror}")


__all__ = ["UsageError", "read_text"]
