"""Locating the program in the checkout and driving its command line.

Both the benchmark's parent process and its worker import ``ectuner`` from
the checkout's own ``src/`` directory, never from an installed copy, so the
numbers always belong to the tree being measured.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ``ectuner.cli`` from ``<root>/src`` and return the module."""
    package = os.path.join(SRC, "ectuner")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise ProgramMissing(f"no ectuner package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from ectuner import cli

    if not os.path.abspath(cli.__file__).startswith(package + os.sep):
        raise ProgramMissing(f"ectuner was imported from {cli.__file__}, not {package}")
    return cli


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Call ``main(argv)`` as the shell would, capturing stdout and stderr.

    Any exception is a failed command: its traceback goes to the captured
    stderr and the exit status is -1.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc(file=err)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def digest_tree(path: str) -> dict[str, str]:
    """sha256 of every file under ``path``, keyed by relative path."""
    digests = {}
    for dirpath, _, names in os.walk(path):
        for name in names:
            full = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(full, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[os.path.relpath(full, path)] = h.hexdigest()
    return dict(sorted(digests.items()))
