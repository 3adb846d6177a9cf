"""Process entry of ``python -m atomphase`` and the ``atomphase`` script.

``entry`` runs the command line and ends the process once its output is
flushed; ``run`` is the same command line without the exit, for callers
that stay in process.
"""

import gc
import os
import sys
from typing import NoReturn


def run() -> int:
    """Run the command line in this process and return its exit code.

    The cyclic collector is off while ``cli`` imports numpy and scipy, and
    the objects they leave behind are then frozen: they live as long as the
    process, so no later collection, nor the one at interpreter exit,
    walks them again.  ``cli.main`` called in process leaves the collector
    alone.
    """
    gc.disable()
    try:
        from .cli import main
    finally:
        gc.freeze()
        gc.enable()
    return main()


def entry() -> NoReturn:
    """Run the command line, flush stdout and stderr, and end the process.

    Once ``main`` has returned and both streams are flushed, the output is
    complete, so the process ends with ``os._exit``: the interpreter's
    shutdown (module teardown, the final collection, C-level atexit work
    such as OpenBLAS's) would only free memory the kernel takes back
    anyway, and on a shared 2-vCPU host it cost an ``eval`` ~13 ms and
    ~1 MB of peak RSS.

    A failed flush exits 2 with one ``error:`` line, or with none for a
    closed pipe, as ``cli.main`` does for a failed write.  A usage error or
    ``--help`` leaves through argparse's ``SystemExit`` and the ordinary
    shutdown, with its exit code unchanged.
    """
    status = run()
    try:
        sys.stdout.flush()
    except OSError as exc:
        status = 2
        if not isinstance(exc, BrokenPipeError):
            try:
                sys.stderr.write(f"error: {exc}\n")
            except OSError:
                pass
    try:
        sys.stderr.flush()
    except OSError:
        status = 2
    os._exit(status)


if __name__ == "__main__":
    entry()
