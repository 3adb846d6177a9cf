"""Process entry of ``python -m atomphase`` and the ``atomphase`` script."""

import gc
import sys


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


if __name__ == "__main__":
    sys.exit(run())
