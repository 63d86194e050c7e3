"""`python -m flexmove`, and the `flexmove` console script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line on sys.argv and return main's exit status.

    Every object alive when main returns is frozen (gc.freeze) first, so that
    the interpreter's teardown does not walk and free, one by one, the objects
    the imports made.  Standard output and error are still flushed and atexit
    handlers still run; every file the package opens is closed by its own
    ``with`` block before main returns.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
