"""Entry point of `python -m idstates` and of the idstates console script."""

import gc
import sys

from .cli import main


def run():
    """Run one request and exit with its code.

    The cyclic collector is frozen before exit, so interpreter teardown
    does not walk every object; sys.exit still runs atexit handlers and
    flushes the streams.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
