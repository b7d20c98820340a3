"""Entry point of `python -m idstates` and of the idstates console script."""

import gc
import os
import sys

from .cli import main


def run():
    """Run one request and exit with its code.

    numpy's OpenBLAS starts one worker thread per core when numpy loads,
    although no command calls a BLAS routine: one thread halves what
    importing numpy costs. setdefault keeps a value the caller set, and
    only this process-level entry point sets it, so a program that
    imports the library keeps its own BLAS threads.

    The cyclic collector is frozen before exit, so interpreter teardown
    does not walk every object; sys.exit still runs atexit handlers and
    flushes the streams.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
