import gc
import sys

from .cli import main

code = main()
# Exit without the cyclic collector walking every object at teardown;
# sys.exit still runs atexit handlers and flushes the streams.
gc.freeze()
sys.exit(code)
