"""Set-up probe, run as a fresh process by run.py.

Usage: python3 setup_probe.py ROOT config|data PATH

Imports tailcv from ROOT/src, parses the config file or loads the CSV data
file, and prints time.monotonic() at the point where the first replication
would start. The parent subtracts the monotonic time at which it started
this process; on Linux the monotonic clock is shared by all processes.
"""

import os
import sys
import time


def main() -> int:
    root, kind, path = sys.argv[1:4]
    sys.path.insert(0, os.path.join(root, "src"))
    from tailcv import cli

    if kind == "config":
        cli.load_experiment_config(path)
    elif kind == "data":
        cli.load_data_file(path)
    else:
        raise SystemExit(f"unknown loader kind '{kind}'")
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
