"""Run the smaxplus CLI under the stdlib profiler.

    python3 profile_child.py <stats file> <cli arguments>...

The import of the package is profiled too, since it happens inside the run.
The exit code is the CLI's own.
"""

import cProfile
import runpy
import sys


def main() -> None:
    stats_path = sys.argv[1]
    sys.argv = ["smaxplus", *sys.argv[2:]]
    prof = cProfile.Profile()
    code = 0
    prof.enable()
    try:
        runpy.run_module("smaxplus.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        prof.disable()
        prof.dump_stats(stats_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
