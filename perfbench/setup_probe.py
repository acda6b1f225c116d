"""One set-up measurement, in a fresh interpreter.

Times the imports of the simulator plus building the first runtime of a
workload, and prints those seconds and the mean of the speed spins
timed before and after (see ``spin.py``). ``run.py`` starts this
several times and reports the rescaled median as ``setup_s``::

    python3 perfbench/setup_probe.py splash-8n 2003
"""

import sys
import time


def main() -> None:
    import spin

    spin.measure()   # the first spin of a fresh interpreter runs slow
    before = spin.measure()
    started = time.perf_counter()
    import paths
    paths.use_program()
    import workloads

    workloads.build(workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))[0])
    setup_s = time.perf_counter() - started
    print(f"{setup_s!r} {(before + spin.measure()) / 2.0!r}")


if __name__ == "__main__":
    main()
