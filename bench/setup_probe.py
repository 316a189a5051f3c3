"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

    python3 setup_probe.py <src dir> <config file>

Imports centiwalk, loads the config and resolves its terrain entries (the
work that precedes a workload's first timed call), then prints the
monotonic clock.  The caller subtracts the time at which it spawned the
interpreter.
"""

import sys
import time


def main(src: str, config: str) -> None:
    sys.path.insert(0, src)
    import centiwalk
    import centiwalk.cli  # noqa: F401  (the CLI imports every module)

    fc = centiwalk.load_config(config)
    for token in fc.experiment.terrains:
        try:
            float(token)
        except ValueError:
            centiwalk.TerrainGrid.load(token)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(*sys.argv[1:3])
