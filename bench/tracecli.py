"""Run one halfcyl CLI command with its layer spans recorded.

    python bench/tracecli.py STATS.json <halfcyl cli arguments...>

Behaves like ``python -m halfcyl.cli <arguments...>`` and writes the span
statistics of the process (see spans.Tracer) to STATS.json.
"""

import json
import sys

from spans import Tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    import halfcyl.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.stats, fh)


if __name__ == "__main__":
    sys.exit(main())
