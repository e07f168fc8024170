"""One measurement in a fresh interpreter, for the benchmark's parent process.

Usage: ``python3 perfbench/probe.py <workload> <mode> <seed> <tiny 0|1>``.
Times ``import repro`` first, then runs the workload's probe *mode*
(``import`` stops after the import) and prints one JSON object.
"""

from __future__ import annotations

import importlib
import json
import sys

import common


def main(argv: list[str]) -> int:
    workload, mode, seed, tiny = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    common.prepare_environment()
    start = common.now()
    import repro  # noqa: F401 - the import being timed

    reply = {"import_s": common.now() - start}
    if mode != "import":
        module = importlib.import_module(workload)
        reply.update(module.probe(mode, seed, tiny))
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
