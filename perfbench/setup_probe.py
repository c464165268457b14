"""Time `import mamimo` and parsing one workload config in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <config.yaml>
Prints one JSON object with `import_s` and `parse_s`.
"""
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mamimo.config  # noqa: E402

t1 = time.perf_counter()
mamimo.config.parse_config(sys.argv[2])  # parses and validates
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "module": mamimo.__file__}))
