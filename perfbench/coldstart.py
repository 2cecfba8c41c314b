"""One cold start: import proofinfo, then load, validate and measure a system.

Usage: python3 perfbench/coldstart.py SRC_DIR SYSTEM_JSON
Prints the seconds taken. Imports nothing else before the clock starts, so
the import cost of the package and of what it pulls in is counted.
"""

import sys
import time

src, system = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
start = time.perf_counter()
import proofinfo  # noqa: E402

proofinfo.proof_measure(proofinfo.load_knowledge_system(system))
elapsed = time.perf_counter() - start
if not proofinfo.__file__.startswith(src):
    sys.exit(f"proofinfo imported from {proofinfo.__file__}, not from {src}")
print(repr(elapsed))
