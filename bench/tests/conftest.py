import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent

# the benchmark's modules import each other by bare name, as scripts do,
# and import the package from the checkout's src/
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
