import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules, then the sources it measures
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
