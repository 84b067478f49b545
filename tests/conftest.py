import sys
from pathlib import Path

# the 50-digit references in perfbench/oracle.py, importable as ``oracle``
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
