import sys
from pathlib import Path

# Test modules import the helpers beside them (oracles, strategies) by name.
sys.path.insert(0, str(Path(__file__).parent))
