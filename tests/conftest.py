import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # HYPOTHESIS_PROFILE=ci runs ten times the default examples.
    settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
