"""The seed of the seeded differential tests.

Each seeded test passes its own default; setting DIFFERENTIAL_SEED runs
every one of them at that seed instead, as CI does with its run number.
"""

import os


def differential_seed(default: int) -> int:
    """DIFFERENTIAL_SEED as an integer when it is set, else `default`."""
    return int(os.environ.get("DIFFERENTIAL_SEED", default))
