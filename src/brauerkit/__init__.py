"""brauerkit: Picard and Brauer groups of KO, TMF and number rings."""

import os

_DATA_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)), "data")


def data_dir() -> str:
    """The curated data directory: `BRAUERKIT_DATA` if set, else the shipped one."""
    return os.environ.get("BRAUERKIT_DATA") or _DATA_DIR
