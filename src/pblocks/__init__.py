"""Exact block theory and p-chain counting checks for small permutation groups."""

from .config import DEFAULT_LIMITS, Limits
from .errors import InputError, InternalError, PBlocksError, ResourceError
from .groups import Group, SubgroupHandle
from .library import acceptance_corpus, library_group, parse_group_file

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LIMITS",
    "Limits",
    "InputError",
    "InternalError",
    "PBlocksError",
    "ResourceError",
    "Group",
    "SubgroupHandle",
    "library_group",
    "parse_group_file",
    "acceptance_corpus",
    "__version__",
]
