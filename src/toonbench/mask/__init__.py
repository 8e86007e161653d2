"""Grammar-constrained decoding: vocabularies, byte automata, token masks."""

from .vocab import Vocabulary, load_vocabulary, save_vocabulary, build_toy_vocabulary
from .engine import (
    GrammarState,
    Mask,
    RejectError,
    DeadEndError,
    UnsupportedSchemaError,
    init_state,
    advance,
    allowed_mask,
    is_accepting,
    constrained_generate,
)

__all__ = [
    "Vocabulary",
    "load_vocabulary",
    "save_vocabulary",
    "build_toy_vocabulary",
    "GrammarState",
    "Mask",
    "RejectError",
    "DeadEndError",
    "UnsupportedSchemaError",
    "init_state",
    "advance",
    "allowed_mask",
    "is_accepting",
    "constrained_generate",
]
