"""lpm: a proof-checking kernel for the lambda-Pi-calculus modulo rewriting,
with an embedding pipeline for polymorphic first-order theories and
sequent-style refutation certificates.

`import lpm` loads no module: `lpm.tff` or `from lpm import tff` imports
one on first use, so `lpm check` loads only the trusted base."""

import importlib

__all__ = ["dkparse", "dkprint", "embed", "examples", "kernel", "llproof", "record", "sexp", "signature", "terms", "tff"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
