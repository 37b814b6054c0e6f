"""The identity-verification suite, loaded from ``_suite`` on first use.

Importing this stub costs nothing.  The first lookup of a name imports
``_suite``: the import system runs it once, makes a concurrent lookup wait
for it and runs it again after a failure.
"""

from importlib import import_module

__all__ = [
    "CHECKS",
    "IdentityReport",
    "Providers",
    "SuiteConfig",
    "SuiteResult",
    "Theorem13Resolution",
    "check_identity",
    "resolve_theorem13_variant",
    "run_suite",
]


def __getattr__(name):
    return getattr(import_module("._suite", __package__), name)
