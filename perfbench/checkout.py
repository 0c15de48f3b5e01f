"""Locates the sprinkle sources of the checkout the benchmark sits in.

The benchmark always measures the sources next to it, never an
installed copy, so every entry point calls use_checkout_sources()
before importing sprinkle.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put ROOT/src first on sys.path; exit non-zero if it holds no
    sprinkle package (for example when only the benchmark is present)."""
    if not (SRC / "sprinkle" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sprinkle sources under {SRC}; "
                 "run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sprinkle

    if Path(sprinkle.__file__).resolve().parent != SRC / "sprinkle":
        sys.exit(f"perfbench: imported sprinkle from {sprinkle.__file__}, "
                 f"not from {SRC}")
