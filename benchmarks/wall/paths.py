"""Where the benchmark lives inside a checkout."""

from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Root of the checkout (``benchmarks/wall`` -> two up).
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: The only directory the benchmark writes to.
OUT = HERE / "out"


def require_source() -> None:
    """The benchmark measures this checkout's source, never an installed
    copy of the program: fail where there is none."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'repro'}")
