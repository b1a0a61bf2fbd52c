"""Import ``sddpkit`` before any test module imports numpy.

The package sets OpenBLAS to one thread when it is imported, and OpenBLAS
reads that setting only when numpy first loads it.  The test modules import
numpy first, so without this the suite would run under the inherited BLAS
thread count rather than the one the CLI and library use.
"""
import sddpkit  # noqa: F401
