"""Exact-arithmetic toolkit for Boolean Eulerian-orientation counting problems.

Import what you need from its modules (``eoexact.signatures``,
``eoexact.grids``, ``eoexact.classify``, ...); the package itself imports
none of them, so ``eoexact.oracle_cli`` starts without the arithmetic stack.
"""

__version__ = "0.1.0"
