"""Exact constrained quantization of the Cantor distribution.

Builds the optimal n-point codebooks on the family of line constraints
S_j = {(x, x + 1/j) : -1/j <= x <= 1}, evaluates every error quantity in
exact rational arithmetic, and verifies the closed forms with independent
search oracles (Lloyd iteration and an exact dynamic program).  This
namespace holds only __version__: each name is imported from the module
that defines it, e.g. `from cantorq.closedform import build_alpha`.
"""

__version__ = "0.1.0"
