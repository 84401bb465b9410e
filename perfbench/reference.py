"""Known answers the benchmark checks seqspace against.

Nothing here calls seqspace: the support rules restate the program's
documentation, and the textbook answers come from the classical
characterization tables (Stieglitz & Tietz, Math. Z. 154, 1977).
"""

from __future__ import annotations

CLASSICAL = ("c0", "c", "linf", "bs", "cs")
DOMAIN_TRIANGLES = ("omega", "gamma")
DOMAIN_BASES = ("c0", "c", "linf")

#: Classical pairs without a row/column characterization in the engine:
#: (c0 : c0) and every pair from bs or cs into bs or cs.
UNCHARACTERIZED = {("c0", "c0"), ("bs", "bs"), ("bs", "cs"), ("cs", "bs"),
                   ("cs", "cs")}

GRID_MATRICES = ("identity", "omega", "gamma", "omega-inv", "gamma-inv",
                 "cesaro", "euler:1/2", "zero")
GRID_SPACES = CLASSICAL + tuple(f"{b}({m})" for m in DOMAIN_TRIANGLES
                                for b in DOMAIN_BASES)


def split_space(space: str) -> tuple:
    """("c0(omega)") -> ("c0", "omega"); ("c") -> ("c", None)."""
    if "(" in space:
        base, inner = space[:-1].split("(", 1)
        return base, inner
    return space, None


def cell_supported(from_space: str, to_space: str) -> bool:
    """The documented support rules: the 20 characterized classical pairs,
    source domains over omega/gamma only, never a domain on both sides."""
    f_base, f_tri = split_space(from_space)
    t_base, t_tri = split_space(to_space)
    if f_tri is not None and t_tri is not None:
        return False
    if f_tri is not None and f_tri not in DOMAIN_TRIANGLES:
        return False
    return (f_base, t_base) not in UNCHARACTERIZED


def grid_cells() -> list:
    """Every supported (matrix, from, to) cell of the acceptance grid."""
    return [(m, f, t) for m in GRID_MATRICES for f in GRID_SPACES
            for t in GRID_SPACES if cell_supported(f, t)]


def grid_unsupported() -> list:
    return [(m, f, t) for m in GRID_MATRICES for f in GRID_SPACES
            for t in GRID_SPACES if not cell_supported(f, t)]


#: Textbook cells of the acceptance grid with their known answer.  Each is a
#: classical theorem: inclusions between the spaces, Toeplitz regularity of
#: the Cesaro and Euler means, and row-sum bounds of the explicit triangles.
TEXTBOOK_CELLS = {
    ("identity", "c0", "c"): "satisfied",       # c0 is inside c
    ("identity", "c", "c"): "satisfied",
    ("identity", "linf", "linf"): "satisfied",
    ("identity", "cs", "c0"): "satisfied",      # terms of a convergent series vanish
    ("identity", "bs", "linf"): "satisfied",    # bounded partial sums, bounded terms
    ("identity", "c", "c0"): "violated",        # the constant 1
    ("identity", "linf", "c"): "violated",      # (-1)^k
    ("identity", "c0", "cs"): "violated",       # 1/k
    ("zero", "linf", "c0"): "satisfied",
    ("zero", "c", "cs"): "satisfied",
    ("cesaro", "c", "c"): "satisfied",          # Toeplitz: regular
    ("cesaro", "c0", "c"): "satisfied",
    ("cesaro", "linf", "linf"): "satisfied",
    ("cesaro", "c", "c0"): "violated",          # C1 of the constant 1 is 1
    ("cesaro", "linf", "c"): "violated",        # Schur: linf -> c needs norm-convergent rows
    ("euler:1/2", "c", "c"): "satisfied",       # Toeplitz: regular
    ("euler:1/2", "linf", "linf"): "satisfied",
    ("euler:1/2", "c", "c0"): "violated",
    ("omega", "c0", "linf"): "violated",        # row sums n(n+1)/2
    ("omega", "c", "c"): "violated",
    ("gamma", "c0", "linf"): "violated",        # row sums H_n
    ("gamma", "linf", "linf"): "violated",
    ("omega-inv", "linf", "c0"): "satisfied",   # row sums 2/n
    ("omega-inv", "c0", "c"): "satisfied",
    ("gamma-inv", "c0", "linf"): "violated",    # row sums 2n
}

OPPOSITE = {"satisfied": "violated", "violated": "satisfied"}

#: Exit codes of the seqspace CLI, as documented in its README.
EXIT_FOR_VERDICT = {"satisfied": 0, "violated": 1, "inconclusive": 2}
