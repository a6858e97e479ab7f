"""Exact-arithmetic toolkit for the tilting quiver of the Grassmannian
of lines: Young tableau combinatorics, the quiver and its relation
ideal, and the embedding and reconstruction of points as stable quiver
representations."""

from .linalg import RatMatrix, rat
from .tableaux import (
    Partition,
    SkewShape,
    enumerate_ssyt,
    gamma_set,
    gl_dimension,
    hom_dim,
    kostka,
    lr_number,
)
from .fibers import (
    GrPoint,
    f_matrix,
    g_matrix,
    reduce_point,
    surjectivity_rank,
)
from .quiver import (
    Arrow,
    RelationElement,
    TiltingQuiver,
    build_quiver,
    enumerate_paths,
    relation_sets,
)
from .moduli import (
    GaugeElement,
    QuiverRep,
    StabilityReport,
    assemble_W,
    check_relations,
    check_stability,
    embed,
    random_gauge,
    random_point,
    reconstruct,
    scramble,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
