"""Polyadic concept analysis toolkit.

Model n-dimensional cross tables, enumerate their concepts (maximal boxes
full of crosses), transform contexts by flattening, slicing and direct
sums, reason about implications, build the extremal context families and
explore bounds on the maximal number of concepts.
"""

from .bounds import (
    BoundsReport,
    SearchResult,
    bounds_report,
    exhaustive_max_concepts,
    lower_bound_context_4d,
    lower_bound_count_4d,
    naive_bounds,
    render_csv,
    render_text,
)
from .context import (
    Concept,
    ConceptSet,
    NContext,
    NOrderReport,
    ResourceLimitError,
    box_full,
    check_n_ordered,
    contains,
    description,
    feature_cells,
    features,
    from_dense,
    is_concept,
    quasi_leq,
    to_dense,
)
from .enumeration import brute_force_concepts, count_concepts, enumerate_concepts
from .generators import (
    FIXTURE_NAMES,
    Shape,
    b_class,
    contranominal,
    fixture,
    random_context,
    rook_context,
)
from .implications import (
    Classification,
    Implication,
    canonical_context,
    classify,
    closure2,
    dg_base,
    holds,
    implication_support,
    lattice_equivalent,
    parse_implication,
    struct_closure,
)
from .io import (
    ParseError,
    context_from_table,
    parse_concepts_json,
    parse_context,
    serialize_concepts,
    serialize_context,
)
from .transforms import Bipartition, direct_sum, flatten, objects_vs_rest, slice_dim

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "BoundsReport",
    "Classification",
    "Concept",
    "ConceptSet",
    "FIXTURE_NAMES",
    "Implication",
    "NContext",
    "NOrderReport",
    "ParseError",
    "ResourceLimitError",
    "SearchResult",
    "Shape",
    "b_class",
    "bounds_report",
    "box_full",
    "brute_force_concepts",
    "canonical_context",
    "check_n_ordered",
    "classify",
    "closure2",
    "contains",
    "context_from_table",
    "contranominal",
    "count_concepts",
    "description",
    "dg_base",
    "direct_sum",
    "enumerate_concepts",
    "exhaustive_max_concepts",
    "feature_cells",
    "features",
    "fixture",
    "flatten",
    "from_dense",
    "holds",
    "implication_support",
    "is_concept",
    "lattice_equivalent",
    "lower_bound_context_4d",
    "lower_bound_count_4d",
    "naive_bounds",
    "objects_vs_rest",
    "parse_concepts_json",
    "parse_context",
    "parse_implication",
    "quasi_leq",
    "random_context",
    "render_csv",
    "render_text",
    "rook_context",
    "serialize_concepts",
    "serialize_context",
    "slice_dim",
    "struct_closure",
    "to_dense",
]
