"""Endhered patterns in perfect matchings and RNA secondary structures."""

__version__ = "0.1.0"

from .matchings import (
    Arc,
    EndheredError,
    Matching,
    MatchingError,
    enumerate_matchings,
    from_arcs,
    from_permutation,
    left_twist,
    parse_matching,
    random_matching,
    right_twist,
    serialize_matching,
    to_permutation,
)
from .patterns import (
    EndheredPattern,
    Occurrence,
    PatternError,
    as_matching,
    count_occurrences,
    distribution_bruteforce,
    distributions_bruteforce,
    find_occurrences,
    joint_distribution_bruteforce,
    monte_carlo_distribution,
    total_variation_to_poisson_half,
)
from .tables import (
    DistributionTable,
    a21_closed_form,
    avoid21,
    avoid21_incl_excl,
    double_factorial,
    egf_row_b,
    row1_21,
    table_a21,
    table_c321,
    table_d132,
    table_for_pattern,
    wilf_classes,
)
from .asymptotics import (
    asym_ratio_c,
    asym_ratio_d,
    avoidance_probability_21,
    constant_Ck,
    log_asym_a21,
    poisson_half_pmf,
    row_ratio_21,
)
from .structure import (
    BracketAlphabet,
    SecondaryStructure,
    StructureError,
    ValidationReport,
    collapse_shape,
    matching_from_dotbracket,
    parse_dotbracket,
    serialize_dotbracket,
    structure_to_shape_text,
    to_matching,
    validate_waterman_ponty,
)
from .corpus import (
    CorpusError,
    CorpusRecord,
    CorpusReport,
    analyze,
    bracket_type_stats,
    load_corpus,
    scatter_csv,
    scatter_data,
)

__all__ = [name for name in dir() if not name.startswith("_")]
