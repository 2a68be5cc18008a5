"""Analysis toolkit for power-avoiding low-complexity words.

Exact periods and exponents, morphism fixed points, properness checks,
avoidance backtracking with a built-in reference table, and structural
classification/decomposition of binary words, plus a CLI (``rotewords``).
"""

from .words import (AlphabetError, LengthLimitError, ParseError, Word, word,
                    parse_word, complement, reverse, parikh, dominates,
                    factors_of_length, factor_complexity,
                    complexity_profile)
from .repetitions import (Exponent, RepetitionWitness, smallest_period,
                          exponent, is_power_free, suffix_is_52plus_power,
                          max_factor_exponent)
from .morphisms import (Morphism, NAMED_MORPHISMS, named, equal_on_letters,
                        parse_morphism)
from .properness import (FORBIDDEN_FACTORS, PropernessReport, Violation,
                         XyxyxOccurrence, find_dominated_xyxyx,
                         forgiving_scan, is_proper, is_antiproper)
from .search import (REFERENCE_ROWS, SearchOutcome, TableRow,
                     longest_avoiding, run_reference_table)
from .structure import (CaseTag, ClassificationError, DecodeError,
                        DecodeResult, DecompositionCertificate,
                        DecompositionError, FactorClass, FACTOR_SETS,
                        LevelRecord, classify_by_length4, decode,
                        decompose, f_decode, g_decode, generate_case_word,
                        h_decode)

__all__ = [name for name in dir() if not name.startswith("_")]
