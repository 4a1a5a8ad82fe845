"""loopexp: exact-rational engine for loop-algebra expansions of canonical forms."""

from .algebra import (BUILTIN_NAMES, ContradictoryEntries, IndexOutOfRange,
                      StructureConstants, ValidationReport, algebra_from_dict,
                      builtin_algebra, load_algebra, validate)
from .contraction import (ContractedAlgebra, ContractionDiff, WrongSplitKind,
                          compare_with_expansion, contracted_jacobi_residuals,
                          iw_contract)
from .expansion import (ClosureCell, ClosureQuotient, ClosureReport, ClosureViolation,
                        ExpandedAlgebra, ExpandedJacobiReport, ExpandedLabel,
                        InadmissibleLabel, NAMED_CASES, NotClosed, UnknownCase,
                        build_named, check_closure, check_jacobi_expanded,
                        expanded_constant, generator_set)
from .loop import (LoopLabel, ModeWindow, enumerate_generators, jacobi_residuals,
                   loop_bracket, loop_structure_constant)
from .mcforms import (DegreeTooLow, FormPolynomial, GradedSeriesResult, InvalidDegree,
                      InvalidOrder, McResidualReport, McResidualTerm, SeriesResult,
                      canonical_form_series, check_grading, graded_series_json,
                      monomial_json, rescale_and_collect, verify_mc_equations)
from .splitting import (InvalidParams, SplitCheckReport, SplitKind, Splitting,
                        check_subalgebra, check_symmetric_coset, make_splitting)

__version__ = "0.1.0"
