"""Exact computations for finite type quiver Hecke algebras.

Root systems and convex orderings, quantum shuffle characters of dual PBW
and dual canonical bases, the straightening kernel with standard-module
actions and contravariant Gram matrices, and Koszul-style projective
resolutions of root modules.
"""

from .canonical import CanonicalTable, CorrectionError, correction
from .cartan import CartanType, RootSystem, check_cases_identity, p_max
from .convex import (ConvexOrder, good_lyndon_words, is_convex, lyndon_order,
                     minimal_pairs, mp_choice, order_from_reduced_word,
                     random_reduced_word, reduced_words_of_w0)
from .klr import KLR
from .kostant import kostant_partitions, kp_less, kp_scalars
from .laurent import ExactDivisionError, LaurentPoly
from .modules import (HomogRep, NotHomogeneousError, ProperStandard,
                      UnsupportedPartitionError, rank_over)
from .pbw import PBWCharacters, dim_H, dim_standard
from .resolutions import (ChainComplex, NotMultiplicityFreeError,
                          euler_character, resolution, verify_complex)
from .shuffle import bar, restrict_character

__version__ = "0.1.0"
