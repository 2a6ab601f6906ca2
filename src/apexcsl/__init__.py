"""Factorized surrogate scoring and exhaustive constrained top-k retrieval
over combinatorial synthesis libraries."""

from .csl import (
    CslLibrary,
    ReactionSpec,
    RgroupSpec,
    SynthonRecord,
    SyntheticConfig,
    downsample,
    generate_synthetic,
    product_count,
)
from .engine import Constraint, ContributionTable, QuerySpec, TopKResult
from .props import FeatureConfig, GroundTruthOracle, LabeledDataset
from .surrogate import SurrogateModel
from .factorizer import Factorizer, HierarchyCache

__version__ = "0.1.0"
