"""Refusals of the library's constructors, checkers and dict readers,
each pinned by its exception type and its whole message."""

import numpy as np
import pytest

from sepsets import (
    AxiomReport,
    Dataset,
    ImportanceVector,
    OutcomeTable,
    Partition,
    PartitionError,
    SampleSpace,
    ScoreMethod,
    TableError,
    ValueTable,
    Witness,
    check_data_model_equivalence,
    check_null_feature,
    check_triviality,
    check_value_consistency,
    eliminate,
    grid_to_dataset,
    new_sample_space,
    partition_from_dict,
    shapley_weights,
    space_from_dict,
    validate_partition,
)

ONE = ValueTable(1, [0.0, 1.0])
TWO = ValueTable(2, [0.0, 1.0, 1.0, 2.0])
GRID = OutcomeTable(((0.0, 1.0), (0.0, 1.0)), [0.0, 0.0, 1.0, 1.0])
SHAPLEY = ScoreMethod.SHAPLEY

REFUSALS = {
    "axiom-report-vacuous-failure": (
        lambda: AxiomReport("triviality", False, 1.0, 0.5, True, Witness(feature=0)),
        TableError,
        "a vacuous check cannot fail (triviality)",
    ),
    "triviality-scores-of-another-width": (
        lambda: check_triviality(TWO, ImportanceVector(SHAPLEY, [1.0, 1.0, 1.0])),
        TableError,
        "scores over 3 features do not match table over 2",
    ),
    "null-feature-scores-of-another-width": (
        lambda: check_null_feature(GRID, ImportanceVector(SHAPLEY, [1.0]), 0),
        TableError,
        "scores over 1 features do not match grid over 2",
    ),
    "data-model-equivalence-tables-of-two-widths": (
        lambda: check_data_model_equivalence(ONE, TWO, SHAPLEY, True),
        TableError,
        "data table over 1 features does not match model table over 2",
    ),
    "dataset-of-a-1-d-feature-matrix": (
        lambda: Dataset(np.zeros(3), np.ones(3), np.ones(3)),
        TableError,
        "feature matrix must be 2-d and nonempty, got shape (3,)",
    ),
    "grid-with-an-empty-domain": (
        lambda: OutcomeTable(((0.0, 1.0), ()), [0.0, 1.0]),
        TableError,
        "domain of feature 1 is empty",
    ),
    "grid-with-too-many-outputs": (
        lambda: OutcomeTable(((0.0, 1.0),), [0.0, 1.0, 2.0]),
        TableError,
        "need 2 outputs for this grid, got shape (3,)",
    ),
    "grid-with-an-infinite-output": (
        lambda: OutcomeTable(((0.0, 1.0),), [0.0, np.inf]),
        TableError,
        "grid outputs must be finite",
    ),
    "grid-weights-of-the-wrong-shape": (
        lambda: grid_to_dataset(GRID, [0.5, 0.5]),
        TableError,
        "need 4 grid weights, got shape (2,)",
    ),
    "shapley-weights-of-no-features": (
        lambda: shapley_weights(0),
        TableError,
        "need at least one feature, got n=0",
    ),
    "importance-vector-of-no-scores": (
        lambda: ImportanceVector(SHAPLEY, []),
        TableError,
        "scores must be a 1-d vector, got shape (0,)",
    ),
    "importance-vector-of-a-matrix": (
        lambda: ImportanceVector(SHAPLEY, np.zeros((2, 2))),
        TableError,
        "scores must be a 1-d vector, got shape (2, 2)",
    ),
    "mci-vector-short-of-witnesses": (
        lambda: ImportanceVector(ScoreMethod.MCI, [1.0, 2.0], witnesses=(0,)),
        TableError,
        "need one witness context per feature",
    ),
    "space-dict-without-instances": (
        lambda: space_from_dict({"n": 2}),
        TableError,
        'a sample space needs keys "n" and "instances"',
    ),
    "space-dict-instance-without-values": (
        lambda: space_from_dict({"n": 1, "instances": [{"weight": 1, "values": [0, 1]}, {}]}),
        TableError,
        'instance 1 needs keys "weight" and "values"',
    ),
    "partition-dict-without-blocks": (
        lambda: partition_from_dict({"n": 2}),
        PartitionError,
        'a partition needs keys "n" and "blocks"',
    ),
    "partition-dict-block-not-a-list": (
        lambda: partition_from_dict({"n": 2, "blocks": [[0], 1]}),
        PartitionError,
        '"blocks" must be a list of index lists',
    ),
    "partition-dict-index-past-the-features": (
        lambda: partition_from_dict({"n": 2, "blocks": [[0], [1, 2]]}),
        PartitionError,
        "block 1: feature index 2 out of range for n=2",
    ),
    "partition-dict-negative-index": (
        lambda: partition_from_dict({"n": 2, "blocks": [[-1], [0, 1]]}),
        PartitionError,
        "block 0: feature index -1 out of range for n=2",
    ),
    "sample-space-of-no-instances": (
        lambda: new_sample_space([]),
        TableError,
        "a sample space needs at least one instance",
    ),
    "sample-space-of-a-list": (
        lambda: new_sample_space([(1.0, ONE), (1.0, [0.0, 1.0])]),
        TableError,
        "instance 1 is not a value table",
    ),
    "value-consistency-claim-of-another-width": (
        lambda: check_value_consistency(SampleSpace(1, np.ones(1), np.zeros((1, 2))), TWO),
        TableError,
        "claimed table over 2 features does not match space over 1",
    ),
    "partition-of-no-features": (
        lambda: Partition(0, ()),
        PartitionError,
        "partition needs at least one feature, got n=0",
    ),
    "partition-block-past-the-features": (
        lambda: Partition(2, (0b011, 0b100)),
        PartitionError,
        "block mask 4 exceeds the feature range for n=2",
    ),
    "partition-of-another-width": (
        lambda: validate_partition(ONE, Partition(2, (0b01, 0b10))),
        PartitionError,
        "partition over 2 features does not match table over 1",
    ),
    "eliminate-a-negative-mask": (
        lambda: eliminate(TWO, -1),
        TableError,
        "drop mask -1 out of range for n=2",
    ),
    "eliminate-a-mask-past-the-features": (
        lambda: eliminate(TWO, 0b100),
        TableError,
        "drop mask 4 out of range for n=2",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_names_its_cause(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(kind) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (kind, message)
