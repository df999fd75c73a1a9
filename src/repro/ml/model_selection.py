"""Grouped and repeated cross-validation.

The paper evaluates with 10-fold cross-validation where "all elements
from a single file appear in either the training or the test set", and
repeats the whole procedure ten times to reduce fold-split bias.  The
splitters here operate on *group* labels (file names), not on element
indices, so that guarantee holds by construction.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.util.rng import as_generator


class GroupKFold:
    """K-fold splitter over distinct groups.

    Groups are shuffled with the provided seed and dealt round-robin
    into ``n_splits`` folds, so folds are balanced in group count.
    Yields ``(train_groups, test_groups)`` sets.
    """

    def __init__(self, n_splits: int = 10,
                 random_state: int | np.random.Generator | None = None):
        if n_splits < 2:
            raise InvalidParameterError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.random_state = random_state

    def split(
        self, groups: Sequence[Hashable]
    ) -> Iterator[tuple[set[Hashable], set[Hashable]]]:
        """Yield ``(train, test)`` group-name sets for each fold."""
        unique = sorted(set(groups), key=str)
        if len(unique) < self.n_splits:
            raise InvalidParameterError(
                f"{len(unique)} groups cannot fill {self.n_splits} folds"
            )
        rng = as_generator(self.random_state)
        order = list(unique)
        rng.shuffle(order)
        folds: list[list[Hashable]] = [[] for _ in range(self.n_splits)]
        for i, group in enumerate(order):
            folds[i % self.n_splits].append(group)
        for i in range(self.n_splits):
            test = set(folds[i])
            train = set(order) - test
            yield train, test


class RepeatedGroupKFold:
    """``n_repeats`` independent :class:`GroupKFold` passes.

    Each repetition reshuffles the groups with a fresh child seed, so
    the union of folds differs between repetitions while remaining
    reproducible from the top-level seed.
    """

    def __init__(
        self,
        n_splits: int = 10,
        n_repeats: int = 10,
        random_state: int | np.random.Generator | None = None,
    ):
        if n_repeats < 1:
            raise InvalidParameterError("n_repeats must be >= 1")
        self.n_splits = n_splits
        self.n_repeats = n_repeats
        self.random_state = random_state

    def split(
        self, groups: Sequence[Hashable]
    ) -> Iterator[tuple[int, set[Hashable], set[Hashable]]]:
        """Yield ``(repetition, train, test)`` triples."""
        rng = as_generator(self.random_state)
        for repetition in range(self.n_repeats):
            seed = int(rng.integers(0, 2**63 - 1))
            fold = GroupKFold(n_splits=self.n_splits, random_state=seed)
            for train, test in fold.split(groups):
                yield repetition, train, test


def train_test_group_split(
    groups: Sequence[Hashable],
    test_fraction: float = 0.2,
    random_state: int | np.random.Generator | None = None,
) -> tuple[set[Hashable], set[Hashable]]:
    """Single random split of groups into train and test sets."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidParameterError("test_fraction must be in (0, 1)")
    unique = sorted(set(groups), key=str)
    if len(unique) < 2:
        raise InvalidParameterError("need at least two groups to split")
    rng = as_generator(random_state)
    order = list(unique)
    rng.shuffle(order)
    n_test = max(1, int(round(len(order) * test_fraction)))
    n_test = min(n_test, len(order) - 1)
    return set(order[n_test:]), set(order[:n_test])
