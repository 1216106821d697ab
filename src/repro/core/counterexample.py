"""Counterexample search: the proofs' instance gadgets as refuters.

The paper's arguments always distinguish schemas/mappings with one of a
small family of instances: attribute-specific instances with fresh values
(Lemmas 3-5, Theorem 6), the two-key-value instance and its g-swap
(Lemma 7), and non-empty single-tuple instances.  This module packages
those gadgets as a fast *pointwise* refuter for candidate dominance pairs:
evaluate β(α(d)) on each gadget and compare with d.  It is sound (any
returned instance genuinely breaks the round trip) but incomplete; the
exact decision is :func:`repro.mappings.identity.composes_to_identity`.
The bounded search (experiment E1) uses the gadgets to discard almost all
candidates before paying for the exact chase-based check.

Validity (§2) is not refuted here: the search decides it exactly
(:func:`repro.mappings.validity.is_valid`) before any pair is formed, so
a pointwise key-violation probe could never fire on a scanned pair.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.mappings.query_mapping import QueryMapping
from repro.relational.generators import (
    attribute_specific_instance,
    g_swap,
    random_instance,
    two_key_values,
)
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema


def gadget_instances(
    schema: DatabaseSchema,
    avoid=frozenset(),
    random_trials: int = 4,
    seed: int = 0,
) -> Tuple[DatabaseInstance, ...]:
    """The proof gadgets for ``schema``, cheapest first.

    1. the empty instance;
    2. one-tuple and two-tuple attribute-specific instances (fresh values);
    3. per key attribute, the Lemma 7 two-key-value instance and its g-swap;
    4. a few random key-satisfying instances.

    Every gadget satisfies the keys of ``schema``, and none uses a value
    in ``avoid``.
    """
    gadgets: List[DatabaseInstance] = [
        DatabaseInstance(schema),
        attribute_specific_instance(schema, rows_per_relation=1, avoid=avoid),
        attribute_specific_instance(schema, rows_per_relation=2, avoid=avoid),
    ]
    for key_attr in schema.key_qualified_attributes():
        gadget, k1, k2 = two_key_values(schema, key_attr, avoid=avoid)
        gadgets += [gadget, g_swap(gadget, k1, k2)]
    for trial in range(random_trials):
        candidate = random_instance(schema, rows_per_relation=3, seed=seed + trial)
        if candidate.satisfies_keys():
            gadgets.append(candidate)
    return tuple(gadgets)


class GadgetImages:
    """α(d) for each gadget d of one family, each built when first needed.

    A scan tests every β against the same α, and most β fail on an early
    gadget: building the images lazily keeps that early exit, and keeping
    them means α is applied to each gadget at most once per scan.
    """

    __slots__ = ("alpha", "gadgets", "_images")

    def __init__(
        self, alpha: QueryMapping, gadgets: Sequence[DatabaseInstance]
    ) -> None:
        self.alpha = alpha
        self.gadgets = gadgets
        self._images: List[DatabaseInstance] = []

    def round_trip_counterexample(
        self, beta: QueryMapping
    ) -> Optional[DatabaseInstance]:
        """The first gadget d with β(α(d)) ≠ d, or None."""
        images = self._images
        for index, gadget in enumerate(self.gadgets):
            if index == len(images):
                images.append(self.alpha.apply(gadget))
            if beta.apply(images[index]) != gadget:
                return gadget
        return None


def find_round_trip_counterexample(
    alpha: QueryMapping,
    beta: QueryMapping,
    random_trials: int = 4,
    seed: int = 0,
) -> Optional[DatabaseInstance]:
    """A key-satisfying d with β(α(d)) ≠ d, from the gadget family, if any."""
    gadgets = gadget_instances(
        alpha.source,
        avoid=alpha.constants() | beta.constants(),
        random_trials=random_trials,
        seed=seed,
    )
    return GadgetImages(alpha, gadgets).round_trip_counterexample(beta)


def quick_reject(images: GadgetImages, beta: QueryMapping) -> bool:
    """True when the gadgets refute (α, β) as a dominance pair.

    ``images`` holds α and the gadget family to test with.  The scan
    builds one family per source schema with nothing to avoid, which
    assumes α and β are constant-free (as every enumerated mapping is).
    It also assumes both mappings are exactly valid, and so does not look
    for key violations: a gadget satisfies the source keys, and a valid
    mapping sends every such instance to one satisfying the target keys.

    A ``False`` result means "survived the gadgets", not "verified".
    """
    return images.round_trip_counterexample(beta) is not None
