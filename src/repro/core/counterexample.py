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
candidates before paying for the exact chase-based check.  A scan applies
each α to each gadget at most once (:class:`GadgetImages`) and each β to
each distinct image at most once (:class:`VerdictTable`): the verdict of
β on an image is shared by every α that produces it.

Validity (§2) is not refuted here: the search decides it exactly
(:func:`repro.mappings.validity.is_valid`) before any pair is formed, so
a pointwise key-violation probe could never fire on a scanned pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
    them means α is applied to each gadget at most once per scan.  Each
    image carries a row of verdicts (does β send it back to its gadget?):
    a private row on its own, or the image's row of a scan's
    :class:`VerdictTable`, which every α with the same image shares.
    """

    __slots__ = ("alpha", "gadgets", "_table", "_images", "_rows")

    def __init__(
        self,
        alpha: QueryMapping,
        gadgets: Sequence[DatabaseInstance],
        table: Optional["VerdictTable"] = None,
    ) -> None:
        self.alpha = alpha
        self.gadgets = gadgets
        self._table = table
        self._images: List[DatabaseInstance] = []
        self._rows: List[Dict[object, bool]] = []

    def round_trip_counterexample(
        self, beta: QueryMapping
    ) -> Optional[DatabaseInstance]:
        """The first gadget d with β(α(d)) ≠ d, or None."""
        table = self._table
        key = beta if table is None else table.index_of(beta)
        images, rows = self._images, self._rows
        for index, gadget in enumerate(self.gadgets):
            if index == len(images):
                image = self.alpha.apply(gadget)
                images.append(image)
                rows.append({} if table is None else table.row(index, image))
            row = rows[index]
            passes = row.get(key)
            if passes is None:
                passes = row[key] = beta.apply(images[index]) == gadget
            if not passes:
                return gadget
        return None


class VerdictTable:
    """Round-trip verdicts of one scan's β list on α images, per gadget.

    Distinct α often send a gadget to the same image, and whether β sends
    that image back to the gadget depends on nothing else.  For gadget
    *i* the table maps an image to {β's index in ``betas``: passes}.  It
    is filled pair by pair, so a scan evaluates β on an image at most
    once, and only when some pair reaches it.  β is looked up by
    identity, since hashing a mapping rebuilds its key; the table holds
    ``betas``, so those identities stay unique while it lives.
    """

    __slots__ = ("betas", "_index", "_rows")

    def __init__(
        self, gadgets: Sequence[DatabaseInstance], betas: Sequence[QueryMapping]
    ) -> None:
        self.betas = betas
        self._index = {id(beta): k for k, beta in enumerate(betas)}
        self._rows: List[Dict[DatabaseInstance, Dict[object, bool]]] = [
            {} for _ in gadgets
        ]

    def index_of(self, beta: QueryMapping) -> int:
        """β's index in ``betas`` (β must be one of them)."""
        return self._index[id(beta)]

    def row(self, index: int, image: DatabaseInstance) -> Dict[object, bool]:
        """Verdicts of the β tested so far on ``image`` (gadget ``index``)."""
        return self._rows[index].setdefault(image, {})


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

    When ``images`` shares a scan's :class:`VerdictTable`, the call
    answers from the verdicts of earlier pairs whose α had the same
    image, and evaluates β only on images no earlier pair tested it on.

    A ``False`` result means "survived the gadgets", not "verified".
    """
    return images.round_trip_counterexample(beta) is not None
