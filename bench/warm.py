"""Bring corrbox to a warm state: imports plus every lru-cached table.

Run as a script it is one cold start, which is what `setup_s` times.
"""


def warm() -> None:
    from corrbox.boxes import enumerate_deterministic, relabeling_group
    from corrbox.cli import main  # noqa: F401  (the entry point every command uses)
    from corrbox.cost import communication_cost
    from corrbox.generators import canonical

    enumerate_deterministic()
    relabeling_group()
    # The first solve on each basis prepares and caches its LP system.
    for basis in ("full256", "chsh16"):
        communication_cost(canonical("pr"), basis)


if __name__ == "__main__":
    warm()
