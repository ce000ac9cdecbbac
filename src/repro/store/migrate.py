"""Lossless store-to-store migration.

Copies every document the source store enumerates — run checkpoints,
finished-cell results, named state documents — into the destination
through the public :class:`~repro.store.base.StudyStore` interface:
merging campaign databases, or moving a study to a new file.
Losslessness is pinned by the contract tests: a migrated seeded BO
run's history must match the source byte-identically under
:func:`repro.core.checkpoint.canonical_history`.  Leases are
coordination state and are not copied.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.store.base import StudyStore


@dataclass
class MigrationReport:
    """What one migration moved (the `store migrate` summary)."""

    studies: int = 0
    cells: int = 0
    checkpoints: int = 0
    observations: int = 0
    results: int = 0
    states: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "studies": self.studies,
            "cells": self.cells,
            "checkpoints": self.checkpoints,
            "observations": self.observations,
            "results": self.results,
            "states": self.states,
        }


def migrate_store(src: StudyStore, dst: StudyStore) -> MigrationReport:
    """Copy every document from ``src`` into ``dst``; return counts."""
    report = MigrationReport()
    for study in src.studies():
        report.studies += 1
        for cell in src.cells(study):
            report.cells += 1
            for run in src.runs(study, cell):
                checkpoint = src.load_checkpoint(study, cell, run)
                if checkpoint is None:
                    continue
                dst.save_checkpoint(study, cell, run, checkpoint)
                report.checkpoints += 1
                report.observations += checkpoint.completed
            results = src.load_results(study, cell)
            if results is not None:
                dst.save_results(study, cell, results)
                report.results += 1
            for name in src.state_names(study, cell):
                state = src.load_state(study, cell, name)
                if state is not None:
                    dst.save_state(study, cell, name, state)
                    report.states += 1
    return report
