"""Shared experiment-report plumbing.

Keeps experiment modules declarative: they build
:class:`repro.util.tables.Table` objects and wrap them in a
:class:`Report` that renders with a title, the paper's claim, and
notes; ``repro run`` prints reports and optionally saves CSVs.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

from repro.util.tables import Table


@dataclass
class Report:
    """A titled bundle of tables plus free-form notes.

    ``stats`` optionally carries the measurement backend's execution
    accounting (a :class:`repro.analysis.backend.BackendStats`); the
    CLI prints its one-line ``computed=X cached=Y`` summary after the
    report.
    """

    title: str
    claim: str = ""
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    stats: object | None = None

    def add_table(self, table: Table) -> Table:
        self.tables.append(table)
        return table

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        parts = [f"== {self.title} =="]
        if self.claim:
            parts.append(f"paper: {self.claim}")
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()

    def save_csv(self, directory: str) -> list[str]:
        """Write each table as a CSV file; returns the paths written.

        Captions that slugify identically (or emptily) are
        disambiguated with the table index, so no table ever silently
        overwrites another within one report.
        """
        os.makedirs(directory, exist_ok=True)
        base = [_slugify(table.caption) or f"table{i}"
                for i, table in enumerate(self.tables)]
        natural = set(base)
        used: set[str] = set()
        slugs = []
        for index, slug in enumerate(base):
            if base.count(slug) > 1 or slug in used:
                slug = f"{slug}-t{index}"
                # A disambiguated name may itself match another
                # table's natural slug; keep extending until unique
                # (terminates: every pass strictly lengthens it).
                while slug in natural or slug in used:
                    slug = f"{slug}-t{index}"
            used.add(slug)
            slugs.append(slug)
        written = []
        for slug, table in zip(slugs, self.tables):
            path = os.path.join(directory, f"{_slugify(self.title)}_{slug}.csv")
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(table.columns)
                writer.writerows(table.rows)
            written.append(path)
        return written


def _slugify(text: str) -> str:
    keep = []
    for ch in text.lower():
        if ch.isalnum():
            keep.append(ch)
        elif keep and keep[-1] != "-":
            keep.append("-")
    return "".join(keep).strip("-")[:60]
