"""One benchmark input page, and its JSON file form.

Kept free of program imports, so the process under test can read its
inputs without loading the benchmark's generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence


@dataclass(frozen=True)
class Page:
    """One benchmark input: raw HTML plus what the answer must be."""

    url: str
    html: str
    family: str
    truth: dict
    size: str = "1x"

    @property
    def kb(self) -> float:
        """Input size in KB of UTF-8 HTML."""
        return len(self.html.encode("utf-8")) / 1024

    def request_line(self) -> str:
        """The ``{"url", "html"}`` request the serve front-ends take."""
        return json.dumps({"url": self.url, "html": self.html})

    def to_dict(self) -> dict:
        """JSON form, for the corpus cache."""
        return {
            "url": self.url, "html": self.html, "family": self.family,
            "truth": self.truth, "size": self.size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Page":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


def save_pages(path: Path, pages: Sequence) -> None:
    """Write pages (or rounds: lists of pages) as one JSON document."""
    def dump(item):
        return item.to_dict() if isinstance(item, Page) else [
            page.to_dict() for page in item
        ]

    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps([dump(item) for item in pages]),
                   encoding="utf-8")
    tmp.replace(path)


def load_pages(path: Path) -> list:
    """Read what :func:`save_pages` wrote (pages or rounds of pages)."""
    def load(item):
        return Page.from_dict(item) if isinstance(item, dict) else [
            Page.from_dict(page) for page in item
        ]

    return [load(item)
            for item in json.loads(path.read_text(encoding="utf-8"))]


def batch_file(corpus_dir: Path, round_id: int, index: int) -> Path:
    """Where batch_mix keeps page ``index`` of batch ``round_id``."""
    return corpus_dir / f"round-{round_id:03d}" / f"p-{index:04d}.html"
