"""Access to the bundled reference fixtures.

The fixture corpus pins this implementation to its published reference
values: the four generator matrices verbatim (decoding tables depend on
their column order), two complete reduced-basis listings, spot elements of
the two long listings, the decoding tables, and the expected parameters.
Files are read-only inputs; their checksums are recorded and verified.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources

import numpy as np

from .formats import _read_basis, parse_element_lines, parse_matrix
from .groebner import Binomial, ReducedGroebnerBasis, _validated_masks
from .linalg import LinearCode
from .words import monomial_from_string

TAGS = ("1_4", "1_5", "2_3", "2_4")


class FixtureMissingError(FileNotFoundError):
    """A bundled fixture file is absent."""


def _read(name: str) -> str:
    ref = resources.files("schubert_gb") / "fixtures" / name
    try:
        return ref.read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise FixtureMissingError(f"fixture {name!r} is missing") from exc


def load_generator(tag: str) -> np.ndarray:
    matrix, p = parse_matrix(_read(f"c_{tag}.gen.txt"))
    assert p == 2
    return matrix


def load_code(tag: str) -> LinearCode:
    return LinearCode.from_generator(load_generator(tag), p=2)


def load_basis(tag: str) -> ReducedGroebnerBasis:
    """Complete transcribed basis; available for tags '1_4' and '2_3'.

    A listing is the reference that the coset engine is checked against, so
    it is read without the engine: its grammar, field relations and
    per-element checks, but not the rebuild of
    :func:`~schubert_gb.formats.parse_basis`.  An engine fault then shows as
    a failed listing check in ``verify-paper``, not as a refused file.
    """
    return _validated_masks(*_read_basis(_read(f"c_{tag}.gb.txt")))


def load_spot_elements(tag: str) -> list[Binomial]:
    """Transcribed sample elements of the long listings ('1_5' and '2_4')."""
    _, elements = parse_element_lines(_read(f"c_{tag}.gb_spots.txt"))
    return elements


def load_decode_table(tag: str) -> list[tuple[int, int, int]]:
    """Rows (received, canonical form, decoded codeword) as monomial masks."""
    rows = []
    for line in _read(f"c_{tag}.decode.tsv").splitlines():
        if not line.strip():
            continue
        received, canonical, decoded = (
            monomial_from_string(cell) for cell in line.split("\t")
        )
        rows.append((received, canonical, decoded))
    return rows


def expected_params() -> dict[str, dict]:
    return json.loads(_read("params.json"))


def verify_checksums() -> list[str]:
    """Names of fixture files whose content no longer matches its checksum."""
    recorded = json.loads(_read("checksums.json"))
    stale = []
    for name, digest in recorded.items():
        actual = hashlib.sha256(_read(name).encode()).hexdigest()
        if actual != digest:
            stale.append(name)
    return stale
