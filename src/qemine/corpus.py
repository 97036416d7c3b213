"""Dataset record types and loaders/serializers for the external file formats.

All formats are UTF-8 with LF line endings and tab-separated columns;
embedded tabs in sentences are unsupported.  Loading is pure and
order-preserving, and every loader has a matching ``save_*`` so that a
loaded dataset round-trips byte-identically through save -> load -> save.

Formats:
    QE TSV        source<TAB>target<TAB>score          score in [0,1]
    STS TSV       sentence1<TAB>sentence2<TAB>score    raw score in [0,5]
    NLI TSV       premise<TAB>hypothesis<TAB>label     label name, case-insensitive
    parallel TSV  source<TAB>target
    TATOEBA       two plain-text files, one sentence per line, line i <-> line i
    BUCC          id<TAB>sentence per side, plus gold file idA<TAB>idB
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AlignmentError, ConsistencyError, ParseError, RangeError

__all__ = [
    "QERecord",
    "STSRecord",
    "NLIRecord",
    "ParallelSet",
    "TatoebaSet",
    "BuccCorpus",
    "NLI_LABELS",
    "load_qe",
    "save_qe",
    "load_sts",
    "save_sts",
    "load_nli",
    "save_nli",
    "load_parallel",
    "save_parallel",
    "load_tatoeba",
    "save_tatoeba",
    "load_bucc",
    "load_gold",
    "save_bucc",
]

NLI_LABELS = ("entailment", "neutral", "contradiction")


@dataclass(frozen=True)
class QERecord:
    """A source/translation pair with a quality score in [0,1]."""

    source: str
    target: str
    score: float

    def __post_init__(self):
        if not self.source.strip() or not self.target.strip():
            raise ValueError("source and target must be non-empty")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0,1], got {self.score}")


@dataclass(frozen=True)
class STSRecord:
    """An English sentence pair with similarity in [0,1] (raw label / 5).

    The raw 0-5 label is kept alongside so serialization reproduces the
    file value exactly.
    """

    sentence1: str
    sentence2: str
    similarity: float
    raw_score: float = None

    def __post_init__(self):
        if self.raw_score is None:
            object.__setattr__(self, "raw_score", self.similarity * 5.0)
        if not 0.0 <= self.similarity <= 1.0:
            raise ValueError(f"similarity must lie in [0,1], got {self.similarity}")


@dataclass(frozen=True)
class NLIRecord:
    """A premise/hypothesis pair with a 3-way inference label."""

    premise: str
    hypothesis: str
    label: int

    def __post_init__(self):
        if self.label not in (0, 1, 2):
            raise ValueError(f"label must be 0, 1 or 2, got {self.label}")


@dataclass(frozen=True)
class ParallelSet:
    """An ordered set of parallel sentence pairs (source, English target)."""

    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise ValueError("a parallel set needs at least one pair")
        for src, tgt in self.pairs:
            if not src.strip() or not tgt.strip():
                raise ValueError("parallel pairs must be non-empty on both sides")
        object.__setattr__(self, "pairs", tuple((s, t) for s, t in self.pairs))

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class TatoebaSet:
    """Equal-length reference/hypothesis lists; line i is the translation of line i."""

    references: tuple
    hypotheses: tuple

    def __post_init__(self):
        if len(self.references) != len(self.hypotheses):
            raise AlignmentError(
                f"reference/hypothesis counts differ: "
                f"{len(self.references)} vs {len(self.hypotheses)}"
            )
        if len(self.references) < 1:
            raise AlignmentError("a similarity-search set needs at least one pair")
        object.__setattr__(self, "references", tuple(self.references))
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))

    @property
    def size(self) -> int:
        return len(self.references)


@dataclass(frozen=True)
class BuccCorpus:
    """Two id-keyed monolingual sides plus gold parallel links between them."""

    side_a: dict
    side_b: dict
    gold: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "gold", frozenset(self.gold))
        for id_a, id_b in self.gold:
            if id_a not in self.side_a:
                raise ConsistencyError(f"gold id {id_a!r} missing from side A")
            if id_b not in self.side_b:
                raise ConsistencyError(f"gold id {id_b!r} missing from side B")


def _data_lines(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    return lines


def _split_columns(line, n_cols, path, lineno):
    parts = line.split("\t")
    if len(parts) != n_cols:
        raise ParseError(
            f"expected {n_cols} tab-separated columns, found {len(parts)}",
            path=path,
            line=lineno,
        )
    return parts


def _parse_float(token, path, lineno):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"unparseable score {token!r}", path=path, line=lineno) from None


def load_qe(path, normalize: bool = False) -> list[QERecord]:
    """Load QE records from ``source<TAB>target<TAB>score`` lines.

    With ``normalize`` the scores are min-max rescaled over the file to
    [0,1] (a constant file maps to all zeros); without it any score
    outside [0,1] is rejected.
    """
    rows = []
    for lineno, line in enumerate(_data_lines(path), start=1):
        source, target, token = _split_columns(line, 3, path, lineno)
        score = _parse_float(token, path, lineno)
        if not source.strip() or not target.strip():
            raise ParseError("empty source or target", path=path, line=lineno)
        rows.append((source, target, score, lineno))
    if normalize and rows:
        scores = [score for _, _, score, _ in rows]
        low, high = min(scores), max(scores)
        span = high - low
        rows = [
            (s, t, (score - low) / span if span > 0 else 0.0, n)
            for s, t, score, n in rows
        ]
    records = []
    for source, target, score, lineno in rows:
        if not 0.0 <= score <= 1.0:
            raise RangeError(
                f"score {score} outside [0,1] (pass normalize to rescale)",
                path=path,
                line=lineno,
            )
        records.append(QERecord(source, target, score))
    return records


def _write_rows(path, rows) -> None:
    """Write each row's columns tab-separated, one LF-terminated line per row."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines("\t".join(row) + "\n" for row in rows)


def save_qe(records, path) -> None:
    _write_rows(path, ((r.source, r.target, repr(r.score)) for r in records))


def load_sts(path) -> list[STSRecord]:
    """Load STS records; the raw 0-5 score is divided by 5."""
    records = []
    for lineno, line in enumerate(_data_lines(path), start=1):
        s1, s2, token = _split_columns(line, 3, path, lineno)
        raw = _parse_float(token, path, lineno)
        if not 0.0 <= raw <= 5.0:
            raise RangeError(f"score {raw} outside [0,5]", path=path, line=lineno)
        records.append(STSRecord(s1, s2, raw / 5.0, raw))
    return records


def save_sts(records, path) -> None:
    _write_rows(path, ((r.sentence1, r.sentence2, repr(r.raw_score)) for r in records))


def load_nli(path) -> list[NLIRecord]:
    """Load NLI records; labels are matched case-insensitively."""
    records = []
    for lineno, line in enumerate(_data_lines(path), start=1):
        premise, hypothesis, label = _split_columns(line, 3, path, lineno)
        try:
            index = NLI_LABELS.index(label.strip().lower())
        except ValueError:
            raise ParseError(
                f"unknown label {label!r}, expected one of {NLI_LABELS}",
                path=path,
                line=lineno,
            ) from None
        records.append(NLIRecord(premise, hypothesis, index))
    return records


def save_nli(records, path) -> None:
    _write_rows(path, ((r.premise, r.hypothesis, NLI_LABELS[r.label]) for r in records))


def load_parallel(path) -> ParallelSet:
    """Load a 2-column ``source<TAB>target`` parallel file."""
    pairs = []
    for lineno, line in enumerate(_data_lines(path), start=1):
        source, target = _split_columns(line, 2, path, lineno)
        if not source.strip() or not target.strip():
            raise ParseError("empty side in parallel pair", path=path, line=lineno)
        pairs.append((source, target))
    if not pairs:
        raise ParseError("parallel file contains no pairs", path=path)
    return ParallelSet(tuple(pairs))


def save_parallel(parallel: ParallelSet, path) -> None:
    _write_rows(path, parallel.pairs)


def load_tatoeba(path_a, path_b) -> TatoebaSet:
    """Load two one-sentence-per-line files aligned by line number."""
    refs = _data_lines(path_a)
    hyps = _data_lines(path_b)
    if len(refs) != len(hyps):
        raise AlignmentError(
            f"line counts differ: {path_a} has {len(refs)}, {path_b} has {len(hyps)}"
        )
    if not refs:
        raise AlignmentError(f"{path_a} and {path_b} are empty")
    return TatoebaSet(tuple(refs), tuple(hyps))


def save_tatoeba(data: TatoebaSet, path_a, path_b) -> None:
    _write_rows(path_a, zip(data.references))
    _write_rows(path_b, zip(data.hypotheses))


def _load_bucc_side(path) -> dict:
    side = {}
    for lineno, line in enumerate(_data_lines(path), start=1):
        sent_id, sentence = _split_columns(line, 2, path, lineno)
        if sent_id in side:
            raise ParseError(f"duplicate id {sent_id!r}", path=path, line=lineno)
        side[sent_id] = sentence
    return side


def load_gold(path) -> frozenset:
    """Load a gold link file of ``idA<TAB>idB`` lines."""
    lines = enumerate(_data_lines(path), start=1)
    return frozenset(tuple(_split_columns(line, 2, path, lineno)) for lineno, line in lines)


def load_bucc(path_a, path_b, gold_path) -> BuccCorpus:
    """Load one ``id<TAB>sentence`` file per side plus a gold link file."""
    return BuccCorpus(_load_bucc_side(path_a), _load_bucc_side(path_b), load_gold(gold_path))


def save_bucc(corpus: BuccCorpus, path_a, path_b, gold_path) -> None:
    _write_rows(path_a, corpus.side_a.items())
    _write_rows(path_b, corpus.side_b.items())
    _write_rows(gold_path, sorted(corpus.gold))
