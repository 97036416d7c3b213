"""Deterministic synthetic bilingual corpora for end-to-end testing.

The "source language" is random word sequences over a generated
vocabulary; the "target language" applies a bijective word cipher, so
cross-lingual correspondence is learnable by an n-gram encoder.
Corruption replaces target words (with the configured probability) by
words from a separate noise vocabulary, imitating garbled translation
output; the quality label is exactly 1 minus the realized corrupted
fraction.  All generators derive the same cipher from the seed, so QE,
parallel, similarity-search and mining corpora produced from one config
are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import BuccCorpus, ParallelSet, QERecord, TatoebaSet

__all__ = ["SynthConfig", "SynthCorpus", "generate_qe", "generate_parallel",
           "generate_tatoeba", "generate_bucc", "generate_corpus"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_TAG_VOCAB = 0
_TAG_QE = 1
_TAG_PARALLEL = 2
_TAG_TATOEBA = 3
_TAG_BUCC = 4

# Disjoint character sets per language (as with different scripts), so
# cross-lingual similarity must be learned rather than read off shared
# character n-grams.
_SOURCE_ALPHABET = "abcdefghijklm"
_TARGET_ALPHABET = "nopqrstuvwxyz"
# Words per sentence, drawn uniformly from this inclusive range
_MIN_WORDS = 3
_MAX_WORDS = 12


@dataclass(frozen=True)
class SynthConfig:
    vocab_size: int = 200
    corruption_rate: float = 0.3
    seed: int = 42

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ValueError("corruption_rate must lie in [0,1]")


@dataclass(frozen=True)
class SynthCorpus:
    qe: tuple
    parallel: ParallelSet
    tatoeba: TatoebaSet
    bucc: BuccCorpus


def _rng(config: SynthConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.seed & _MASK64, tag])


def _draw_words(rng, alphabet: str, count: int) -> tuple[str, ...]:
    words: list[str] = []
    seen = set()
    while len(words) < count:
        length = int(rng.integers(3, 9))
        word = "".join(alphabet[k] for k in rng.integers(0, len(alphabet), length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return tuple(words)


@lru_cache(maxsize=4)
def _vocabularies(config: SynthConfig):
    """Source vocab, its cipher image, and the noise vocab; cached per config.

    The target and noise vocabularies share the target alphabet but are
    disjoint word sets, so noise words look like fluent target text.
    """
    rng = _rng(config, _TAG_VOCAB)
    source = _draw_words(rng, _SOURCE_ALPHABET, config.vocab_size)
    target_side = _draw_words(
        rng, _TARGET_ALPHABET, config.vocab_size + max(1, config.vocab_size // 2)
    )
    return source, target_side[: config.vocab_size], target_side[config.vocab_size :]


def _sentence_indices(rng, config: SynthConfig) -> np.ndarray:
    length = int(rng.integers(_MIN_WORDS, _MAX_WORDS + 1))
    return rng.integers(0, config.vocab_size, length)


def _sentence(rng, config: SynthConfig, vocab) -> str:
    return " ".join(vocab[k] for k in _sentence_indices(rng, config))


def generate_qe(config: SynthConfig, count: int) -> list[QERecord]:
    """Graded-quality pairs: cipher translations with noise-word corruption."""
    source_vocab, target_vocab, noise_vocab = _vocabularies(config)
    rng = _rng(config, _TAG_QE)
    records = []
    for _ in range(count):
        idx = _sentence_indices(rng, config)
        source = " ".join(source_vocab[k] for k in idx)
        target_words = [target_vocab[k] for k in idx]
        corrupted = rng.random(len(idx)) < config.corruption_rate
        for pos in np.flatnonzero(corrupted):
            target_words[pos] = noise_vocab[int(rng.integers(0, len(noise_vocab)))]
        score = 1.0 - float(corrupted.sum()) / len(idx)
        records.append(QERecord(source, " ".join(target_words), score))
    return records


def _clean_pairs(rng, config: SynthConfig, count: int) -> list[tuple[str, str]]:
    """``count`` (source sentence, its cipher translation) pairs."""
    source_vocab, target_vocab, _ = _vocabularies(config)
    pairs = []
    for _ in range(count):
        idx = _sentence_indices(rng, config)
        pairs.append((" ".join(source_vocab[k] for k in idx),
                      " ".join(target_vocab[k] for k in idx)))
    return pairs


def generate_parallel(config: SynthConfig, count: int) -> ParallelSet:
    """Clean cipher pairs with the target language on the English side."""
    return ParallelSet(tuple(_clean_pairs(_rng(config, _TAG_PARALLEL), config, count)))


def generate_tatoeba(config: SynthConfig, count: int) -> TatoebaSet:
    """Clean pairs for similarity search; line i translates line i."""
    pairs = _clean_pairs(_rng(config, _TAG_TATOEBA), config, count)
    return TatoebaSet(tuple(s for s, _ in pairs), tuple(t for _, t in pairs))


def generate_bucc(config: SynthConfig, n_gold: int, n_distractors: int) -> BuccCorpus:
    """Gold cipher pairs injected among unrelated sentences on both sides."""
    source_vocab, target_vocab, _ = _vocabularies(config)
    rng = _rng(config, _TAG_BUCC)
    gold_pairs = _clean_pairs(rng, config, n_gold)
    distractors_a = [_sentence(rng, config, source_vocab) for _ in range(n_distractors)]
    distractors_b = [_sentence(rng, config, target_vocab) for _ in range(n_distractors)]

    def _inject(gold_texts, distractors, prefix):
        texts = gold_texts + distractors
        order = rng.permutation(len(texts))
        side = {}
        id_of_gold = {}
        for position, original in enumerate(order):
            sent_id = f"{prefix}-{position:05d}"
            side[sent_id] = texts[original]
            if original < len(gold_texts):
                id_of_gold[int(original)] = sent_id
        return side, id_of_gold

    side_a, gold_ids_a = _inject([s for s, _ in gold_pairs], distractors_a, "a")
    side_b, gold_ids_b = _inject([t for _, t in gold_pairs], distractors_b, "b")
    gold = frozenset((gold_ids_a[k], gold_ids_b[k]) for k in range(n_gold))
    return BuccCorpus(side_a, side_b, gold)


def generate_corpus(config: SynthConfig, count: int) -> SynthCorpus:
    """One consistent bundle: ``count`` QE pairs plus derived-size
    parallel (count), similarity-search (count // 5) and mining
    (count // 10 gold, count // 5 distractors per side) corpora."""
    if count < 10:
        raise ValueError("count must be >= 10")
    return SynthCorpus(
        qe=tuple(generate_qe(config, count)),
        parallel=generate_parallel(config, count),
        tatoeba=generate_tatoeba(config, max(1, count // 5)),
        bucc=generate_bucc(config, max(1, count // 10), max(1, count // 5)),
    )
