import pytest

from qemine.synth import (
    SynthConfig,
    generate_bucc,
    generate_corpus,
    generate_parallel,
    generate_qe,
    generate_tatoeba,
)


class TestLabels:
    def test_zero_corruption_gives_unit_scores(self):
        records = generate_qe(SynthConfig(corruption_rate=0.0, seed=1), 50)
        assert all(r.score == 1.0 for r in records)

    def test_full_corruption_gives_zero_scores(self):
        records = generate_qe(SynthConfig(corruption_rate=1.0, seed=1), 50)
        assert all(r.score == 0.0 for r in records)

    def test_score_equals_one_minus_corrupted_fraction(self):
        config = SynthConfig(corruption_rate=0.4, seed=2)
        records = generate_qe(config, 100)
        # reconstruct the corrupted fraction by re-ciphering the source
        source_vocab, target_vocab, noise_vocab = _vocabs(config)
        cipher = dict(zip(source_vocab, target_vocab))
        for record in records:
            src_words = record.source.split()
            tgt_words = record.target.split()
            assert len(src_words) == len(tgt_words)
            mismatches = sum(
                1 for s, t in zip(src_words, tgt_words) if cipher[s] != t
            )
            assert record.score == 1.0 - mismatches / len(src_words)

    def test_corrupted_words_come_from_noise_vocab(self):
        config = SynthConfig(corruption_rate=0.5, seed=3)
        source_vocab, target_vocab, noise_vocab = _vocabs(config)
        cipher = dict(zip(source_vocab, target_vocab))
        noise = set(noise_vocab)
        for record in generate_qe(config, 50):
            for s, t in zip(record.source.split(), record.target.split()):
                if cipher[s] != t:
                    assert t in noise


def _vocabs(config):
    from qemine.synth import _vocabularies

    return _vocabularies(config)


class TestCipher:
    def test_bijective_at_zero_corruption(self):
        config = SynthConfig(corruption_rate=0.0, seed=4)
        mapping = {}
        reverse = {}
        for record in generate_qe(config, 200):
            for s, t in zip(record.source.split(), record.target.split()):
                assert mapping.setdefault(s, t) == t
                assert reverse.setdefault(t, s) == s

    def test_languages_use_disjoint_characters(self):
        config = SynthConfig(seed=5)
        for record in generate_qe(config, 20):
            assert set("".join(record.source.split())) <= set("abcdefghijklm")
            assert set("".join(record.target.split())) <= set("nopqrstuvwxyz")

    def test_sentence_lengths_in_range(self):
        config = SynthConfig(seed=6)
        for record in generate_qe(config, 100):
            assert 3 <= len(record.source.split()) <= 12


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate_corpus(SynthConfig(seed=7), 40)
        b = generate_corpus(SynthConfig(seed=7), 40)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_qe(SynthConfig(seed=8), 20)
        b = generate_qe(SynthConfig(seed=9), 20)
        assert a != b

    def test_generators_share_one_cipher(self):
        # a tatoeba pair re-ciphered with the QE vocabulary must match
        config = SynthConfig(corruption_rate=0.0, seed=10)
        source_vocab, target_vocab, _ = _vocabs(config)
        cipher = dict(zip(source_vocab, target_vocab))
        data = generate_tatoeba(config, 25)
        for ref, hyp in zip(data.references, data.hypotheses):
            assert [cipher[w] for w in ref.split()] == hyp.split()
        parallel = generate_parallel(config, 25)
        for src, tgt in parallel.pairs:
            assert [cipher[w] for w in src.split()] == tgt.split()


class TestBucc:
    def test_gold_links_are_cipher_pairs(self):
        config = SynthConfig(seed=11)
        corpus = generate_bucc(config, n_gold=10, n_distractors=30)
        source_vocab, target_vocab, _ = _vocabs(config)
        cipher = dict(zip(source_vocab, target_vocab))
        assert len(corpus.gold) == 10
        assert len(corpus.side_a) == 40
        assert len(corpus.side_b) == 40
        for id_a, id_b in corpus.gold:
            src = corpus.side_a[id_a].split()
            tgt = corpus.side_b[id_b].split()
            assert [cipher[w] for w in src] == tgt

    def test_bundle_sizes(self):
        bundle = generate_corpus(SynthConfig(seed=12), 100)
        assert len(bundle.qe) == 100
        assert bundle.parallel.size == 100
        assert bundle.tatoeba.size == 20
        assert len(bundle.bucc.gold) == 10

    def test_count_floor(self):
        with pytest.raises(ValueError):
            generate_corpus(SynthConfig(seed=13), 5)
