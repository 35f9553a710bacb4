import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attnseg.corpus import (
    RESERVED,
    ParallelCorpus,
    ParallelUtterance,
    Segmentation,
    Vocabulary,
    build_vocabularies,
    load_gold_segmentation,
    load_parallel_corpus,
    split_train_dev,
    write_corpus,
    write_segmentations,
)
from attnseg.errors import ConfigError, DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# file contents from raw bytes, or from text pieces that a line reader treats
# specially (line and word separators, reserved tokens, surrogates that do not
# encode to UTF-8)
ANY_FILE = st.binary(max_size=40) | st.lists(
    st.sampled_from(["a", "b1", "x", "<PAD>", "<unk>", " ", "\n", "\r", "\t", "\x0b", "\x1c",
                     "\x85", "\xa0", "\u2028", "\xe9"]) | st.text(max_size=3), max_size=12
).map(lambda parts: "".join(parts).encode("utf-8", "surrogatepass"))


@pytest.fixture
def toy_files(tmp_path):
    ul = tmp_path / "ul.txt"
    wrl = tmp_path / "wrl.txt"
    write_lines(ul, ["a b c d", "a b", "c d a"])
    write_lines(wrl, ["un deux", "un", "trois un"])
    return str(ul), str(wrl)


class TestSegmentation:
    def test_word_spans(self):
        s = Segmentation(5, {2, 4})
        assert s.word_spans() == [(0, 2), (2, 4), (4, 5)]
        assert s.num_words == 3

    def test_rejects_edge_boundaries(self):
        with pytest.raises(DataError):
            Segmentation(3, {0})
        with pytest.raises(DataError):
            Segmentation(3, {3})

    def test_from_words_roundtrip(self):
        words = [("a", "b"), ("c",), ("d", "e", "f")]
        s = Segmentation.from_words(words)
        assert s.boundaries == {2, 3}
        assert s.words(list("abcdef")) == words

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    def test_words_boundaries_bijection(self, lengths):
        symbols = []
        words = []
        for i, n in enumerate(lengths):
            w = tuple("s%d_%d" % (i, j) for j in range(n))
            words.append(w)
            symbols.extend(w)
        seg = Segmentation.from_words(words)
        assert seg.words(symbols) == words
        assert Segmentation.from_words(seg.words(symbols)) == seg


def reference_vocabulary_ids(tokens):
    """The token -> id map of a vocabulary built by adding one token at a time."""
    ids = {t: i for i, t in enumerate(RESERVED)}
    for t in tokens:
        if t in RESERVED:
            raise DataError("reserved token %r cannot be added" % t)
        ids.setdefault(t, len(ids))
    return ids


class TestVocabulary:
    def test_reserved_ids_distinct(self):
        v = Vocabulary()
        assert len({v.pad_id, v.bos_id, v.eos_id, v.unk_id}) == 4

    def test_bijection(self):
        v = Vocabulary(["x", "y", "x"])
        assert v.id("x") != v.id("y")
        assert len(v) == 6

    def test_unk_fallback(self):
        v = Vocabulary(["x"])
        assert v.id("zzz", allow_unk=True) == v.unk_id
        with pytest.raises(DataError):
            v.id("zzz")

    @given(st.lists(st.sampled_from(["a", "b", "ab", "x y", "é", "<pad>"]) | st.text(max_size=3)),
           st.lists(st.tuples(st.sampled_from(RESERVED), st.integers(0, 50)), min_size=1,
                    max_size=3))
    def test_ids_match_adding_token_by_token(self, tokens, reserved):
        v, want = Vocabulary(iter(tokens)), reference_vocabulary_ids(tokens)
        assert len(v) == len(want) and {t: v.id(t) for t in want} == want
        assert v.tokens() == list(want)[len(RESERVED):]
        for token, at in reserved:
            tokens.insert(min(at, len(tokens)), token)
        with pytest.raises(DataError) as got:
            Vocabulary(iter(tokens))
        with pytest.raises(DataError) as ref:
            reference_vocabulary_ids(tokens)
        assert str(got.value) == str(ref.value)  # names the first reserved token


class TestLoadParallelCorpus:
    def test_basic(self, toy_files):
        c = load_parallel_corpus(*toy_files)
        assert len(c) == 3
        assert c.utterances[0].ul_symbols == ("a", "b", "c", "d")
        assert c.utterances[0].wrl_words == ("un", "deux")

    def test_one_line_tokenization(self, tmp_path):
        write_lines(tmp_path / "u", ["a b c"])
        write_lines(tmp_path / "w", ["x y"])
        c = load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))
        assert len(c.utterances[0].ul_symbols) == 3
        assert len(c.utterances[0].wrl_words) == 2

    def test_line_count_mismatch(self, tmp_path):
        write_lines(tmp_path / "u", ["a", "b", "c"])
        write_lines(tmp_path / "w", ["x", "y"])
        with pytest.raises(DataError, match="3.*2|2.*3"):
            load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))

    def test_empty_line_named(self, tmp_path):
        (tmp_path / "u").write_text("a b\n\nc\n", encoding="utf-8")
        write_lines(tmp_path / "w", ["x", "y", "z"])
        with pytest.raises(DataError, match="line 2"):
            load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))

    def test_write_read_roundtrip(self, toy_files, tmp_path):
        c = load_parallel_corpus(*toy_files)
        u2, w2 = str(tmp_path / "u2"), str(tmp_path / "w2")
        write_corpus(c, u2, w2)
        assert open(u2).read().rstrip() == open(toy_files[0]).read().rstrip()
        assert open(w2).read().rstrip() == open(toy_files[1]).read().rstrip()

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ANY_FILE, ANY_FILE)
    def test_any_bytes_read_or_raise_corpus_error(self, tmp_path, ul, wrl):
        (tmp_path / "u").write_bytes(ul)
        (tmp_path / "w").write_bytes(wrl)
        try:
            c = load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))
        except DataError:
            return
        assert all(u.ul_symbols and u.wrl_words for u in c)
        assert [u.id for u in c] == ["utt%05d" % i for i in range(1, len(c) + 1)]


class TestGoldSegmentation:
    def load(self, tmp_path, ul, seg):
        write_lines(tmp_path / "u", ul)
        write_lines(tmp_path / "w", ["x"] * len(ul))
        write_lines(tmp_path / "g", seg)
        c = load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))
        return load_gold_segmentation(c, str(tmp_path / "g"))

    def test_single_break(self, tmp_path):
        assert self.load(tmp_path, ["a b c d"], ["ab cd"]) == {"utt00001": Segmentation(4, {2})}

    def test_single_word(self, tmp_path):
        assert self.load(tmp_path, ["a b"], ["ab"]) == {"utt00001": Segmentation(2)}

    def test_symbol_mismatch(self, tmp_path):
        with pytest.raises(DataError, match="g line 1: word 2 'ce'"):
            self.load(tmp_path, ["a b c d"], ["ab ce"])

    @pytest.mark.parametrize("seg, message", [
        (["ab c", "a b"], "g line 1: the words spell 3 of the 4 symbols"),
        (["", "ab"], "g line 1: the words spell 0 of the 4 symbols"),
        (["ab cd", "a b b"], "g line 2: word 3 'b' does not spell"),
        (["abcde", "ab"], "g line 1: word 1 'abcde' does not spell"),
        (["ab cd"], "g has 1 lines, corpus has 2 utterances")])
    def test_words_that_do_not_spell_the_line(self, tmp_path, seg, message):
        with pytest.raises(DataError, match=message):
            self.load(tmp_path, ["a b c d", "a b"], seg)

    def test_multichar_symbols_need_no_delimiter(self, tmp_path):
        assert self.load(tmp_path, ["a12 a3 a12"], ["a12a3 a12"]) == {
            "utt00001": Segmentation(3, {2})}
        # a word must end where a symbol ends
        with pytest.raises(DataError, match="word 1 'a12a'"):
            self.load(tmp_path, ["a12 a3 a12"], ["a12a 3a12"])

    def test_write_segmentations_roundtrip(self, tmp_path):
        write_lines(tmp_path / "u", ["a b c d", "a b"])
        write_lines(tmp_path / "w", ["x", "y"])
        c = load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))
        segs = {"utt00001": Segmentation(4, {2}), "utt00002": Segmentation(2, {1})}
        out = tmp_path / "seg.txt"
        write_segmentations(c, segs, str(out))
        assert out.read_text() == "ab cd\na b\n"
        assert load_gold_segmentation(c, str(out)) == segs

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.text("ab1", min_size=1, max_size=3), min_size=1, max_size=6),
                    min_size=1, max_size=4), st.data())
    def test_any_segmentation_of_multichar_symbols_roundtrips(self, tmp_path, lines, data):
        write_lines(tmp_path / "u", [" ".join(syms) for syms in lines])
        write_lines(tmp_path / "w", ["x"] * len(lines))
        c = load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))
        segs = {u.id: Segmentation(len(u.ul_symbols), data.draw(
                    st.sets(st.integers(1, len(u.ul_symbols) - 1)) if len(u.ul_symbols) > 1
                    else st.just(set())))
                for u in c}
        write_segmentations(c, segs, str(tmp_path / "seg.txt"))
        assert load_gold_segmentation(c, str(tmp_path / "seg.txt")) == segs

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.text(st.sampled_from("ab1 \t\u00e9"), max_size=8), max_size=4))
    def test_any_line_text_reads_or_raises_corpus_error(self, tmp_path, seg):
        write_lines(tmp_path / "u", ["a b1 a", "b1 b"])
        write_lines(tmp_path / "w", ["x", "y"])
        (tmp_path / "g").write_text("\n".join(seg), encoding="utf-8")
        c = load_parallel_corpus(str(tmp_path / "u"), str(tmp_path / "w"))
        try:
            segs = load_gold_segmentation(c, str(tmp_path / "g"))
        except DataError:
            return
        assert [s.length for s in segs.values()] == [3, 2]


class TestSplit:
    def make_corpus(self, n):
        utts = tuple(
            ParallelUtterance("u%d" % i, ("a", "b"), ("x",)) for i in range(n)
        )
        ul, wrl = build_vocabularies(utts)
        return ParallelCorpus(utts, ul, wrl)

    def test_sizes_rounding(self):
        c = self.make_corpus(10)
        train, dev = split_train_dev(c, 0.3, seed=0)
        assert (len(train), len(dev)) == (7, 3)

    def test_large_corpus_sizes(self):
        c = self.make_corpus(5130)
        train, dev = split_train_dev(c, 514 / 5130, seed=0)
        assert (len(train), len(dev)) == (4616, 514)

    def test_determinism(self):
        c = self.make_corpus(10)
        a = split_train_dev(c, 0.5, seed=1)
        b = split_train_dev(c, 0.5, seed=1)
        assert [u.id for u in a[0]] == [u.id for u in b[0]]
        assert [u.id for u in a[1]] == [u.id for u in b[1]]

    @given(st.integers(2, 40), st.floats(0.05, 0.95), st.integers(0, 5))
    def test_partition(self, n, frac, seed):
        c = self.make_corpus(n)
        train, dev = split_train_dev(c, frac, seed)
        ids = [u.id for u in train] + [u.id for u in dev]
        assert len(ids) == n
        assert len(set(ids)) == n

    def test_bad_fraction(self):
        c = self.make_corpus(4)
        with pytest.raises(ConfigError):
            split_train_dev(c, 1.5, seed=0)

