"""Greedy frequency byte-pair encoding over whitespace-tokenized text.

Words are split into character symbols; the final character of each word
carries the end-of-word marker "</w>" fused onto it, so "zz" starts as
("z", "z</w>").  Training repeatedly merges the most frequent adjacent
symbol pair (ties broken lexicographically) until the vocabulary reaches
the requested size or no pair repeats.  Encoding replays the merge list
in order, which makes segmentation deterministic, and decoding joins
symbols and turns each marker back into a space, so encode/decode round-
trips exactly on text whose words are made of known characters.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .vocab import SPECIAL_TOKENS, UNK_TOKEN, Vocabulary

WORD_END = "</w>"


def _word_symbols(word: str) -> tuple[str, ...]:
    chars = list(word)
    chars[-1] = chars[-1] + WORD_END
    return tuple(chars)


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    """Replace every non-overlapping occurrence of ``pair``, left to right."""
    merged = pair[0] + pair[1]
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _pair_counts(words: dict[tuple[str, ...], int]) -> Counter:
    counts: Counter = Counter()
    for symbols, freq in words.items():
        for a, b in zip(symbols, symbols[1:]):
            counts[(a, b)] += freq
    return counts


@dataclass
class BpeModel:
    """Learned merge list plus the derived subword vocabulary."""

    merges: tuple[tuple[str, str], ...]
    vocab: Vocabulary
    _cache: dict[str, tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def encode_word(self, word: str) -> tuple[str, ...]:
        if not word or any(c.isspace() for c in word):
            raise ValueError(f"not a single word: {word!r}")
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        symbols = _word_symbols(word)
        for pair in self.merges:
            if len(symbols) == 1:
                break
            symbols = _merge_word(symbols, pair)
        self._cache[word] = symbols
        return symbols

    def encode_tokens(self, text: str) -> list[str]:
        out: list[str] = []
        for word in text.split():
            out.extend(self.encode_word(word))
        return out

    def encode(self, text: str) -> list[int]:
        """Subword ids for ``text``; symbols outside the vocabulary map to UNK."""
        return [self.vocab.id(s) for s in self.encode_tokens(text)]

    def detokenize(self, tokens) -> str:
        """Text of subword token strings: each end-of-word marker becomes a
        space, and ``<unk>`` stands as a word of its own."""
        return "".join(UNK_TOKEN + " " if t == UNK_TOKEN else t.replace(WORD_END, " ")
                       for t in tokens).strip()

    def decode(self, ids) -> str:
        return self.detokenize(self.vocab.decode_ids(ids))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"bpe-vocab {len(self.vocab)}\n")
            for tok in self.vocab.token_of:
                f.write(tok + "\n")
            f.write(f"bpe-merges {len(self.merges)}\n")
            for a, b in self.merges:
                f.write(f"{a} {b}\n")

    @classmethod
    def load(cls, path) -> "BpeModel":
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        try:
            kind, n = lines[0].split()
            if kind != "bpe-vocab":
                raise ValueError
            n_vocab = int(n)
            tokens = tuple(lines[1 : 1 + n_vocab])
            if len(tokens) != n_vocab:
                raise ValueError
            kind, n = lines[1 + n_vocab].split()
            if kind != "bpe-merges":
                raise ValueError
            n_merges = int(n)
            merge_lines = lines[2 + n_vocab : 2 + n_vocab + n_merges]
            if len(merge_lines) != n_merges:
                raise ValueError
            merges = tuple(tuple(ln.split(" ")) for ln in merge_lines)
            if any(len(m) != 2 for m in merges):
                raise ValueError
        except (ValueError, IndexError) as e:
            raise ValueError(f"malformed subword model file {path}") from e
        return cls(merges=merges, vocab=Vocabulary(tokens))


def train_bpe(corpus: list[str], target_vocab_size: int) -> BpeModel:
    """Learn merges on ``corpus`` lines until the vocabulary reaches the target.

    The vocabulary is specials, then the character alphabet (sorted), then
    one symbol per merge in the order learned.  Training stops early when
    no adjacent pair occurs twice, so the result may be smaller than
    requested.
    """
    word_freq: Counter = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("empty corpus")

    words: dict[tuple[str, ...], int] = {
        _word_symbols(w): f for w, f in word_freq.items()
    }
    alphabet = sorted({s for symbols in words for s in symbols})
    floor = len(SPECIAL_TOKENS) + len(alphabet)
    if target_vocab_size < floor:
        raise ValueError(
            f"target_vocab_size {target_vocab_size} below minimum {floor} "
            "(specials + character alphabet)"
        )

    merges: list[tuple[str, str]] = []
    vocab_tokens = list(alphabet)
    while len(SPECIAL_TOKENS) + len(vocab_tokens) < target_vocab_size:
        counts = _pair_counts(words)
        if not counts:
            break
        best_freq = max(counts.values())
        if best_freq < 2:
            break
        pair = min(p for p, c in counts.items() if c == best_freq)
        merges.append(pair)
        vocab_tokens.append(pair[0] + pair[1])
        words = {_merge_word(s, pair): f for s, f in words.items()}
    return BpeModel(merges=tuple(merges), vocab=Vocabulary.build(vocab_tokens))
