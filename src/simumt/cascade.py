"""Speech-to-text cascade: simulated streaming ASR feeding an online MT.

`cascade_decode` runs `online.read_write_decode` over timed audio.  A read
consumes fixed-size blocks through a simulated incremental recognizer
until it endpoints (or the audio runs out), then appends the utterance's
normalized, subword-encoded transcription to the MT source.  The policy
(`CascadeConfig`) writes greedy tokens while the written count stays under
alpha * |transcribed tokens| + beta, and reads otherwise.  The run ends
when the MT writes EOS, or at audio depletion once the budget is spent.
`AudioBlocks` holds the block arithmetic for every speech path, and
`words_ended_by` the word timing the recognizer and the server share.

Endpointing follows four configurable rule shapes over the recognizer
snapshot: (a) long silence, decoded or not; (b) something decoded, a
silence floor, and the best hypothesis in a final state cheaper than a
relative-cost ceiling; (c) like (b) without the final-state requirement;
(d) utterance duration cap.  Rules of kind (b) may appear several times
with different (t, c) pairs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

from .normalize import asr_normalize
from .online import ActionTrace, Chunk, read_write_decode

INFINITE_COST = math.inf
# the longest audio a word may end at: 24 hours, in milliseconds
MAX_STREAM_MS = 24 * 3600 * 1000.0
# the most audio blocks one stream may have (one READ event each); 24 hours
# in the default 100 ms blocks is 864,000
MAX_BLOCKS = 1_000_000


@dataclass(frozen=True)
class TimedWord:
    """One word with its span in the audio, in milliseconds; the span must
    be finite and end by ``MAX_STREAM_MS``."""

    word: str
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if not self.word or any(c.isspace() for c in self.word):
            raise ValueError(f"bad word {self.word!r}")
        # written so that NaN fails every test
        if not (0 <= self.start_ms and 0 < self.duration_ms
                and self.start_ms + self.duration_ms <= MAX_STREAM_MS):
            raise ValueError(f"need start_ms >= 0, duration_ms > 0 and an end by "
                             f"{MAX_STREAM_MS:.0f} ms, got {self.start_ms!r}, {self.duration_ms!r}")

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


@dataclass(frozen=True)
class AudioBlocks:
    """``total_ms`` of audio read in blocks of ``block_ms``: the last block
    may be short, and an empty stream still has one block.  A ``block_ms``
    not in (0, inf), ``total_ms`` not in [0, MAX_STREAM_MS] or more than
    ``MAX_BLOCKS`` blocks raises."""

    total_ms: float
    block_ms: float

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not 0 < self.block_ms < math.inf:
            raise ValueError(f"block_ms must be positive and finite, got {self.block_ms!r}")
        if not 0 <= self.total_ms <= MAX_STREAM_MS:
            raise ValueError(f"total_ms must lie in [0, MAX_STREAM_MS], got {self.total_ms!r}")
        if self.total_ms / self.block_ms > MAX_BLOCKS:
            raise ValueError(f"block_ms={self.block_ms!r} cuts {self.total_ms!r} ms into "
                             f"more than MAX_BLOCKS = {MAX_BLOCKS} blocks")

    @classmethod
    def of(cls, words: Sequence[TimedWord], block_ms: float) -> "AudioBlocks":
        """The blocks of a stream that ends with its last word."""
        return cls(words[-1].end_ms if words else 0.0, block_ms)

    @property
    def n_blocks(self) -> int:
        return max(1, math.ceil(self.total_ms / self.block_ms))

    def consumed_ms(self, blocks: int) -> float:
        """Audio covered once ``blocks`` blocks are read."""
        return min(blocks * self.block_ms, self.total_ms)


def words_ended_by(words: Sequence[TimedWord], t_ms: float, lo: int) -> int:
    """The first index from ``lo`` whose word ends after ``t_ms``, the ends
    increasing (`validate_stream`); a scan, as a call passes 0-1 words."""
    n = len(words)
    while lo < n and words[lo].end_ms <= t_ms:
        lo += 1
    return lo


def validate_stream(words: Sequence[TimedWord]) -> None:
    for a, b in zip(words, words[1:]):
        if b.start_ms < a.end_ms:
            raise ValueError(
                f"overlapping words {a.word!r} and {b.word!r} at {b.start_ms}ms")


@dataclass(frozen=True)
class EndpointRule:
    kind: str                        # "a" | "b" | "c" | "d"
    t_seconds: float                 # silence floor (a-c) or utterance cap (d)
    cost_threshold: float | None = None  # only kind "b"

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b", "c", "d"):
            raise ValueError(f"unknown endpoint rule kind {self.kind!r}")
        if self.t_seconds <= 0:
            raise ValueError("t_seconds must be positive")
        if self.kind == "b":
            if self.cost_threshold is None or self.cost_threshold <= 0:
                raise ValueError("kind b needs a positive cost_threshold")
        elif self.cost_threshold is not None:
            raise ValueError(f"kind {self.kind} takes no cost_threshold")

    def fires(self, snap: AsrSnapshot) -> bool:
        """Whether this rule alone ends the utterance at ``snap``."""
        if self.kind == "a":
            return snap.silence_s >= self.t_seconds
        if self.kind == "d":
            return snap.utterance_s >= self.t_seconds
        quiet = snap.decoded_anything and snap.silence_s >= self.t_seconds
        if self.kind == "c":
            return quiet
        return quiet and snap.final_state_reached and snap.cost_relative < self.cost_threshold


@dataclass(frozen=True)
class AsrSnapshot:
    """Decoder state summary the endpointer sees at one instant."""

    silence_s: float                 # trailing silence in the utterance
    decoded_anything: bool           # any word decoded this utterance
    final_state_reached: bool        # best hypothesis sits in a final state
    cost_relative: float             # its relative cost; infinite if no final state
    utterance_s: float               # time since the utterance started

    def __post_init__(self) -> None:
        if not self.final_state_reached and not math.isinf(self.cost_relative):
            raise ValueError("cost must be infinite when no final state is active")


def _in_kind_order(rules: Sequence[EndpointRule]) -> list[EndpointRule]:
    """Rules by kind a, b, c, d, keeping declaration order within a kind."""
    return sorted(rules, key=attrgetter("kind"))


def _first_firing(snapshot: AsrSnapshot, ordered: Sequence[EndpointRule]):
    """(True, rule) for the first of ``ordered`` that fires, else
    (False, None)."""
    for r in ordered:
        if r.fires(snapshot):
            return True, r
    return False, None


def detect_endpoint(snapshot: AsrSnapshot, rules: Sequence[EndpointRule]):
    """First firing rule in kind order a, b, c, d (declaration order within
    a kind); returns (fired, rule_or_None)."""
    return _first_firing(snapshot, _in_kind_order(rules))


def default_endpoint_rules() -> list[EndpointRule]:
    return [
        EndpointRule("a", 5.0),
        EndpointRule("b", 1.0, cost_threshold=8.0),
        EndpointRule("c", 2.0),
        EndpointRule("d", 20.0),
    ]


@dataclass(frozen=True)
class CascadeConfig:
    sz: int = 1                      # audio blocks consumed per READ turn
    alpha: float = 1.0               # write budget slope
    beta: float = 5.0                # write budget intercept
    endpoint_rules: tuple = field(default_factory=lambda: tuple(default_endpoint_rules()))
    block_ms: float = 100.0

    def __post_init__(self) -> None:
        if not (isinstance(self.sz, numbers.Integral) and self.sz >= 1):
            raise ValueError("sz must be an integer >= 1")
        # written so that NaN fails too
        if not (0 <= self.alpha < math.inf and 1 <= self.beta < math.inf):
            raise ValueError("need finite alpha >= 0 and beta >= 1")
        AudioBlocks(0.0, self.block_ms)      # refuses a bad block_ms
        object.__setattr__(self, "endpoint_rules", tuple(self.endpoint_rules))

    def write_budget(self, observed: int) -> float:
        return self.alpha * observed + self.beta

    def waits(self, writes: int, observed: int) -> bool:
        return observed == 0                 # nothing transcribed yet


@dataclass
class AsrStep:
    snapshot: AsrSnapshot
    endpoint_fired: bool
    rule: EndpointRule | None
    words: list[str]                 # transcription emitted by this endpoint


class AsrSimulator:
    """Replays a timed word stream as an incremental recognizer.

    A word is decoded once the audio covers its end (`words_ended_by`).
    Each word can carry a scripted (final_state, cost) pair; by default every decoded word
    leaves the decoder in a final state at relative cost 0.  Endpointing
    resets the utterance clock and withholds emitted words from later
    snapshots.
    """

    def __init__(self, stream: Sequence[TimedWord], rules: Sequence[EndpointRule],
                 cost_script: Sequence[tuple[bool, float]] | None = None,
                 total_ms: float | None = None):
        self.words = list(stream)
        validate_stream(self.words)
        if cost_script is not None and len(cost_script) != len(self.words):
            raise ValueError("cost_script must align with the word stream")
        self.script = list(cost_script) if cost_script is not None else None
        self.rules = _in_kind_order(rules)     # ordered once, not per block
        last_end = self.words[-1].end_ms if self.words else 0.0
        self.total_ms = max(total_ms if total_ms is not None else last_end, last_end)
        self.now_ms = 0.0
        self.next_word = 0           # first not-yet-decoded word
        self.emit_from = 0           # first decoded-but-unemitted word
        self.utterance_start_ms = 0.0

    def snapshot(self) -> AsrSnapshot:
        decoded = self.next_word > self.emit_from
        if decoded:
            last_end = self.words[self.next_word - 1].end_ms
            silence = (self.now_ms - max(last_end, self.utterance_start_ms)) / 1000.0
            if self.script is not None:
                final, cost = self.script[self.next_word - 1]
            else:
                final, cost = True, 0.0
        else:
            silence = (self.now_ms - self.utterance_start_ms) / 1000.0
            final, cost = False, INFINITE_COST
        return AsrSnapshot(
            silence_s=silence,
            decoded_anything=decoded,
            final_state_reached=final,
            cost_relative=cost if final else INFINITE_COST,
            utterance_s=(self.now_ms - self.utterance_start_ms) / 1000.0,
        )

    def advance(self, to_ms: float) -> AsrStep:
        """Consume audio up to ``to_ms`` and evaluate the endpointer once."""
        if to_ms < self.now_ms:
            raise ValueError("audio time cannot go backwards")
        self.now_ms = to_ms
        self.next_word = words_ended_by(self.words, to_ms, self.next_word)
        snap = self.snapshot()
        fired, rule = _first_firing(snap, self.rules)
        emitted: list[str] = []
        if fired:
            emitted = [w.word for w in self.words[self.emit_from : self.next_word]]
            self.emit_from = self.next_word
            self.utterance_start_ms = self.now_ms
        return AsrStep(snapshot=snap, endpoint_fired=fired, rule=rule, words=emitted)

    def flush(self) -> list[str]:
        """Emit whatever is decoded but unemitted (used at audio depletion)."""
        out = [w.word for w in self.words[self.emit_from : self.next_word]]
        self.emit_from = self.next_word
        return out


@dataclass
class CascadeMT:
    """Translation side of the cascade: models plus the encoder of
    transcripts normalized by `asr_normalize`'s default lexicon."""

    models: list                     # Parameters or session objects
    encode_source: Callable[[str], list[int]]  # normalized text -> ids


@dataclass
class CascadeResult:
    tokens: list[int]
    trace: ActionTrace
    transcript_tokens: int
    truncated: bool


def cascade_decode(stream: Sequence[TimedWord], mt: CascadeMT,
                   config: CascadeConfig, cost_script=None,
                   total_ms: float | None = None,
                   hard_cap: int = 1000) -> CascadeResult:
    """Run the read/write driver over one audio stream, ``config.sz``
    blocks at a time per recognizer step.

    The trace has one READ per audio block (g_ms stamps the consumed
    audio) and one WRITE per emitted token.  The target prefix and the
    source persist across endpoints, with the end-of-source marker
    appended exactly once at audio depletion.  An audio length (``total_ms``
    or the last word's end) `AudioBlocks` refuses raises before any read.
    ``hard_cap`` bounds total writes in case EOS never comes (the result
    is then flagged truncated).
    """
    sim = AsrSimulator(stream, config.endpoint_rules, cost_script, total_ms)
    blocks = AudioBlocks(sim.total_ms, config.block_ms)
    n_blocks = blocks.n_blocks
    transcribed = 0

    def turns():
        nonlocal transcribed
        start = z = 0
        while z < n_blocks:
            z += min(config.sz, n_blocks - z)
            step = sim.advance(blocks.consumed_ms(z))
            if step.endpoint_fired or z == n_blocks:
                words = step.words if step.endpoint_fired else sim.flush()
                text = asr_normalize(" ".join(words)) if words else ""
                ids = mt.encode_source(text) if text else []
                transcribed += len(ids)
                yield Chunk(ids=ids, units=z - start, ended=z == n_blocks,
                            at_ms=blocks.consumed_ms(z))
                start = z

    tokens, trace = read_write_decode(mt.models, turns(), config, max_writes=hard_cap)
    return CascadeResult(tokens=tokens, trace=trace, transcript_tokens=transcribed,
                         truncated=trace.truncated)


# ---------------------------------------------------------------------------
# stream segmentation

@dataclass(frozen=True)
class Segment:
    words: tuple[TimedWord, ...]

    @property
    def start_ms(self) -> float:
        return self.words[0].start_ms

    @property
    def end_ms(self) -> float:
        return self.words[-1].end_ms

    @property
    def n_words(self) -> int:
        return len(self.words)


def segment_stream(words: Sequence[TimedWord], theta_long: float = 0.65,
                   theta_short: float = 0.15, max_words: int = 40) -> list[Segment]:
    """Split a stream at silences, with a stricter threshold on long runs.

    A split happens before word i when the gap since the previous word
    strictly exceeds the active threshold: theta_long seconds normally,
    theta_short once the open segment already holds more than max_words
    words.  Every word lands in exactly one segment, order preserved.
    A NaN or non-positive threshold raises ValueError.
    """
    if theta_short > theta_long:
        raise ValueError("theta_short must not exceed theta_long")
    # written so that NaN fails too; an infinite threshold never splits
    if not (theta_short > 0 and theta_long > 0) or max_words < 1:
        raise ValueError("thresholds must be positive and max_words >= 1")
    words = list(words)
    validate_stream(words)
    segments: list[Segment] = []
    current: list[TimedWord] = []
    for w in words:
        if current:
            gap_s = (w.start_ms - current[-1].end_ms) / 1000.0
            threshold = theta_short if len(current) > max_words else theta_long
            if gap_s > threshold:
                segments.append(Segment(words=tuple(current)))
                current = []
        current.append(w)
    if current:
        segments.append(Segment(words=tuple(current)))
    return segments


# ---------------------------------------------------------------------------
# timed-stream files

DOC_SEPARATOR = "##"


def load_timed_streams(path) -> list[list[TimedWord]]:
    """TSV of word, start_ms, duration_ms; lines of "##" separate documents."""
    docs: list[list[TimedWord]] = [[]]
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line == DOC_SEPARATOR:
                docs.append([])
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{ln}: expected word<TAB>start_ms<TAB>duration_ms")
            try:
                word = TimedWord(fields[0], float(fields[1]), float(fields[2]))
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: {e}") from e
            docs[-1].append(word)
    docs = [d for d in docs if d]
    for d in docs:
        validate_stream(d)
    return docs


def save_timed_streams(docs: Sequence[Sequence[TimedWord]], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, doc in enumerate(docs):
            if i:
                f.write(DOC_SEPARATOR + "\n")
            for w in doc:
                f.write(f"{w.word}\t{w.start_ms!r}\t{w.duration_ms!r}\n")


def save_segments(segments: Sequence[Segment], path) -> None:
    """Segment TSV: word, start_ms, duration_ms, segment_id."""
    with open(path, "w", encoding="utf-8") as f:
        for seg_id, seg in enumerate(segments):
            for w in seg.words:
                f.write(f"{w.word}\t{w.start_ms!r}\t{w.duration_ms!r}\t{seg_id}\n")
