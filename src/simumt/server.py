"""Streaming evaluation service over line-delimited JSON.

One TCP connection evaluates one sentence.  The client asks for source
units one at a time and announces each emitted target token; the server
therefore measures lagging itself, from what the client actually saw
before each write, rather than trusting client-reported numbers.

Frames (one JSON object per line):

    {"act": "START", "id": 3}          optional; else ids auto-assign
    {"act": "READ"}                    -> {"token": "w"} | {"eos": true}
                                          (speech: {"block_ms": ..., "words": [...]})
    {"act": "WRITE", "token": "w"}     -> {"ok": true} (+ "done" on EOS)
    {"act": "SCORE"}                   -> {"bleu": ..., "al_words": ..., ...}

A malformed frame (invalid UTF-8 or JSON, or a line longer than
MAX_FRAME_BYTES bytes with its newline) gets {"error": ...} and the
connection closes; the session is dropped from scoring.  So is the
session of a connection that stays silent for IDLE_TIMEOUT_S seconds or
fails on a socket error (a reset), which closes without a reply.  A START
id must be a JSON integer naming a sentence that has no session yet.
Reads past the end keep answering with the end marker.  Writing the
end-of-sequence token finishes the session.  A session accepts at most
2·|source| + 50 content WRITEs (|source| in tokens, or words for speech);
one more is an error.  At most MAX_CONNECTIONS connections are served at
once; one more gets {"error": "server busy"} and is closed at once, with
no thread started for it.

SCORE runs `metrics.score_runs`, as the offline sweeps do, over completed
sessions.  A testset with an empty source or stream is refused.

The reference client runs `online.read_write_decode` with its source on
the wire: a READ frame per token, {"eos": true} as the end.
"""
from __future__ import annotations

import json
import socket
import socketserver
import threading
from dataclasses import dataclass, field

from .cascade import AudioBlocks, validate_stream, words_ended_by
from .metrics import score_runs
from .online import ActionTrace, Chunk, ReadEvent, WriteEvent, read_write_decode
from .sweep import Testset
from .vocab import EOS_TOKEN

MAX_FRAME_BYTES = 64 * 1024     # one client frame line, newline included
IDLE_TIMEOUT_S = 300.0          # socket timeout of a connection's reads and writes
MAX_CONNECTIONS = 64            # live connections, each with its own thread


@dataclass(frozen=True)
class ServerTestset(Testset):
    """What the server serves and scores against: t2t sources are
    token-string sequences, s2t sources TimedWord streams (without
    overlaps) revealed in fixed audio blocks; a ``block_ms`` `AudioBlocks`
    refuses raises here, not at the first READ."""

    mode: str                       # "t2t" | "s2t"
    block_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.mode not in ("t2t", "s2t"):
            raise ValueError(f"unknown mode {self.mode!r}")
        super().__post_init__()
        if self.mode == "s2t":
            for src in self.sources:
                validate_stream(src)
                AudioBlocks.of(src, self.block_ms)


@dataclass
class EvalSession:
    """Server-side record of one sentence evaluation."""

    session_id: int
    max_writes: int                 # content WRITEs allowed
    revealed: int = 0               # source units handed out
    blocks: AudioBlocks | None = None  # s2t: the stream's audio blocks
    next_word: int = 0              # s2t: first word not yet handed out
    events: list = field(default_factory=list)
    hyp_tokens: list[str] = field(default_factory=list)
    done: bool = False
    aborted: bool = False

    def trace(self) -> ActionTrace:
        return ActionTrace(events=tuple(self.events))


class _Handler(socketserver.StreamRequestHandler):
    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S       # read at connect time, not at import
        super().setup()

    def handle(self) -> None:
        server: EvalServer = self.server  # type: ignore[assignment]
        session: EvalSession | None = None
        try:
            while raw := self.rfile.readline(MAX_FRAME_BYTES + 1):
                if len(raw) > MAX_FRAME_BYTES:
                    return self._refuse(session, f"frame longer than {MAX_FRAME_BYTES} bytes")
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    frame = json.loads(line)
                    if not isinstance(frame, dict):
                        raise ValueError("frame must be a JSON object")
                    act = frame["act"]
                except (KeyError, ValueError) as e:     # incl. JSON and UTF-8 errors
                    return self._refuse(session, f"malformed frame: {e}")
                if act == "SCORE":
                    self._send(server.scores())
                    return
                if act == "START" and session is not None:
                    return self._refuse(session, "session already started")
                if session is None:
                    try:
                        session = server.open_session(
                            frame.get("id") if act == "START" else None)
                    except ValueError as e:
                        return self._refuse(session, str(e))
                    if act == "START":
                        self._send({"ok": True, "id": session.session_id})
                        continue
                if act == "READ":
                    self._send(server.reveal(session))
                elif act == "WRITE":
                    tok = frame.get("token")
                    if not isinstance(tok, str):
                        return self._refuse(session, "WRITE needs a string token")
                    try:
                        done = server.record_write(session, tok)
                    except ValueError as e:
                        return self._refuse(session, str(e))
                    self._send({"ok": True, "done": True} if done else {"ok": True})
                    if done:
                        return
                else:
                    return self._refuse(session, f"unknown act {act!r}")
        except OSError:     # idle timeout, reset or broken pipe: close quietly
            pass
        finally:
            if session is not None and not session.done:
                session.aborted = True

    def _refuse(self, session: EvalSession | None, message: str) -> None:
        # every refusal aborts the open session, replies, then closes
        if session is not None:
            session.aborted = True
        self._send({"error": message})

    def _send(self, obj: dict) -> None:
        self.wfile.write((json.dumps(obj) + "\n").encode("utf-8"))
        self.wfile.flush()


class EvalServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str, port: int, testset: ServerTestset):
        super().__init__((host, port), _Handler)
        self.testset = testset
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._lock = threading.Lock()
        self._next_id = 0
        self.sessions: dict[int, EvalSession] = {}
        self._thread: threading.Thread | None = None

    # -- session bookkeeping (thread safe) --------------------------------

    def open_session(self, explicit_id) -> EvalSession:
        """Raises ValueError, with the reason to report, if refused."""
        with self._lock:
            if explicit_id is None:
                sid = self._next_id
                self._next_id += 1
            elif type(explicit_id) is int:      # not a bool, float or string
                sid = explicit_id
            else:
                raise ValueError("no such sentence")
            if not 0 <= sid < len(self.testset.sources):
                raise ValueError("no such sentence" if explicit_id is not None
                                 else "testset exhausted")
            if sid in self.sessions:
                raise ValueError(f"sentence {sid} already has a session")
            src = self.testset.sources[sid]
            blocks = (AudioBlocks.of(src, self.testset.block_ms)
                      if self.testset.mode == "s2t" else None)
            session = EvalSession(session_id=sid, max_writes=2 * len(src) + 50,
                                  blocks=blocks)
            self.sessions[sid] = session
            return session

    def reveal(self, session: EvalSession) -> dict:
        """A READ's answer: the next token, or the next block with the words
        ending in it (`cascade.words_ended_by`); the end marker after."""
        src = self.testset.sources[session.session_id]
        if self.testset.mode == "t2t":
            if session.revealed >= len(src):
                return {"eos": True}
            tok = src[session.revealed]
            session.events.append(ReadEvent(index=session.revealed))
            session.revealed += 1
            return {"token": tok}
        if session.revealed >= session.blocks.n_blocks:
            return {"eos": True}
        t1 = session.blocks.consumed_ms(session.revealed + 1)
        end = words_ended_by(src, t1, session.next_word)
        words = [{"word": w.word, "start_ms": w.start_ms, "duration_ms": w.duration_ms}
                 for w in src[session.next_word:end]]
        session.next_word = end
        session.events.append(
            ReadEvent(index=session.revealed, timestamp_ms=t1))
        session.revealed += 1
        return {"block_ms": t1, "words": words}

    def record_write(self, session: EvalSession, token: str) -> bool:
        """Record a WRITE; True once it finishes the session.  A content
        token past ``session.max_writes`` raises ValueError."""
        if token != EOS_TOKEN and len(session.hyp_tokens) >= session.max_writes:
            raise ValueError(f"more than {session.max_writes} WRITEs for this sentence")
        g_ms = session.blocks.consumed_ms(session.revealed) if session.blocks else None
        session.events.append(
            WriteEvent(token=token, g_tokens=session.revealed, g_ms=g_ms))
        if token == EOS_TOKEN:
            session.done = True
            return True
        session.hyp_tokens.append(token)
        return False

    def scores(self) -> dict:
        """BLEU and mean lagging over completed sessions, by `score_runs`."""
        with self._lock:
            done = sorted(
                (s for s in self.sessions.values() if s.done and not s.aborted),
                key=lambda s: s.session_id,
            )
        if not done:
            return {"error": "no completed sessions"}
        ts = self.testset
        runs = [(s.hyp_tokens, s.trace(),
                 s.blocks.n_blocks if s.blocks else len(ts.sources[s.session_id]),
                 s.blocks.total_ms if s.blocks else None) for s in done]
        bleu, al_words, al_ms = score_runs(
            runs, [ts.references[s.session_id] for s in done], ts.detokenize)
        out = {"n_sessions": len(done), "bleu": bleu, "al_words": al_words}
        if al_ms is not None:
            out["al_ms"] = al_ms
        return out

    # -- connections -------------------------------------------------------

    def process_request(self, request, client_address) -> None:
        """Serve the connection on a thread of its own if a slot is free,
        else refuse it from the accepting thread."""
        if not self._slots.acquire(blocking=False):
            try:
                request.sendall(b'{"error": "server busy"}\n')
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:   # no thread started: it will not free the slot
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    # -- lifecycle ---------------------------------------------------------

    def start_background(self) -> None:
        # a short poll lets stop() return within 0.05 s, not serve_forever's 0.5 s
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()


def serve_eval(host: str, port: int, testset: ServerTestset) -> EvalServer:
    """Bind an evaluation server; caller starts it (foreground or background)."""
    return EvalServer(host, port, testset)


# ---------------------------------------------------------------------------
# reference wait-k client

class _Conn:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.file = self.sock.makefile("rwb")

    def call(self, frame: dict) -> dict:
        self.file.write((json.dumps(frame) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line.decode())
        if "error" in reply:
            raise RuntimeError(f"server error: {reply['error']}")
        return reply

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


def client_waitk_session(host: str, port: int, session_id: int, models,
                         policy, vocab) -> list[str]:
    """Translate one served sentence with a wait-k policy.

    Runs `online.read_write_decode` with the source on the wire, encoding
    the ids read since each write as one block.  It gives the same tokens
    and traces as `online.online_greedy_decode`, which encodes the known
    sentence in one block; log-probs differ by at most the block-split
    bound of `model.encode_prefix`.  A run the write budget truncates is
    closed with an end-of-sequence WRITE.  Returns the emitted token
    strings (end marker excluded).
    """
    conn = _Conn(host, port)

    def reads():
        while not (reply := conn.call({"act": "READ"})).get("eos"):
            yield Chunk(ids=(vocab.id(reply["token"]),), units=1)
        yield Chunk(ended=True)

    def write(token: int) -> None:
        conn.call({"act": "WRITE", "token": vocab.token(token)})

    try:
        conn.call({"act": "START", "id": session_id})
        tokens, trace = read_write_decode(models, reads(), policy, on_write=write)
        if trace.truncated:
            conn.call({"act": "WRITE", "token": EOS_TOKEN})
        return [vocab.token(t) for t in tokens]
    finally:
        conn.close()


def client_score(host: str, port: int) -> dict:
    conn = _Conn(host, port)
    try:
        return conn.call({"act": "SCORE"})
    finally:
        conn.close()
