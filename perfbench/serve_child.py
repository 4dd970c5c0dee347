"""The `serve` workload's server process.

Builds the s2t test set from the workload seed, then obeys one command per
line on stdin and answers one line on stdout:

    (on start)                                            -> "ready <echo port>"
    new <0|1>   start a fresh EvalServer (traced when 1)  -> "port <n>"
    state       sessions of the current server           -> {"done": .., "aborted": ..}
    quit        stop every server                         -> final report (JSON)

Each measured round gets a fresh server, so its SCORE covers exactly the
round's sessions and session ids are never reused.  End of input counts as
quit.  Started by `workloads.ServerChild`; not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import socketserver
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from simumt import server as S  # noqa: E402

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


def patch_server(tracer: Tracer) -> None:
    frame = lambda _result: tracer.count("frames")  # noqa: E731
    by_session = lambda name: (lambda a, kw: (name, 0, a[1].session_id))  # noqa: E731
    tracer.patch(S.EvalServer, "open_session", "server.open_session", observe=frame)
    tracer.patch(S.EvalServer, "reveal", "", by_session("server.reveal"), observe=frame)
    tracer.patch(S.EvalServer, "record_write", "", by_session("server.record_write"),
                 observe=frame)
    tracer.patch(S.EvalServer, "scores", "server.scores", observe=frame)


class _Echo(socketserver.StreamRequestHandler):
    """Answers every JSON line with a JSON line: the socket, thread and
    JSON handling of EvalServer's frames, with no simumt work behind them."""

    def handle(self) -> None:
        for line in self.rfile:
            frame = json.loads(line)
            self.wfile.write((json.dumps({"echo": frame, "words": []}) + "\n").encode())
            self.wfile.flush()


class EchoServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    testset = W.serve_testset(W.speech_documents(args.seed))
    tracer = Tracer()
    tracer.phase = "serve"
    current: S.EvalServer | None = None
    traced = False
    stoppers: list[threading.Thread] = []

    def reply(text: str) -> None:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()

    def retire(server: S.EvalServer | None) -> None:
        # shutdown() waits up to one poll interval; do not make the next round wait
        if server is not None:
            t = threading.Thread(target=server.stop)
            t.start()
            stoppers.append(t)

    echo = EchoServer(("127.0.0.1", 0), _Echo)
    echo_thread = threading.Thread(target=echo.serve_forever, daemon=True)
    echo_thread.start()
    reply(f"ready {echo.server_address[1]}")
    try:
        for line in sys.stdin:
            cmd = line.split()
            if not cmd:
                continue
            if cmd[0] == "new":
                retire(current)
                tracer.unpatch_all()
                traced = cmd[1] == "1"
                if traced:
                    patch_server(tracer)
                current = S.serve_eval("127.0.0.1", 0, testset)
                current.start_background()
                reply(f"port {current.server_address[1]}")
            elif cmd[0] == "state":
                sessions = list(current.sessions.values()) if current else []
                done = sum(s.done and not s.aborted for s in sessions)
                aborted = sum(s.aborted for s in sessions)
                if traced:
                    tracer.count("sessions_done", done)
                    tracer.count("sessions_aborted", aborted)
                reply(json.dumps({"done": done, "aborted": aborted}))
            elif cmd[0] == "quit":
                break
            else:
                reply(json.dumps({"error": f"unknown command {cmd[0]!r}"}))
    finally:
        retire(current)
        echo.shutdown()
        echo.server_close()
        for t in stoppers:
            t.join(timeout=10)
        tracer.unpatch_all()
    report = tracer.export()
    if report["spans"]:
        os.makedirs(args.out_dir, exist_ok=True)
        tracer.write_spans(Path(args.out_dir) / f"spans-serve-child-{args.seed}.jsonl")
    del report["spans"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["maxrss_mb"] = usage.ru_maxrss / 1024.0
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    try:
        reply(json.dumps(report))
    except BrokenPipeError:      # the parent is gone; nobody to report to
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
