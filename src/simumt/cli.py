"""Command-line front end.

Subcommands: gen-data, train, translate, cascade, segment, sweep, serve,
grad-check.  Exit status 0 on success, 1 for usage and input validation
problems (unknown flags, missing files, malformed configs), 2 for runtime
failures (training divergence, lost connections).

The train pipeline is text in, artifacts out: learn a joint subword model
on both sides of the corpus, encode, train, and write checkpoint, subword
model, resolved config, and a CSV training log, each stamped with the
config and input hashes that produced it.  SIMUMT_CONFIG names a default
config file used when --config is not given.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bpe as bpe_mod
from . import cascade as casc
from . import corpus as corp
from . import model, online, runconfig, server, sweep, training
from .vocab import EOS

CONFIG_ENV_VAR = "SIMUMT_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _parse_k_list(text: str) -> list[float]:
    out: list[float] = []
    for part in text.split(","):
        part = part.strip()
        if part in ("inf", "INF", "infinity"):
            out.append(math.inf)
        else:
            out.append(int(part))
    if not out:
        raise UsageError("empty k list")
    return out


def _parse_rule(text: str) -> casc.EndpointRule:
    fields = text.split(":")
    if len(fields) == 2:
        return casc.EndpointRule(fields[0], float(fields[1]))
    if len(fields) == 3:
        return casc.EndpointRule(fields[0], float(fields[1]),
                                 cost_threshold=float(fields[2]))
    raise UsageError(f"bad endpoint rule {text!r}; use kind:t or b:t:c")


def _load_models(paths: list[str]) -> list[model.Parameters]:
    return [model.load_checkpoint(p) for p in paths]


def _system_ids(paths: list[str], reserved: str | None) -> list[str]:
    """A sweep system id per checkpoint path, one id for a path given
    twice: its file stem, or where another path or ``reserved`` has that
    stem, the shortest path suffix (file stem last) they do not share."""
    parts = {k: Path(k).parent.parts + (Path(k).stem,) for k in map(os.path.abspath, paths)}
    ids = {}
    for k, own in parts.items():
        others = [p for o, p in parts.items() if o != k] + [(reserved,)]
        n = next(n for n in range(1, len(own) + 1) if all(p[-n:] != own[-n:] for p in others))
        ids[k] = Path(*own[-n:]).as_posix()
    return [ids[os.path.abspath(p)] for p in paths]


def _policy(args) -> online.OnlinePolicy:
    k = _parse_k_list(args.k)
    if len(k) != 1:
        raise UsageError("this command takes a single k")
    return online.OnlinePolicy(k_eval=k[0])


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_data(args) -> int:
    pairs = corp.gen_toy_corpus(args.seed, args.n_pairs, args.task)
    vocab = corp.toy_vocabulary(args.task)
    corp.write_corpus_file(pairs, vocab, args.out, fmt=args.format)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


TRAIN_DEFAULTS = {
    "d_model": 64,
    "n_heads": 4,
    "n_enc_layers": 2,
    "n_dec_layers": 2,
    "d_ffn": 128,
    "mode": "multi_path",
    "k": None,
    "smoothing_eps": 0.1,
    "epochs": 5,
    "seed": 0,
    "batch_size": 32,
    "base_lr": 0.05,
    "warmup_steps": 400,
    "bpe_vocab_size": 200,
    "max_len_ratio": 9.0,
    "n_dev": 200,
}


def _cmd_train(args) -> int:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    file_values = runconfig.load_config_file(config_path) if config_path else None
    flag_values = {
        "epochs": args.epochs, "seed": args.seed, "mode": args.mode,
        "k": args.waitk, "batch_size": args.batch_size,
        "bpe_vocab_size": args.bpe_size, "n_dev": args.n_dev,
        "base_lr": args.base_lr, "warmup_steps": args.warmup_steps,
    }
    cfg = runconfig.resolve_config(TRAIN_DEFAULTS, file_values, flag_values)

    text_pairs = corp.load_parallel_text(args.corpus)
    if not text_pairs:
        raise ValueError(f"no sentence pairs in {args.corpus}")
    lines = [s for s, _ in text_pairs] + [t for _, t in text_pairs]
    subword = bpe_mod.train_bpe(lines, cfg["bpe_vocab_size"])
    pairs = corp.encode_pairs(text_pairs, subword.encode, subword.encode)
    pairs = corp.filter_length_ratio(pairs, cfg["max_len_ratio"])
    if len(pairs) <= cfg["n_dev"]:
        raise ValueError("corpus too small for the requested dev split")
    train_pairs, dev_pairs = corp.split_corpus(pairs, cfg["n_dev"])

    mcfg = model.ModelConfig(
        vocab_size=len(subword.vocab), d_model=cfg["d_model"], n_heads=cfg["n_heads"],
        n_enc_layers=cfg["n_enc_layers"], n_dec_layers=cfg["n_dec_layers"],
        d_ffn=cfg["d_ffn"],
    )
    params = model.init_parameters(mcfg, seed=cfg["seed"])
    k = cfg["k"]
    loss_cfg = training.LossConfig(
        mode=cfg["mode"],
        k=math.inf if k in ("inf", math.inf) else k,
        smoothing_eps=cfg["smoothing_eps"],
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = runconfig.artifact_header(cfg, {"corpus": args.corpus})

    def log(stats: training.EpochStats) -> None:
        print(f"epoch {stats.epoch}: train {stats.train_loss:.4f} "
              f"dev {stats.dev_loss:.4f} lr {stats.lr:.5f}")

    result = training.train(
        params, train_pairs, dev_pairs, loss_cfg,
        epochs=cfg["epochs"], seed=cfg["seed"], batch_size=cfg["batch_size"],
        base_lr=cfg["base_lr"], warmup_steps=cfg["warmup_steps"], log=log,
    )
    subword.save(out_dir / "bpe.model")
    model.save_checkpoint(result.params, out_dir / "model.ckpt")
    training.save_training_log(result.history, out_dir / "train_log.csv", header)
    with open(out_dir / "config.json", "w", encoding="utf-8") as f:
        json.dump({"resolved": cfg.to_dict(),
                   "inputs": {"corpus": runconfig.file_sha256(args.corpus)}}, f,
                  indent=2)
    print(f"best epoch {result.best_epoch}; artifacts in {out_dir}")
    return 0


def _cmd_translate(args) -> int:
    models = _load_models(args.model)
    subword = bpe_mod.BpeModel.load(args.bpe)
    policy = _policy(args)
    records = []
    with open(args.input, encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    for i, line in enumerate(lines):
        src = subword.encode(line)
        tokens, trace = online.online_greedy_decode(models, src, policy)
        records.append({
            "id": i,
            "tokens": [subword.vocab.token(t) for t in tokens],
            "detok": subword.decode(tokens),
            "trace": online.trace_to_wire(trace),
        })
    header = runconfig.artifact_header(
        {"k": args.k, "models": args.model}, {"input": args.input})
    online.write_hypotheses(args.out, records, header)
    print(f"translated {len(records)} sentences to {args.out}")
    return 0


def _cmd_cascade(args) -> int:
    models = _load_models(args.model)
    subword = bpe_mod.BpeModel.load(args.bpe)
    rules = tuple(_parse_rule(r) for r in args.rule) if args.rule \
        else tuple(casc.default_endpoint_rules())
    cfg = casc.CascadeConfig(sz=args.sz, alpha=args.alpha, beta=args.beta,
                             endpoint_rules=rules, block_ms=args.block_ms)
    mt = casc.CascadeMT(models=models, encode_source=subword.encode)
    docs = casc.load_timed_streams(args.stream)
    records = []
    for i, doc in enumerate(docs):
        res = casc.cascade_decode(doc, mt, cfg)
        records.append({
            "id": i,
            "tokens": [subword.vocab.token(t) for t in res.tokens],
            "detok": subword.decode(res.tokens),
            "trace": online.trace_to_wire(res.trace),
            "truncated": res.truncated,
        })
    header = runconfig.artifact_header(
        {"sz": args.sz, "alpha": args.alpha, "beta": args.beta,
         "block_ms": args.block_ms}, {"stream": args.stream})
    online.write_hypotheses(args.out, records, header)
    print(f"decoded {len(records)} streams to {args.out}")
    return 0


def _cmd_segment(args) -> int:
    docs = casc.load_timed_streams(args.input)
    segments: list[casc.Segment] = []
    for doc in docs:
        segments.extend(casc.segment_stream(
            doc, theta_long=args.theta_long, theta_short=args.theta_short,
            max_words=args.max_words))
    casc.save_segments(segments, args.out)
    print(f"wrote {len(segments)} segments to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    subword = bpe_mod.BpeModel.load(args.bpe)
    text_pairs = corp.load_parallel_text(args.testset)
    if not text_pairs:
        raise ValueError(f"no sentence pairs in {args.testset}")
    testset = sweep.Testset(
        sources=[subword.encode(s) for s, _ in text_pairs],
        references=[t for _, t in text_pairs],
        detokenize=subword.decode,
    )
    models = _load_models(args.model)
    ensemble = args.ensemble and len(models) > 1
    ids = _system_ids(args.model, "ensemble" if ensemble else None)
    systems = [sweep.T2TSystem(system_id=i, models=[models[ids.index(i)]])
               for i in dict.fromkeys(ids)]
    if ensemble:
        systems.append(sweep.T2TSystem(system_id="ensemble", models=models))
    records = sweep.sweep_t2t(systems, _parse_k_list(args.k), testset)
    header = runconfig.artifact_header(
        {"k": args.k, "models": args.model}, {"testset": args.testset})
    sweep.emit_plotdata(records, args.out, header)
    print(f"wrote {len(records)} tradeoff rows to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    host, _, port = args.bind.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise UsageError(f"bad --bind {args.bind!r}; use host:port, port 0-65535")
    subword = bpe_mod.BpeModel.load(args.bpe)
    text_pairs = corp.load_parallel_text(args.testset)
    testset = server.ServerTestset(
        mode="t2t",
        sources=[subword.encode_tokens(s) for s, _ in text_pairs],
        references=[t for _, t in text_pairs],
        detokenize=subword.detokenize,
    )
    srv = server.serve_eval(host, int(port), testset)
    print(f"serving {len(text_pairs)} sentences on {host}:{port}")
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
    return 0


def _cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    cfg = model.ModelConfig(vocab_size=12, d_model=16, n_heads=2, n_enc_layers=1,
                            n_dec_layers=1, d_ffn=24)
    params = model.init_parameters(cfg, seed=args.seed)
    src = tuple(int(v) for v in rng.integers(4, 12, size=5))
    tgt = tuple(int(v) for v in rng.integers(4, 12, size=4)) + (EOS,)
    pair = corp.SentencePair(source=src, target=tgt)

    def loss_fn(p):
        return training.path_loss(p, pair, k=2, want_grads=True)

    report = training.grad_check(params, loss_fn, n_probes=args.probes,
                                 tol=args.tol, seed=args.seed)
    name, idx, analytic, numeric = report.worst
    print(f"max rel err {report.max_rel_err:.3e} over {report.n_probes} probes "
          f"(tol {report.tol:.1e})")
    print(f"worst: {name}{list(idx)} analytic {analytic:.6e} numeric {numeric:.6e}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def cli(argv: list[str]) -> int:
    parser = _Parser(prog="simumt", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-data", help="write a synthetic text corpus")
    p.add_argument("--task", required=True, choices=corp.TOY_TASKS)
    p.add_argument("--n-pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a wait-k model on a text corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help=f"JSON config (default ${CONFIG_ENV_VAR})")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=("single_k", "multi_path"))
    p.add_argument("--waitk", type=int, help="k for single_k mode")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--bpe-size", type=int)
    p.add_argument("--n-dev", type=int)
    p.add_argument("--base-lr", type=float)
    p.add_argument("--warmup-steps", type=int)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("translate", help="wait-k decode a file of sentences")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("cascade", help="decode timed word streams")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sz", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=5.0)
    p.add_argument("--block-ms", type=float, default=100.0)
    p.add_argument("--rule", action="append",
                   help="endpoint rule kind:t or b:t:c (repeatable)")
    p.set_defaults(fn=_cmd_cascade)

    p = sub.add_parser("segment", help="split timed streams at silences")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta-long", type=float, default=0.65)
    p.add_argument("--theta-short", type=float, default=0.15)
    p.add_argument("--max-words", type=int, default=40)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("sweep", help="latency-quality tradeoff over a k list")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--bpe", required=True)
    p.add_argument("--testset", required=True)
    p.add_argument("--k", required=True, help="comma list, e.g. 1,3,5,inf")
    p.add_argument("--ensemble", action="store_true",
                   help="also sweep the ensemble of all --model checkpoints")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("serve", help="run the streaming evaluation service")
    p.add_argument("--bind", required=True, help="host:port")
    p.add_argument("--bpe", required=True)
    p.add_argument("--testset", required=True)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=_cmd_grad_check)

    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.fn(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError) as e:
        print(f"simumt: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"simumt: {e}", file=sys.stderr)
        return 1
    except (training.TrainingDiverged, FloatingPointError, ConnectionError,
            OSError, RuntimeError) as e:
        print(f"simumt: runtime failure: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
