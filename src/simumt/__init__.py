"""Desk-scale simultaneous machine translation.

A wait-k transformer with a causal encoder and incremental decoding, a
simulated ASR+MT cascade with configurable endpointing, latency metrics
(average lagging in tokens and milliseconds) next to corpus BLEU, a
latency-quality sweep, and a line-JSON streaming evaluation service.
"""
from .vocab import BOS, EOS, PAD, UNK, Vocabulary
from .corpus import SentencePair, gen_toy_corpus, toy_vocabulary
from .bpe import BpeModel, train_bpe
from .model import (DecoderState, EncoderState, ModelConfig, Parameters,
                    decode_step, desk_config, encode_prefix,
                    init_parameters, load_checkpoint, save_checkpoint)
from .training import (INFINITE_K, LossConfig, grad_check, label_smoothed_nll,
                       lr_at, multi_path_loss, path_loss, train, wait_k_z)
from .online import (ActionTrace, OnlinePolicy, ReadEvent, WriteEvent,
                     ensemble_logprobs, offline_greedy_decode,
                     online_greedy_decode)
from .cascade import (AsrSnapshot, CascadeConfig, CascadeMT, EndpointRule,
                      TimedWord, cascade_decode, detect_endpoint,
                      segment_stream)
from .metrics import (BleuBreakdown, average_lagging_ms, average_lagging_words,
                      corpus_bleu)
from .normalize import asr_normalize, build_number_lexicon
from .sweep import TradeoffRecord, sweep_t2t
from .server import ServerTestset, serve_eval

__version__ = "0.1.0"
