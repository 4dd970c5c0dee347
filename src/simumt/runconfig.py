"""Run configuration: defaults, config file, command line, in that order.

Every resolved value remembers where it came from, and every output file
starts with a comment line embedding the resolved config and the sha256
of each input file, so results stay attributable to exact settings.
Unknown keys anywhere are an error rather than a silent ignore.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

PROVENANCE_DEFAULT = "default"
PROVENANCE_FILE = "config_file"
PROVENANCE_FLAG = "flag"


@dataclass(frozen=True)
class RunConfig:
    values: dict
    provenance: dict  # key -> one of the PROVENANCE_* strings

    def __getitem__(self, key: str):
        return self.values[key]

    def to_dict(self) -> dict:
        return {"values": dict(self.values), "provenance": dict(self.provenance)}


def resolve_config(defaults: Mapping, file_values: Mapping | None = None,
                   flag_values: Mapping | None = None) -> RunConfig:
    """Later layers win: defaults < config file < flags.

    A key in a file or flag layer that is not in ``defaults`` raises
    ValueError (misspellings must not pass silently), and so does a value
    whose type differs from its default's (`_same_type`).  Flag values of
    None mean "not given" and are skipped.
    """
    values = dict(defaults)
    provenance = {k: PROVENANCE_DEFAULT for k in defaults}
    for layer, tag in ((file_values, PROVENANCE_FILE), (flag_values, PROVENANCE_FLAG)):
        if not layer:
            continue
        unknown = sorted(set(layer) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for k, v in layer.items():
            if tag == PROVENANCE_FLAG and v is None:
                continue
            if not _same_type(v, defaults[k]):
                raise ValueError(f"config {k}={v!r} is not {type(defaults[k]).__name__} "
                                 f"like its default {defaults[k]!r}")
            values[k] = v
            provenance[k] = tag
    return RunConfig(values=values, provenance=provenance)


def _same_type(value, default) -> bool:
    """Whether ``value`` may replace ``default``: a value of the default's
    type, except that a float default also takes an int, and a bool is
    never taken for a number.  A None default takes anything; the code
    that reads the key checks it."""
    if default is None:
        return True
    if isinstance(default, float) and type(value) is int:
        return True
    return type(value) is type(default)


def parse_json(text: str | bytes):
    """``json.loads(text)`` under the one rule for JSON read from outside:
    every malformed input raises ValueError, including input nested past
    the recursion limit, which json raises as RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as e:
        raise ValueError("JSON nested too deeply") from e


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as f:
        obj = parse_json(f.read())
    if not isinstance(obj, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return obj


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_header(config: RunConfig | dict, input_paths: Mapping | None = None) -> str:
    """One '# '-prefixed JSON line tying an output to its settings and inputs.

    ``input_paths`` maps a role name to a file path; each is hashed.
    """
    cfg = config.to_dict() if isinstance(config, RunConfig) else dict(config)
    inputs = {}
    if input_paths:
        inputs = {role: {"path": str(p), "sha256": file_sha256(p)}
                  for role, p in input_paths.items()}
    return "# " + json.dumps({"config": cfg, "inputs": inputs}, sort_keys=True)

