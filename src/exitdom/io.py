"""Self-describing CSV/JSON emission shared by the CLI subcommands."""

from __future__ import annotations

import json
import os
from fractions import Fraction

SCHEMA_VERSION = 1
OUTDIR_ENV = "EXITDOM_OUTDIR"

# keys that describe the execution environment rather than the experiment;
# excluded from embedded headers so reruns are byte-identical across them
_EXECUTION_KEYS = {"outdir", "threads", "config"}


def resolve_outdir(flag_value: str | None) -> str:
    if flag_value:
        return flag_value
    return os.environ.get(OUTDIR_ENV, ".")


def fmt_cell(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        # shortest round-trip form; integral values drop the trailing ".0",
        # and nan and inf print as such
        if v.is_integer() and abs(v) < 1e16:
            return str(int(v))
        return repr(float(v))
    return str(v)


def embeddable_config(config: dict) -> dict:
    return {k: config[k] for k in sorted(config) if k not in _EXECUTION_KEYS}


def config_header(config: dict) -> str:
    """The ``# key = value`` comment lines that open every text output file."""
    return "".join(f"# {k} = {fmt_cell(v)}\n"
                   for k, v in embeddable_config(config).items())


def write_csv(path: str, columns: list[str], rows, config: dict) -> None:
    with open(path, "w") as fh:
        fh.write(config_header(config))
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(v) for v in row) + "\n")


def write_json(path: str, payload: dict, config: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION,
           "config": {k: fmt_cell(v) for k, v in embeddable_config(config).items()}}
    doc.update(payload)
    # a NaN or an infinity is a ValueError here, before the file is opened:
    # the file must parse as standard JSON
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` file, UTF-8, '#' comments, keys match flag names."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
