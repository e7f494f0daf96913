"""Command-line driver: run certificate checks from configs or the catalog.

A config passes CONFIG_SCHEMA, then each check item's keys are checked
against the catalog's check table: a misspelt key is an error, not a default.

Exit codes: 0 when every check lands in the positive verdict class (or, for
a bare --example run, when every check matches its expected verdict), 1 when
any check is refuted/failed, 2 when none failed but some are inconclusive,
3 for errors (malformed config, unknown names, I/O).  Any exception raised
while parsing or running a config also exits 3, with one line
`error: <Type>: <message>` on stderr and nothing on stdout, so a crash can
never read as a verdict.

Identical inputs produce byte-identical output in every format; reports
carry no timestamps and all floats are serialized at fixed precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

import jsonschema

from . import catalog
from .reports import CertificateReport, verdict_exit_code
from .sequences import TEMPLATES

_SEQ_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "oneOf": [
        {"properties": {"kind": {"const": "constant"},
                        "value": {"type": "number"}},
         "required": ["kind", "value"],
         "additionalProperties": False},
        {"properties": {"kind": {"const": "blocks"},
                        "template": {"enum": sorted(TEMPLATES)},
                        "params": {"type": "object"},
                        "origin": {"type": "integer"},
                        "direction": {"enum": [1, -1]}},
         "required": ["kind", "template", "origin", "direction"],
         "additionalProperties": False},
        {"properties": {"kind": {"const": "split"},
                        "at": {"type": "integer"},
                        "left": {"$ref": "#/$defs/seq"},
                        "right": {"$ref": "#/$defs/seq"}},
         "required": ["kind", "left", "right"],
         "additionalProperties": False},
    ],
}

# Sequences sit in place; the $ref serves only the recursion inside split
# (resolving a $ref costs about a tenth of validating a catalog config).
CONFIG_SCHEMA = {
    "$defs": {"seq": _SEQ_SCHEMA},
    "type": "object",
    "required": ["schema_version", "index_set", "space", "weights"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "name": {"type": "string"},
        "index_set": {"enum": ["N", "Z"]},
        "space": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["lp", "c0", "s", "kothe"]},
                "p": {"type": "number", "minimum": 0},
                "metric_depth": {"type": "integer", "minimum": 1, "maximum": 64},
                "nu": {"oneOf": [_SEQ_SCHEMA, {"type": "null"}]},
                "rows": {
                    "type": "object",
                    "required": ["rule", "base"],
                    "additionalProperties": False,
                    "properties": {
                        "rule": {"enum": ["constant", "power"]},
                        "base": _SEQ_SCHEMA,
                    },
                },
            },
        },
        "weights": {
            "type": "object",
            "oneOf": [
                {"required": ["entries"]},
                {"required": ["negative", "nonnegative"]},
            ],
            "properties": {
                "entries": _SEQ_SCHEMA,
                "negative": _SEQ_SCHEMA,
                "nonnegative": _SEQ_SCHEMA,
            },
            "additionalProperties": False,
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind"],
                "properties": {"kind": {"enum": list(catalog.CHECK_KINDS)}},
            },
        },
    },
}


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes >= 3 for usage errors
        raise CLIError(message)


def validate_config(doc: Any) -> None:
    """The schema, then each check item's keys (and those of its blocks)
    against its kind's entry in catalog.CHECK_KEYS."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise CLIError(f"config rejected at {where}: {e.message}")
    for i, item in enumerate(doc.get("checks", [])):
        for block, keys in catalog.CHECK_KEYS[item["kind"]].items():
            node = item if block is None else item.get(block)
            unknown = sorted(set(node) - keys) if isinstance(node, dict) else []
            if unknown:
                where = f"checks/{i}" if block is None else f"checks/{i}/{block}"
                raise CLIError(f"config rejected at {where}: unknown key "
                               f"{unknown[0]!r}; accepted: {', '.join(sorted(keys))}")


def _apply_horizon(node: Any, horizon: int) -> Any:
    if isinstance(node, dict):
        return {k: (horizon if k == "horizon" else _apply_horizon(v, horizon))
                for k, v in node.items()}
    if isinstance(node, list):
        return [_apply_horizon(v, horizon) for v in node]
    return node


def _render(name: str, reports: Sequence[CertificateReport], fmt: str) -> str:
    if fmt == "json":
        doc = {"name": name, "checks": [r.to_dict() for r in reports]}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        parts = [f"# {name}"]
        for r in reports:
            parts.append(f"# check={r.kind} verdict={r.verdict}")
            parts.append(r.to_csv().rstrip("\n"))
        return "\n".join(parts) + "\n"
    parts = [f"run: {name}"]
    for r in reports:
        parts.append(r.to_text().rstrip("\n"))
    return "\n\n".join(parts) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _combined_exit(reports: Sequence[CertificateReport]) -> int:
    codes = [verdict_exit_code(r.verdict) for r in reports]
    if any(c >= 3 for c in codes):
        return 3
    if any(c == 1 for c in codes):
        return 1
    if any(c == 2 for c in codes):
        return 2
    return 0


def _cmd_run(args) -> int:
    if bool(args.config) == bool(args.example):
        raise CLIError("choose exactly one of --config or --example")
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CLIError(f"cannot read config {args.config}: {exc}")
        validate_config(doc)
        name = doc.get("name", "config")
        checks = doc.get("checks", [])
        suite_mode = False
    else:
        doc = catalog.export_config(args.example)
        name = args.example
        checks = doc.get("checks", [])
        suite_mode = args.check is None
    if suite_mode:
        # expected-verdict comparison over the whole entry
        report = catalog.run_expected_suite(args.example)
        _emit(_render(name, [report], args.format), args.out)
        return 0 if report.verdict == "agrees" else 1
    if args.check:
        checks = [c for c in checks if c.get("kind") == args.check]
        if not checks:
            raise CLIError(f"no check of kind {args.check!r} in {name}")
    if not checks:
        raise CLIError(f"{name} declares no checks; use --check or add a "
                       "checks section")
    if args.horizon is not None:
        checks = [_apply_horizon(c, args.horizon) for c in checks]
    op = catalog.operator_from_config(doc)
    reports = [catalog.run_check(op, c) for c in checks]
    _emit(_render(name, reports, args.format), args.out)
    return _combined_exit(reports)


def _cmd_export(args) -> int:
    doc = catalog.export_config(args.example)
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_list(args) -> int:
    lines = [f"{e.name}: {e.description}" for e in
             (catalog.get(n) for n in catalog.names())]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftchaos",
                     description="finite-horizon chaos certificates for "
                                 "weighted backward shifts")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run checks from a config or catalog entry")
    run.add_argument("--config", help="path to a JSON config document")
    run.add_argument("--example", choices=catalog.names(),
                     help="catalog entry name")
    run.add_argument("--check", choices=catalog.CHECK_KINDS,
                     help="run only checks of this kind")
    run.add_argument("--horizon", type=int,
                     help="override horizon fields in the selected checks")
    run.add_argument("--out", help="write output to this path instead of stdout")
    run.add_argument("--format", choices=("report", "csv", "json"),
                     default="report")
    run.set_defaults(func=_cmd_run)

    export = sub.add_parser("export", help="print a catalog entry as a config")
    export.add_argument("--example", required=True, choices=catalog.names())
    export.add_argument("--out")
    export.set_defaults(func=_cmd_export)

    lst = sub.add_parser("list", help="list catalog entries")
    lst.add_argument("--out")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
