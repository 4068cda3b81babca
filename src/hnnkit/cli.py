"""Command-line driver for reproducible experiment runs.

Exit codes: 0 success, 1 a checked property was violated (or left
unverified), 2 usage or resource errors.  Progress and wall time go to
stderr; stdout (or --out) carries only the report, whose bytes depend just
on the run configuration, not on timing.  Every command runs in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .cayley import BallCapError, OutOfBallError, build_ball, export_ball, locate
from .convexity import (ac_bound, ac_profile, check_fftp_arguments, fftp_radius,
                         fftp_search, verify_parallel_signatures)
from .hnn import HnnSpec, normal_form, verify_isometric
from .presets import UnknownPresetError, preset
from .specfile import SpecFileError, load_spec_text
from .words import WordParseError, format_word, parse_word


def _add_group_args(p: argparse.ArgumentParser):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--preset", help="name of a shipped group description")
    grp.add_argument("--spec", help="path to a group description file")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--mem-cap", type=int, default=None,
                   help="element cap for ball builds (env HNNKIT_MEM_CAP)")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hnnkit",
        description="HNN-extension normal forms, Cayley balls and convexity experiments",
    )
    ap.add_argument("--version", action="version", version=f"hnnkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the canonical form of a word")
    _add_group_args(p)
    p.add_argument("word", help="word in compact syntax, e.g. s'as")
    p.add_argument("--out")

    p = sub.add_parser("ball", help="build a Cayley ball and export it")
    _add_group_args(p)
    p.add_argument("-N", type=int, required=True, help="ball radius")
    p.add_argument("--format", default="csv", choices=["dot", "json", "csv", "table"])
    _add_common(p)

    p = sub.add_parser("ac", help="almost-convexity profile C(N)")
    _add_group_args(p)
    p.add_argument("-N", type=int, required=True, help="largest radius to profile")
    p.add_argument("--format", default="table", choices=["json", "table"])
    p.add_argument("--fftp-k", type=int, default=None,
                   help="fellow-traveler constant of the base; adds bound lines")
    _add_common(p)

    p = sub.add_parser("fftp", help="search for the fellow-traveler constant")
    _add_group_args(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--k-cap", type=int, default=6)
    p.add_argument("--include-unreduced", action="store_true",
                   help="also test words that are not freely reduced")
    p.add_argument("--format", default="table", choices=["json", "table"])
    _add_common(p)

    p = sub.add_parser("verify-isometric", help="strip-equidistant and geodesic checks")
    _add_group_args(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--format", default="table", choices=["json", "table"])
    _add_common(p)

    p = sub.add_parser("signatures", help="parallel stable-letter structure check")
    _add_group_args(p)
    p.add_argument("-N", type=int, required=True, help="ball radius to check")
    p.add_argument("--format", default="table", choices=["json", "table"])
    _add_common(p)
    return ap


def _load_group(args):
    if args.preset:
        return preset(args.preset), f"preset:{args.preset}"
    with open(args.spec) as fh:
        text = fh.read()
    return load_spec_text(text, name=os.path.basename(args.spec)), f"file:{args.spec}"


def _header(command: str, group_label: str, params: dict) -> list[str]:
    lines = [f"hnnkit {__version__}", f"command: {command}", f"group: {group_label}"]
    for k, v in params.items():
        lines.append(f"{k}: {v}")
    return lines


def _emit(args, body: bytes):
    if getattr(args, "out", None):
        with open(args.out, "wb") as fh:
            fh.write(body)
    else:
        sys.stdout.buffer.write(body)
        sys.stdout.buffer.flush()


def _report_bytes(fmt: str, header: list[str], json_payload: dict, table_lines: list[str]) -> bytes:
    if fmt == "json":
        doc = {"header": header, "report": json_payload}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    text = "\n".join("# " + line for line in header) + "\n"
    text += "\n".join(table_lines) + "\n"
    return text.encode()


def _progress(label):
    def cb(radius, count):
        print(f"{label}: radius {radius}, {count} elements", file=sys.stderr)

    return cb


def cmd_normalize(args) -> int:
    group, _label = _load_group(args)
    word = parse_word(group.alphabet, args.word)
    if isinstance(group, HnnSpec):
        nf = normal_form(group, word)
        base_ball = build_ball(group.base, 0)
        stable = [group.alphabet.letter_str(group.stable_letter_id(*m)) for m in nf.stable_markers]
        parts = []
        for pos, part in enumerate(nf.key):
            if pos % 2 == 0:
                if not group.base.is_identity(part):
                    parts.append(_geodesic_base_word(base_ball, part))
            else:
                parts.append(stable[pos // 2])
        body = ("".join(parts) + "\n" + f"signature: {' '.join(stable)}\n"
                + f"key: {group.key_str(nf.key)}\n")
    else:
        key = group.evaluate(word)
        body = format_word(group.word_of_key(key)) + "\n" + f"key: {group.key_str(key)}\n"
    _emit(args, body.encode())
    return 0


def _geodesic_base_word(base_ball, base_key) -> str:
    """Shortlex geodesic spelling of a base element, grown into the base ball."""
    base = base_ball.oracle
    if base.geodesic_length_exact(base_key) is not None:
        return format_word(base.word_of_key(base_key))
    return base_ball.label(locate(base_ball, base_key))


def cmd_ball(args) -> int:
    group, label = _load_group(args)
    ball = build_ball(group, args.N, mem_cap=args.mem_cap, progress=_progress("ball"))
    header = _header("ball", label, {"N": args.N, "format": args.format})
    if args.format == "table":
        lines = [f"radius {args.N}: {len(ball)} elements",
                 "sphere sizes: " + " ".join(str(s) for s in ball.sphere_sizes)]
        _emit(args, _report_bytes("table", header, {}, lines))
        return 0
    comment = {"dot": "// ", "csv": "# ", "json": None}[args.format]
    body = export_ball(ball, args.format)
    if comment is None:
        head = json.dumps({"header": header}, sort_keys=True).encode() + b"\n"
    else:
        head = "".join(comment + line + "\n" for line in header).encode()
    _emit(args, head + body)
    return 0


def cmd_ac(args) -> int:
    group, label = _load_group(args)
    if args.fftp_k is not None and args.fftp_k < 0:
        raise ValueError(f"--fftp-k must be >= 0, got {args.fftp_k}")
    ball = build_ball(group, args.N + 1, mem_cap=args.mem_cap, progress=_progress("ball"))
    report = ac_profile(ball, args.N)
    header = _header("ac", label, {"N": args.N})
    payload = report.to_dict()
    lines = report.table_lines()
    ok = True
    if args.fftp_k is not None:
        desc, val = ac_bound(group, args.fftp_k)
        ok = report.max_c <= val
        payload["bounds"] = {desc: {"value": val, "satisfied": ok}}
        lines.append(f"bound {desc}: {val} -> {'satisfied' if ok else 'VIOLATED'}")
    _emit(args, _report_bytes(args.format, header, payload, lines))
    return 0 if ok else 1


def cmd_fftp(args) -> int:
    group, label = _load_group(args)
    check_fftp_arguments(args.max_len, args.k_cap)
    ball = build_ball(group, fftp_radius(args.max_len, args.k_cap), mem_cap=args.mem_cap,
                      progress=_progress("ball"))
    report = fftp_search(
        ball,
        max_len=args.max_len,
        k_cap=args.k_cap,
        include_unreduced=args.include_unreduced,
    )
    header = _header(
        "fftp",
        label,
        {
            "max_len": args.max_len,
            "k_cap": args.k_cap,
            "mode": "exhaustive",  # the only search; kept so reports keep their bytes
            "include_unreduced": args.include_unreduced,
        },
    )
    _emit(args, _report_bytes(args.format, header, report.to_dict(), report.table_lines()))
    return 0 if report.verified else 1


def cmd_verify_isometric(args) -> int:
    group, label = _load_group(args)
    if not isinstance(group, HnnSpec):
        print("verify-isometric needs an HNN extension, not a base group", file=sys.stderr)
        return 2
    report = verify_isometric(group, args.max_len, mem_cap=args.mem_cap)
    header = _header("verify-isometric", label, {"max_len": args.max_len})
    lines = report.lines() + [("PASS" if report.passed else "FAIL")]
    _emit(args, _report_bytes(args.format, header, report.to_dict(), lines))
    return 0 if report.passed else 1


def cmd_signatures(args) -> int:
    group, label = _load_group(args)
    if not isinstance(group, HnnSpec):
        print("signatures needs an HNN extension, not a base group", file=sys.stderr)
        return 2
    ball = build_ball(group, args.N, mem_cap=args.mem_cap, progress=_progress("ball"))
    report = verify_parallel_signatures(ball, group)
    header = _header("signatures", label, {"N": args.N})
    _emit(args, _report_bytes(args.format, header, report.to_dict(), report.table_lines()))
    return 0 if report.passed else 1


_COMMANDS = {
    "normalize": cmd_normalize,
    "ball": cmd_ball,
    "ac": cmd_ac,
    "fftp": cmd_fftp,
    "verify-isometric": cmd_verify_isometric,
    "signatures": cmd_signatures,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    t0 = time.time()
    try:
        rc = _COMMANDS[args.command](args)
    except (BallCapError, OutOfBallError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except (UnknownPresetError, SpecFileError, WordParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall time: {time.time() - t0:.2f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
