"""Command-line front end: run verifications and emit reports.

Commands map one-to-one onto the library entry points: `epr-test` checks
the pair statistics of one wire, `circuit-test` runs the full protocol,
`extract` certifies state or gate equivalence, `tomo` reconstructs the
pair state a wire presents through its own frames, and `gallery` lists
the built-in devices. Exit code 0 means accept, 1 reject, 2 bad usage
or configuration. With identical configuration, seed and BLAS thread
count the JSON report is byte-identical between runs. One encoder, the
standard library's, writes every report; a verdict's record lists are
written from its columns and spliced into the report's text, not encoded
as values. A report is joined and written a bounded chunk of its parts at
a time, never held whole.

Importing this module loads only devices (with hilbert) and errors, which
every command uses. Each runner imports the library modules it runs when it
runs: protocol (and with it stats) for `epr-test` and `circuit-test`,
extraction (and with it stats) for `extract` and `tomo`, none for `gallery`.
So a process compiles and runs only the source its command needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from . import devices as dv
from .errors import ConfigError, QSelfTestError

if TYPE_CHECKING:  # the annotations' names; each runner imports what it runs
    from . import protocol as pr

_MAX_TABLE_ROWS = 400


@dataclass(frozen=True)
class RunConfig:
    """Resolved flags for one invocation; embedded verbatim in reports."""

    command: str
    device: str | None = None
    circuit: str | None = None
    x: str | None = None
    wire: int = 0
    eps: float = 0.1
    gamma: float = 0.05
    seed: int | None = None
    mode: str = "exact"
    out: str | None = None
    force_y: str | None = None
    gate_index: int | None = None

    def validate(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"--eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"--gamma must lie in (0, 1), got {self.gamma}")
        if self.mode == "sampled" and self.seed is None:
            raise ConfigError("--seed is required when --mode sampled")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError(f"--seed must be a 64-bit value, got {self.seed}")
        if self.out is not None:
            # open() would raise ValueError on a NUL, and UnicodeEncodeError
            # on a lone surrogate, only after the run, and neither is a
            # config error
            if "\0" in self.out:
                raise ConfigError(f"--out must not contain a NUL character, got {self.out!r}")
            try:
                os.fsencode(self.out)
            except UnicodeEncodeError:
                raise ConfigError(
                    f"--out is not a file name this system can encode, got {self.out!r}"
                ) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then shared by every
    later one. parse_args leaves it as it was, so no call sees another's."""
    parser = argparse.ArgumentParser(
        prog="qselftest",
        description="verify untrusted quantum devices from their statistics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--device",
            required=True,
            help="device JSON path or builtin:name[?k=v]",
        )
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--out", default=None, help="write the JSON report here")

    def sampling(p):
        p.add_argument("--gamma", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=("exact", "sampled"), default="exact")

    p = sub.add_parser("epr-test", help="check one wire's pair statistics")
    common(p)
    sampling(p)
    p.add_argument("--wire", type=int, default=0)

    p = sub.add_parser("circuit-test", help="run the full verification protocol")
    common(p)
    sampling(p)
    p.add_argument("--circuit", required=True, help="circuit JSON path")
    p.add_argument("--x", default=None,
                   help="input bit string (default: the circuit file's input)")
    p.add_argument("--force-y", dest="force_y", default=None,
                   help="pin the drawn collapse outcome (testing aid)")

    p = sub.add_parser("extract", help="certify state or gate equivalence")
    common(p)
    p.add_argument("--wire", type=int, default=0)
    p.add_argument("--circuit", default=None)
    p.add_argument("--gate-index", dest="gate_index", type=int, default=None,
                   help="1-based gate to certify; needs --circuit")

    p = sub.add_parser("tomo", help="reconstruct the pair state of one wire")
    common(p)
    p.add_argument("--wire", type=int, default=0)

    sub.add_parser("gallery", help="list built-in devices")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {
        k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__
    }
    cfg = RunConfig(**fields)
    cfg.validate()
    return cfg


def _load_circuit_arg(cfg: RunConfig) -> dv.IdealCircuit:
    if cfg.circuit is None:
        raise ConfigError("--circuit is required for this command")
    return dv.load_circuit(cfg.circuit)


def _print_table(
    rows: list[tuple[str, str, float, float, float, bool]],
    hidden: int = 0,
    hidden_failing: int = 0,
) -> None:
    """The rows, in columns as wide as they need, then the hidden rows the
    caller only counted as one line: their count and how many of them fail.
    The table is printed with one print."""
    header = ("experiment", "setting", "ideal", "estimated", "deviation", "pass")
    w0, w1 = (max([len(header[i])] + [len(r[i]) for r in rows]) for i in (0, 1))
    lines = ["%-*s  %-*s  %10s  %10s  %10s  %s" % (w0, header[0], w1, *header[1:])]
    fmt = "%-*s  %-*s  %10.6f  %10.6f  %10.6f  %s"
    for label, setting, ideal, est, dev, ok in rows:
        lines.append(fmt % (w0, label, w1, setting, ideal, est, dev, "ok" if ok else "FAIL"))
    if hidden:
        lines.append(f"... {hidden} more rows ({hidden_failing} failing)")
    print("\n".join(lines))


def _setting_text(branches) -> str:
    return " ".join(f"{side}{wire}@{dv.ANGLE_NAMES[a]}" for side, wire, a in branches)


def _verdict_rows(verdict: pr.Verdict):
    """Table rows of the first _MAX_TABLE_ROWS records, then the count of
    the other records and of the failing ones among them. Only the shown
    rows' experiments get setting texts, made once per experiment shape
    (kind and wires)."""
    recs = verdict.records
    shown = min(len(recs), _MAX_TABLE_ROWS)
    shapes: dict[tuple, list[str]] = {}
    heads = []
    for label, exp in zip(verdict.labels, recs.experiments):
        if len(heads) == shown:
            break
        key = (exp.kind, exp.wires)
        texts = shapes.get(key)
        if texts is None:
            texts = shapes[key] = [_setting_text(b) for b in exp.branches]
        heads += zip(repeat(label), texts[: shown - len(heads)])
    eps = verdict.eps
    rows = [
        (label, text, ideal, est, dev, dev <= eps)
        for (label, text), ideal, est, dev in zip(
            heads,
            recs.ideal_p[:shown].tolist(),
            recs.est_p[:shown].tolist(),
            recs.deviation[:shown].tolist(),
        )
    ]
    return rows, len(recs) - shown, int(np.count_nonzero(verdict.failing >= shown))


# json.dumps(obj, sort_keys=True, indent=2) without the checks for cycles:
# every report is a tree of fresh dicts and lists, built once per run
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, check_circular=False)


def _dumps(obj, depth: int = 0) -> str:
    """The stdlib's JSON text of obj, as the text of a value at depth: each
    line after the first is indented by depth more levels. JSON escapes
    every newline inside a string, so each one in the text starts a line."""
    text = _ENCODER.encode(obj)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


# a placeholder value: in the text of a blank record or list, its text,
# "\u0000", marks where a record's or an entry's own text goes
_BLANK = "\0"
_BLANK_TEXT = _ENCODER.encode(_BLANK)


def _record_parts(verdict: pr.Verdict) -> tuple[list[str], list[str]]:
    """The text of a verdict report's failing_records and records lists, as
    parts to join, built from its record columns and experiments.

    Both lists sit at one depth: report, result, then the list. Per record
    the text is a fixed head, then the deviation, est_p and ideal_p, each
    between fixed key texts, then the measured list, which is built once per
    setting of each experiment shape (kind and wires), and the rest of
    the record from the prep on, built once per experiment. Records holds
    only finite values (checked), so float.__repr__ is their JSON text,
    taken once per distinct value: records share most of theirs.
    """
    recs = verdict.records
    depth = 2
    blank = {
        "deviation": _BLANK,
        "est_p": _BLANK,
        "ideal_p": _BLANK,
        "n_samples": recs.n_samples,
        "setting": {"measured": _BLANK, "prep": _BLANK},
    }
    first, est_key, ideal_key, measured_key, prep_key, end = _dumps(
        blank, depth + 1
    ).split(_BLANK_TEXT)
    inner = depth + 3  # the list, a record, its setting, then its values
    # a measured list or a prep is a list at inner: its text is made of
    # the texts of its entries, each encoded once
    start, sep, close = _dumps([_BLANK, _BLANK], inner).split(_BLANK_TEXT)

    def list_text(as_json):
        done: dict[tuple, str] = {}

        def text(items) -> str:
            if not items:
                return "[]"
            texts = []
            for item in items:
                t = done.get(item)
                if t is None:
                    t = done[item] = _dumps(as_json(item), inner + 1)
                texts.append(t)
            return start + sep.join(texts) + close

        return text

    measured_text = list_text(
        lambda b: {"side": b[0], "wire": b[1], "angle": b[2], "flip": 0}
    )
    prep_text = list_text(list)
    shapes: dict[tuple, list[str]] = {}
    measured: list[str] = []
    rest: list[str] = []
    for exp in recs.experiments:
        key = (exp.kind, exp.wires)
        texts = shapes.get(key)
        if texts is None:
            texts = shapes[key] = [measured_text(b) for b in exp.branches]
        measured += texts
        rest += [prep_key + prep_text(exp.prep) + end] * len(texts)
    values = np.concatenate((recs.deviation, recs.est_p, recs.ideal_p))
    # each distinct value keyed by its bits, not by itself: -0.0 == 0.0, and
    # each has its own text
    bits = values.view(np.int64).tolist()
    distinct = dict(zip(bits, values.tolist()))
    text = dict(zip(distinct, map(float.__repr__, distinct.values())))
    texts = list(map(text.__getitem__, bits))
    n = len(recs)
    floats = [texts[:n], texts[n : 2 * n], texts[2 * n :]]
    indent = "\n" + "  " * depth
    head = "," + indent + "  " + first
    columns = (*floats, measured, rest)

    def parts(rows: list[int] | None) -> list[str]:
        devs, ests, ideals, measured, rest = (
            columns if rows is None else [list(map(c.__getitem__, rows)) for c in columns]
        )
        if not devs:
            return ["[]"]
        out = list(
            chain.from_iterable(
                zip(
                    repeat(head), devs, repeat(est_key), ests, repeat(ideal_key), ideals,
                    repeat(measured_key), measured, rest,
                )
            )
        )
        out[0] = "[" + head[1:]
        out.append(indent + "]")
        return out

    return parts(verdict.failing.tolist()), parts(None)


def _verdict_result(verdict: pr.Verdict) -> dict:
    """verdict.to_json(), with a placeholder where its failing_records and
    its records go: _report_parts puts them in from _record_parts."""
    result = verdict.summary_json()
    result["failing_records"] = result["records"] = _BLANK
    return result


def _report_parts(
    cfg: RunConfig, result: dict, verdict: pr.Verdict | None = None
) -> list[str]:
    """The JSON text of the report of a run with result, as parts to join.
    Given the verdict that _verdict_result made result from, its record
    lists go in at the last two placeholders: only command and config sort
    before result, and in result no free string follows failing_records, so
    those two are the lists' own whatever a config string holds."""
    config = asdict(cfg)
    config.pop("out")  # where the report lands must not change its bytes
    report = {
        "command": cfg.command,
        "version": __version__,
        "config": config,
        "result": result,
    }
    text = _dumps(report)
    if verdict is None:
        return [text]
    head, middle, tail = text.rsplit(_BLANK_TEXT, 2)
    failing, records = _record_parts(verdict)
    return [head, *failing, middle, *records, tail]


# parts joined per write: ~86 KB of the 10 MB report of an n=2, t=32 chain
# in the median chunk (155 KB at most), so that no write holds the whole
# report, whose records repeat their preps and grow as t**2. Larger chunks
# cost peak RSS; much smaller ones cost a write call each.
_WRITE_PARTS = 256


def _emit(cfg: RunConfig, result: dict, verdict: pr.Verdict | None = None) -> None:
    if cfg.out is None:
        return
    parts = _report_parts(cfg, result, verdict)
    with open(cfg.out, "w", encoding="utf-8") as fh:
        for i in range(0, len(parts), _WRITE_PARTS):
            # a join of one part is that part, not a copy
            fh.write("".join(parts[i : i + _WRITE_PARTS]))
        fh.write("\n")


def _seed(cfg: RunConfig) -> int:
    return 0 if cfg.seed is None else cfg.seed


def _run_epr_test(cfg: RunConfig) -> int:
    from . import protocol as pr

    device = dv.resolve_device(cfg.device)
    verdict = pr.epr_test(
        device, cfg.wire, cfg.eps, cfg.mode, gamma=cfg.gamma, seed=_seed(cfg)
    )
    _print_table(*_verdict_rows(verdict))
    print(
        f"verdict: {'accept' if verdict.accepted else 'reject'}  "
        f"max_deviation={verdict.max_deviation:.6f}  eps={verdict.eps}"
    )
    _emit(cfg, _verdict_result(verdict), verdict)
    return 0 if verdict.accepted else 1


def _run_circuit_test(cfg: RunConfig) -> int:
    from . import protocol as pr

    circuit = _load_circuit_arg(cfg)
    if cfg.x is None:
        cfg = replace(cfg, x=circuit.input)  # the report names the x that ran
    device = dv.resolve_device(cfg.device, circuit)
    verdict = pr.circuit_test(
        device,
        circuit,
        cfg.x,
        eps=cfg.eps,
        gamma=cfg.gamma,
        seed=_seed(cfg),
        mode=cfg.mode,
        force_y=cfg.force_y,
    )
    _print_table(*_verdict_rows(verdict))
    hist = dict(sorted(verdict.computation_outcome_histogram.items()))
    print(
        f"verdict: {'accept' if verdict.accepted else 'reject'}  "
        f"max_deviation={verdict.max_deviation:.6f}  eps={verdict.eps}"
    )
    print(f"computation: y={verdict.y}  tv={verdict.tv_distance:.6f}  outcomes={hist}")
    _emit(cfg, _verdict_result(verdict), verdict)
    return 0 if verdict.accepted else 1


def _run_extract(cfg: RunConfig) -> int:
    from . import extraction as ex

    if cfg.gate_index is not None:
        circuit = _load_circuit_arg(cfg)
        device = dv.resolve_device(cfg.device, circuit)
        report = ex.certify_gate_equivalence(device, circuit, cfg.gate_index)
    else:
        device = dv.resolve_device(cfg.device)
        report = ex.certify_state_equivalence(device, wires=(cfg.wire,))
    rows = [
        ("state", "pair-content", 0.0, report.state_residual, report.state_residual,
         report.state_residual <= cfg.eps)
    ]
    for key in sorted(report.projector_residuals):
        val = report.projector_residuals[key]
        rows.append(("projector", key, 0.0, val, val, val <= cfg.eps))
    if report.gate_residual is not None:
        rows.append(
            ("gate", "restricted-norm", 0.0, report.gate_residual,
             report.gate_residual, report.gate_residual <= cfg.eps)
        )
        rows.append(
            ("gate", "co-action-fit", 0.0, report.factorization_residual,
             report.factorization_residual,
             report.factorization_residual <= cfg.eps)
        )
    _print_table(rows)
    accepted = all(r[5] for r in rows)
    worst = max(r[4] for r in rows)
    print(
        f"verdict: {'accept' if accepted else 'reject'}  "
        f"max_residual={worst:.6f}  eps={cfg.eps}  s_rank={report.s_rank}"
    )
    _emit(cfg, {"accepted": accepted, "report": report.to_json()})
    return 0 if accepted else 1


def _run_tomo(cfg: RunConfig) -> int:
    from . import extraction as ex
    from . import stats as stx

    device = dv.resolve_device(cfg.device)
    keys = [(a, b) for a in ex.TOMO_ANGLES for b in ex.TOMO_ANGLES]
    slots = [("A", cfg.wire, ex.TOMO_ANGLES), ("B", cfg.wire, ex.TOMO_ANGLES)]
    probs = stx.probabilities(device, device.source, slots)
    rho = ex.tomo_reconstruct(dict(zip(keys, probs)), 2)
    ideal = np.zeros((4, 4), dtype=np.complex128)
    for i in (0, 3):
        for j in (0, 3):
            ideal[i, j] = 0.5
    residual = float(np.linalg.norm(rho - ideal, 2))
    accepted = residual <= cfg.eps
    rows = [("tomo", f"wire{cfg.wire}-pair", 0.0, residual, residual, accepted)]
    _print_table(rows)
    print("reconstructed pair state (real part):")
    for row in rho.real:
        print("  " + "  ".join(f"{v:+.6f}" for v in row))
    print(
        f"verdict: {'accept' if accepted else 'reject'}  "
        f"residual={residual:.6f}  eps={cfg.eps}"
    )
    _emit(
        cfg,
        {
            "accepted": accepted,
            "residual": residual,
            "rho": dv.matrix_to_json(rho),
        },
    )
    return 0 if accepted else 1


def _run_gallery(cfg: RunConfig) -> int:
    rows = dv.builtin_gallery()
    width = max(len(name) for name, _ in rows)
    for name, desc in rows:
        print(f"{name:<{width}}  {desc}")
    return 0


_RUNNERS = {
    "epr-test": _run_epr_test,
    "circuit-test": _run_circuit_test,
    "extract": _run_extract,
    "tomo": _run_tomo,
    "gallery": _run_gallery,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _RUNNERS[cfg.command](cfg)
    except (QSelfTestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
