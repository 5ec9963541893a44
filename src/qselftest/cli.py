"""Command-line front end: run verifications and emit reports.

Commands map one-to-one onto the library entry points: `epr-test` checks
the pair statistics of one wire, `circuit-test` runs the full protocol,
`extract` certifies state or gate equivalence, `tomo` reconstructs the
pair state a wire presents through its own frames, and `gallery` lists
the built-in devices. Exit code 0 means accept, 1 reject, 2 bad usage
or configuration. With identical configuration and seed the JSON report
is byte-identical between runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from . import devices as dv
from . import extraction as ex
from . import protocol as pr
from . import stats as stx
from .errors import ConfigError, QSelfTestError

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
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"--mode must be exact or sampled, got {self.mode!r}")
        if self.mode == "sampled" and self.seed is None:
            raise ConfigError("--seed is required when --mode sampled")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError(f"--seed must be a 64-bit value, got {self.seed}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qselftest",
        description="verify untrusted quantum devices from their statistics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, device=True):
        if device:
            p.add_argument(
                "--device",
                required=True,
                help="device JSON path or builtin:name[?k=v]",
            )
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--gamma", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("epr-test", help="check one wire's pair statistics")
    common(p)
    p.add_argument("--wire", type=int, default=0)

    p = sub.add_parser("circuit-test", help="run the full verification protocol")
    common(p)
    p.add_argument("--circuit", required=True, help="circuit JSON path")
    p.add_argument("--x", required=True, help="input bit string")
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


def _print_table(rows: list[tuple[str, str, float, float, float, bool]]) -> None:
    header = ("experiment", "setting", "ideal", "estimated", "deviation", "pass")
    widths = [
        max(len(header[0]), *(len(r[0]) for r in rows)) if rows else len(header[0]),
        max(len(header[1]), *(len(r[1]) for r in rows)) if rows else len(header[1]),
        10, 10, 10, 4,
    ]
    fmt = "{:<%d}  {:<%d}  {:>%d}  {:>%d}  {:>%d}  {}" % tuple(widths[:5])
    print(fmt.format(*header))
    for row in rows[:_MAX_TABLE_ROWS]:
        print(
            fmt.format(
                row[0],
                row[1],
                f"{row[2]:.6f}",
                f"{row[3]:.6f}",
                f"{row[4]:.6f}",
                "ok" if row[5] else "FAIL",
            )
        )
    if len(rows) > _MAX_TABLE_ROWS:
        hidden = rows[_MAX_TABLE_ROWS:]
        failing = sum(1 for r in hidden if not r[5])
        print(f"... {len(hidden)} more rows ({failing} failing)")


def _setting_text(setting) -> str:
    return " ".join(
        f"{side}{wire}@{dv.angle_name(a)}" for side, wire, a in setting.branches
    )


def _verdict_rows(verdict: pr.Verdict):
    rows = []
    for label, rec in zip(verdict.labels, verdict.records):
        rows.append(
            (
                label,
                _setting_text(rec.setting),
                rec.ideal_p,
                rec.est_p,
                rec.deviation,
                rec.deviation <= verdict.eps,
            )
        )
    return rows


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    A tuple is encoded once per indent level: all settings of an experiment
    share one prep tuple, which the report repeats in every record. The memo
    lives for one call, while obj keeps every tuple in it alive, so no id is
    reused.
    """
    memo: dict[tuple[int, str], str] = {}

    def enc(o, indent: str) -> str:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if isinstance(o, float):
            if o != o:
                return "NaN"
            if math.isinf(o):
                return "Infinity" if o > 0 else "-Infinity"
            return float.__repr__(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, dict):
            parts = [key(k) + ": " + enc(v, indent + "  ") for k, v in sorted(o.items())]
            return block("{}", parts, indent)
        if isinstance(o, tuple):
            text = memo.get((id(o), indent))
            if text is None:
                parts = [enc(v, indent + "  ") for v in o]
                text = memo[id(o), indent] = block("[]", parts, indent)
            return text
        if isinstance(o, list):
            return block("[]", [enc(v, indent + "  ") for v in o], indent)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def key(k) -> str:
        if isinstance(k, str):
            return encode_basestring_ascii(k)
        if k is None or isinstance(k, (int, float)):
            return encode_basestring_ascii(enc(k, ""))
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(k).__name__}"
        )

    def block(brackets: str, parts: list[str], indent: str) -> str:
        if not parts:
            return brackets
        inner = "\n" + indent + "  "
        # brackets go onto the end parts, so the body is copied only once
        parts[0] = brackets[0] + inner + parts[0]
        parts[-1] += "\n" + indent + brackets[1]
        return ("," + inner).join(parts)

    return enc(obj, "")


def _emit(cfg: RunConfig, result: dict) -> None:
    if cfg.out is None:
        return
    config = asdict(cfg)
    config.pop("out")  # where the report lands must not change its bytes
    report = {
        "command": cfg.command,
        "version": __version__,
        "config": config,
        "result": result,
    }
    text = _dumps(report)
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")  # apart from text, which is not copied to append it


def _seed(cfg: RunConfig) -> int:
    return 0 if cfg.seed is None else cfg.seed


def _run_epr_test(cfg: RunConfig) -> int:
    device = dv.resolve_device(cfg.device)
    verdict = pr.epr_test(
        device, cfg.wire, cfg.eps, cfg.mode, gamma=cfg.gamma, seed=_seed(cfg)
    )
    _print_table(_verdict_rows(verdict))
    print(
        f"verdict: {'accept' if verdict.accepted else 'reject'}  "
        f"max_deviation={verdict.max_deviation:.6f}  eps={verdict.eps}"
    )
    _emit(cfg, verdict.to_json())
    return 0 if verdict.accepted else 1


def _run_circuit_test(cfg: RunConfig) -> int:
    circuit = _load_circuit_arg(cfg)
    device = dv.resolve_device(cfg.device, circuit)
    if cfg.x is None:
        raise ConfigError("--x is required for circuit-test")
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
    _print_table(_verdict_rows(verdict))
    hist = dict(sorted(verdict.computation_outcome_histogram.items()))
    print(
        f"verdict: {'accept' if verdict.accepted else 'reject'}  "
        f"max_deviation={verdict.max_deviation:.6f}  eps={verdict.eps}"
    )
    print(f"computation: y={verdict.y}  tv={verdict.tv_distance:.6f}  outcomes={hist}")
    _emit(cfg, verdict.to_json())
    return 0 if verdict.accepted else 1


def _run_extract(cfg: RunConfig) -> int:
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
    device = dv.resolve_device(cfg.device)
    keys = [(a, b) for a in ex.TOMO_ANGLES for b in ex.TOMO_ANGLES]
    branches = ((("A", cfg.wire, a), ("B", cfg.wire, b)) for a, b in keys)
    probs = stx.probabilities(device, device.source, branches)
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
    _emit(cfg, {"devices": [{"name": n, "description": d} for n, d in rows]})
    return 0


_RUNNERS = {
    "epr-test": _run_epr_test,
    "circuit-test": _run_circuit_test,
    "extract": _run_extract,
    "tomo": _run_tomo,
    "gallery": _run_gallery,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _RUNNERS[cfg.command](cfg)
    except (QSelfTestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
