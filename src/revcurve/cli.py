"""Command-line front end.

Subcommands: curve, adversary, gadget, coin, fit, zoo.  Exit codes: 0 ok,
2 usage/config error, 3 infeasible parameters or exhausted budget, 4 internal
error.  REVCURVE_SEED overrides the built-in default base seed; an explicit
--seed flag overrides both.  Outputs are byte-identical across reruns with the
same flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .dist import InfeasibleParametersError, SearchBudgetError, parse_dist, zoo_names
from .learners import LearnerProcessError, parse_learner

DEFAULT_SEED = 20250801

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


def _base_seed(args) -> int:
    source = "--seed" if args.seed is not None else "REVCURVE_SEED"
    text = str(args.seed) if args.seed is not None else os.environ.get("REVCURVE_SEED", str(DEFAULT_SEED))
    if not text.isdecimal():
        raise ConfigError(f"seed {text!r} from {source} is not an integer >= 0")
    return int(text)


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    return grid


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from --config JSON; explicit flags win.

    Each value goes through its flag's type as if it were typed on the command
    line; a JSON list stands for its comma-joined items.
    """
    if not getattr(args, "config", None):
        return
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {args.config!r} must hold a JSON object")
    unknown = sorted(set(doc) - (set(vars(args)) - {"command", "func"}))
    if unknown:
        raise ConfigError(f"config {args.config!r} has keys with no {args.command} flag: {', '.join(unknown)}")
    types = {action.dest: action.type for action in parser._actions}
    for key, value in doc.items():
        if value is None or getattr(args, key) is not None:
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            setattr(args, key, types[key](text))
        except ValueError as exc:
            raise ConfigError(f"config {args.config!r}: bad {key} value {value!r}: {exc}") from exc


# -- SVG ----------------------------------------------------------------------


def _svg_log_log(points: list[tuple[float, float]], title: str) -> str:
    """Fixed 800x600 log-log polyline plot; zero or negative gaps are skipped."""
    width, height, margin = 800, 600, 70
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    pts = [(n, g) for n, g in points if g > 0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:g}" y="28" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:g}" y="{height - 20}" text-anchor="middle" font-size="13">n (log scale)</text>',
        f'<text x="20" y="{height / 2:g}" font-size="13" transform="rotate(-90 20 {height / 2:g})" text-anchor="middle">mean gap (log scale)</text>',
    ]
    if pts:
        xs = [math.log10(n) for n, _ in pts]
        ys = [math.log10(g) for _, g in pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def px(x):
            return margin + (x - x_lo) / x_span * (width - 2 * margin)

        def py(y):
            return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="crimson" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="crimson"/>')
        for x, n in zip(xs, (n for n, _ in pts)):
            parts.append(
                f'<text x="{px(x):.2f}" y="{height - margin + 18}" text-anchor="middle" font-size="11">{n}</text>'
            )
    else:
        parts.append(
            f'<text x="{width / 2:g}" y="{height / 2:g}" text-anchor="middle" font-size="14">no positive gaps to plot</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- subcommands ----------------------------------------------------------------


# Each command imports the modules it runs, so a curve run never loads the
# adversary and a zoo listing loads neither.


def _cmd_curve(args, parser: argparse.ArgumentParser) -> int:
    from . import curves

    _apply_config_file(args, parser)
    for key in ("learner", "dist", "grid", "trials"):
        if getattr(args, key, None) is None:
            raise ConfigError(f"curve needs --{key} (flag or config file)")
    learner = parse_learner(args.learner)
    try:
        dist = parse_dist(args.dist)
    except OSError as exc:
        raise ConfigError(f"cannot read --dist file {args.dist!r}: {exc}") from exc
    grid = _parse_grid(args.grid)
    seed = _base_seed(args)
    workers = _workers(args)
    curve = curves.learning_curve(learner, dist, grid, args.trials, seed, workers=workers)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    curve.to_csv(out / "curve.csv")
    (out / "curve.json").write_text(curve.to_json() + "\n")
    (out / "curve.svg").write_text(_svg_log_log([(p.n, p.mean_gap) for p in curve.points], f"{curve.learner_name} on {curve.dist_label}"))
    summary: dict = {"curve": str(out / "curve.csv")}
    try:
        fit = curves.fit_power(curve)
        summary["fit"] = asdict(fit)
        if fit.slope_or_rate > -0.05:
            summary["flag"] = "no positive decay detected"
    except curves.InsufficientDataError:
        summary["fit"] = None
        summary["flag"] = "no positive decay detected"
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _parse_phi(spec: str):
    if spec in ("inv", "1/j"):
        return lambda j: 1.0 / j
    if spec.startswith("pow:"):
        expo = float(spec[4:])
        return lambda j: float(j) ** expo
    if spec.startswith("const:"):
        v = float(spec[6:])
        return lambda j: v
    raise ConfigError(f"unknown phi spec {spec!r} (use inv, pow:<a>, const:<v>)")


def _cmd_adversary(args) -> int:
    from . import adversary

    learner = parse_learner(args.learner)
    phi = _parse_phi(args.phi)
    seed = _base_seed(args)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xADFE))))
    counts = {"trials_per_dataset": args.probe_trials, "max_datasets_per_level": args.max_datasets}
    # an unset count keeps ProbeConfig's own default
    probe = adversary.ProbeConfig(
        allow_sampling=args.allow_sampling, **{key: value for key, value in counts.items() if value is not None}
    )
    dist, construction = adversary.build_slow_rate_distribution(learner, phi, args.depth, probe, rng)
    report = adversary.validate_slow_rate(dist, construction, learner, trials=args.trials, base_seed=seed)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "construction.json").write_text(construction.to_json() + "\n")
    (out / "validation.json").write_text(json.dumps({"distribution": dist.to_dict(), "levels": report}, sort_keys=True, indent=2) + "\n")
    for row in report:
        status = "ok" if row["meets_target"] else "MISS"
        print(
            f"level {row['level']}: gap={row['mean_gap']:.6f} (se {row['std_err']:.2e}) "
            f"target R/4={row['target_quarter_R']:.6f} [{status}]"
        )
    return EXIT_OK


def _cmd_gadget(args) -> int:
    from . import adversary

    gp = adversary.uniform_gadget(args.x, args.q, args.p, args.gamma)
    seed = _base_seed(args)
    doc: dict = asdict(gp) | {"members": {}, "coin_game": []}
    all_pass = True
    for sigma in (-1, 1):
        member = adversary.gadget_member(gp, sigma)
        report = adversary.verify_gadget(gp, member, sigma)
        mirrored = adversary.verify_gadget(gp, member, sigma, sweep_side="high" if sigma == -1 else "low")
        all_pass &= report.passed and not mirrored.passed
        doc["members"][str(sigma)] = {
            "distribution": member.to_dict(),
            "margin": report.margin,
            "passed": report.passed,
            "wrong_side_margin": mirrored.margin,
            "wrong_side_passed": mirrored.passed,
        }
    for i, c in enumerate((1.0, 4.0, 16.0)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xC014, i))))
        res = adversary.coin_game(gp.p, gp.gamma, c, trials=args.trials, rng=rng)
        doc["coin_game"].append(
            {"c": c, "n": res.n, "error_rate": res.error_rate, "std_err": res.std_err}
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "gadget.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(json.dumps({"x_pq": gp.x_pq, "midpoint": gp.midpoint, "all_pass": bool(all_pass)}, sort_keys=True))
    return EXIT_OK


def _cmd_coin(args) -> int:
    from . import adversary

    seed = _base_seed(args)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xC014))))
    res = adversary.coin_game(args.p, args.gamma, args.c, trials=args.trials, rng=rng)
    print(json.dumps(asdict(res), sort_keys=True))
    return EXIT_OK


def _cmd_fit(args) -> int:
    from . import curves

    try:
        curve = curves.LearningCurve.from_csv(args.csv)
    except OSError as exc:
        raise ConfigError(f"cannot read --csv file {args.csv!r}: {exc}") from exc
    fits = []
    if args.model in ("power", "both"):
        fits.append(curves.fit_power(curve))
    if args.model in ("exponential", "both"):
        fits.append(curves.fit_exponential(curve))
    for fit in fits:
        print(fit.to_json())
    return EXIT_OK


def _cmd_zoo(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown zoo action {args.action!r}")
    for name in zoo_names():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revcurve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags it reads
    seed_flag = argparse.ArgumentParser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=None, help="base seed (default: REVCURVE_SEED or builtin)")
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", type=str, default=None, help="output directory")

    p_curve = sub.add_parser("curve", help="estimate a learning curve and fit its decay", parents=[seed_flag, out_flag])
    p_curve.add_argument("--learner", type=str, default=None)
    p_curve.add_argument("--dist", type=str, default=None)
    p_curve.add_argument("--grid", type=str, default=None, help="comma-separated sample sizes")
    p_curve.add_argument("--trials", type=int, default=None)
    p_curve.add_argument("--config", type=str, default=None, help="JSON config; flags override")
    p_curve.add_argument(
        "--workers", type=int, default=None, help="parallel trial workers (default: available parallelism)"
    )
    p_curve.set_defaults(func=partial(_cmd_curve, parser=p_curve))

    p_adv = sub.add_parser(
        "adversary", help="build and validate the slow-rate construction", parents=[seed_flag, out_flag]
    )
    p_adv.add_argument("--learner", type=str, required=True)
    p_adv.add_argument("--phi", type=str, default="inv", help="target rate: inv, pow:<a>, const:<v>")
    p_adv.add_argument("--depth", type=int, required=True)
    p_adv.add_argument("--trials", type=int, default=10_000, help="Monte Carlo trials per level")
    # unset, these two take ProbeConfig's defaults
    p_adv.add_argument("--probe-trials", type=int, default=None, help="probes per dataset for randomized learners")
    p_adv.add_argument("--max-datasets", type=int, default=None)
    p_adv.add_argument("--allow-sampling", action="store_true")
    p_adv.set_defaults(func=_cmd_adversary)

    p_gadget = sub.add_parser(
        "gadget", help="build both gadget members and verify their margins", parents=[seed_flag, out_flag]
    )
    p_gadget.add_argument("--x", type=float, required=True)
    p_gadget.add_argument("--q", type=float, required=True)
    p_gadget.add_argument("--p", type=float, required=True)
    p_gadget.add_argument("--gamma", type=float, default=None, help="default: min(p, x - x_pq)/50")
    p_gadget.add_argument("--trials", type=int, default=10_000)
    p_gadget.set_defaults(func=_cmd_gadget)

    p_coin = sub.add_parser("coin", help="run the coin-distinguishing game", parents=[seed_flag])
    p_coin.add_argument("--p", type=float, required=True)
    p_coin.add_argument("--gamma", type=float, required=True)
    p_coin.add_argument("--c", type=float, required=True)
    p_coin.add_argument("--trials", type=int, default=100_000)
    p_coin.set_defaults(func=_cmd_coin)

    p_fit = sub.add_parser("fit", help="fit decay models to a curve CSV")
    p_fit.add_argument("--csv", type=str, required=True)
    p_fit.add_argument("--model", type=str, default="both", choices=("power", "exponential", "both"))
    p_fit.set_defaults(func=_cmd_fit)

    p_zoo = sub.add_parser("zoo", help="inspect the distribution zoo")
    p_zoo.add_argument("action", type=str, help="list")
    p_zoo.set_defaults(func=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # the error path alone imports the exit-3 classes of modules a run may not load
        from .adversary import BudgetExceededError
        from .curves import GapUndefinedError

        if isinstance(exc, (InfeasibleParametersError, BudgetExceededError, SearchBudgetError, GapUndefinedError)):
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        if isinstance(exc, (ValueError, LearnerProcessError)):  # InsufficientDataError is a ValueError
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"internal error: {exc}", file=sys.stderr)  # pragma: no cover - defensive
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
