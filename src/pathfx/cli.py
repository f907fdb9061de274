"""Command-line interface: ``simulate``, ``estimate``, and ``oracle``.

Exit codes: 0 success, 1 data or runtime failure, 2 argument/config error,
3 estimation-contract violation.  Every command takes ``--seed`` and is
end-to-end deterministic given it.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import replace

from .core import (
    DataError,
    DesignSpec,
    TreatmentPair,
    read_csv,
    recode_pair,
)
from .estimators import (
    BETA_KINDS,
    DEFAULT_DELTA_FOR,
    DELTA_KINDS,
    Analysis,
    EstimationError,
    evaluate,
    weight_diagnostics,
)
from .glm import Family, GlmError
from .inference import BootstrapSpec, InferenceError, bootstrap
from .nuisance import (
    ROLE_MARGINAL,
    ROLE_MEDIATOR,
    ROLE_OUTCOME,
    ROLE_PROP_BASE,
    ROLE_PROP_BASE_IN_C1_RATIO,
    ROLE_PROP_C1,
    ROLE_PROP_C1_IN_M_RATIO,
    ROLE_PROP_M,
    ModelSpec,
    NuisanceError,
    StabilizeFlags,
    WorkingModelSet,
    c1_mean_role,
    default_working_set,
)
from .simulation import (
    REGIMES,
    SimulationError,
    SimulationSpec,
    oracle_beta0_mc,
    oracle_delta0_mc,
    run_monte_carlo,
    write_replicates_csv,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ESTIMATION = 3

_FAMILIES = {
    "gaussian": Family.GAUSSIAN,
    "logit": Family.LOGIT,
    "probit": Family.PROBIT,
}

_SCALES = {"diff": "mean_difference", "logrr": "log_risk_ratio"}

_CONFIG_ROLES = (
    ROLE_OUTCOME,
    ROLE_MEDIATOR,
    ROLE_PROP_BASE,
    ROLE_PROP_C1,
    ROLE_PROP_M,
    ROLE_MARGINAL,
    ROLE_PROP_BASE_IN_C1_RATIO,
    ROLE_PROP_C1_IN_M_RATIO,
)


class UsageError(ValueError):
    """Configuration problems that map to exit code 2."""


def _fmt(v: float) -> str:
    return "%.10g" % v


# ---------------------------------------------------------------------------
# estimate configuration


def _parse_model_line(role: str, text: str) -> ModelSpec:
    family_name, sep, terms = text.partition(":")
    if not sep:
        raise UsageError(f"model {role!r}: expected 'family: term, term, ...', got {text!r}")
    family_name = family_name.strip().lower()
    if family_name not in _FAMILIES:
        raise UsageError(f"model {role!r}: unknown family {family_name!r}")
    try:
        design = DesignSpec.parse(terms)
    except DataError as exc:
        raise UsageError(f"model {role!r}: {exc}") from exc
    return ModelSpec(_FAMILIES[family_name], design)


def load_config_file(path, d0: int, d1: int, base: Analysis) -> Analysis:
    """Merge a sectioned ``key = value`` config file over the defaults.

    Section ``[models]`` holds ``role = family: term, ...`` lines, where a
    post-treatment mean role is ``c1_mean_<j>`` for 1 <= j <= ``d1``; section
    ``[estimate]`` holds ``scale``, ``pathway``, ``stabilize`` (comma list of
    base, m_ratio, c1_ratio, or all/none), and ``clip``.  A file that
    ``configparser`` cannot read, or that holds any other section or
    ``[estimate]`` key, is a ``UsageError``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path):
            raise UsageError(f"config file {path!r} not found")
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    except configparser.Error as exc:
        raise UsageError(f"config: {exc}") from exc
    # a misspelt section or key would otherwise leave its setting at the default
    named = list(sections) + ([parser.default_section] if parser.defaults() else [])
    for name in named:
        if name not in ("models", "estimate"):
            raise UsageError(f"config: unknown section [{name}]; expected [models] or [estimate]")
    keys = ("scale", "pathway", "stabilize", "clip")
    for key in sections.get("estimate", ()):
        if key not in keys:
            raise UsageError(f"config: unknown [estimate] key {key!r}; expected one of {', '.join(keys)}")
    c1_roles = {c1_mean_role(j) for j in range(1, d1 + 1)}
    cfg = base
    if "models" in sections:
        models = dict(cfg.working_set.models)
        for role, text in sections["models"].items():
            role = role.strip()
            if role not in _CONFIG_ROLES and role not in c1_roles:
                hint = f"; expected c1_mean_<j> with 1 <= j <= {d1}" if role.startswith("c1_mean_") else ""
                raise UsageError(f"config: unknown model role {role!r}{hint}")
            models[role] = _parse_model_line(role, text)
        cfg = replace(cfg, working_set=WorkingModelSet(models))
    if "estimate" in sections:
        section = sections["estimate"]
        if "scale" in section:
            cfg = replace(cfg, scale=_parse_scale(section["scale"]))
        if "pathway" in section:
            pathway = section["pathway"].strip()
            if pathway not in ("linear", "discrete"):
                raise UsageError(f"config: unknown pathway {pathway!r}")
            cfg = replace(cfg, pathway=pathway)
        if "stabilize" in section:
            cfg = replace(cfg, stabilize=_parse_stabilize(section["stabilize"]))
        if "clip" in section:
            cfg = replace(cfg, clip=_parse_clip(section["clip"]))
    return cfg


def _parse_scale(text: str) -> str:
    text = text.strip().lower()
    if text not in _SCALES:
        raise UsageError(f"unknown scale {text!r}; expected diff or logrr")
    return _SCALES[text]


def _parse_stabilize(text: str) -> StabilizeFlags:
    text = text.strip().lower()
    if text in ("none", ""):
        return StabilizeFlags()
    if text == "all":
        return StabilizeFlags.all_on()
    parts = {p.strip() for p in text.split(",") if p.strip()}
    unknown = parts - {"base", "m_ratio", "c1_ratio"}
    if unknown:
        raise UsageError(f"unknown stabilization role(s) {sorted(unknown)}")
    return StabilizeFlags(base="base" in parts, m_ratio="m_ratio" in parts, c1_ratio="c1_ratio" in parts)


def _parse_clip(text: str) -> tuple[float, float] | None:
    text = text.strip().lower()
    if text in ("none", "off"):
        return None
    try:
        eps = float(text)
    except ValueError:
        raise UsageError(f"clip must be a probability floor or 'none', got {text!r}") from None
    if not 0.0 < eps < 0.5:
        raise UsageError("clip floor must lie in (0, 0.5)")
    return (eps, 1.0 - eps)


def _parse_estimators(text: str) -> tuple[str, ...]:
    """The comma list of ``--estimator``/``--estimators``: one or more of
    ``BETA_KINDS``, each named once."""
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    if not kinds:
        raise UsageError(f"no estimator given; expected a comma list of {', '.join(BETA_KINDS)}")
    for k in kinds:
        if k not in BETA_KINDS:
            raise UsageError(f"unknown estimator {k!r}; expected one of {BETA_KINDS}")
        if kinds.count(k) > 1:
            raise UsageError(f"estimator {k!r} is named twice")
    return kinds


# ---------------------------------------------------------------------------
# estimate command


def cmd_estimate(args) -> int:
    kinds = _parse_estimators(args.estimator)
    if args.delta and args.delta not in DELTA_KINDS:
        raise UsageError(f"unknown delta estimator {args.delta!r}")
    if args.bootstrap != "none":
        if args.reps < 2:
            raise UsageError(f"--reps must be at least 2 for a bootstrap, got {args.reps}")
        if not 0.0 < args.ci_level < 1.0:
            raise UsageError(f"--ci-level must lie in (0, 1), got {args.ci_level}")
    if args.out:
        _check_out(args.out, ["estimates.csv"])
    dataset = read_csv(args.data, ignore_extra=args.ignore_extra)
    pair = TreatmentPair(comparison=args.comparison, baseline=args.baseline)
    if pair.is_identity and not args.identity_check:
        raise UsageError(
            "comparison equals baseline; pass --identity-check if this is intentional"
        )
    # estimate stabilizes the two ratios' propensities unless told otherwise
    analysis = Analysis(
        working_set=default_working_set(dataset.d0, dataset.d1),
        pairs=tuple((kind, args.delta or DEFAULT_DELTA_FOR[kind]) for kind in kinds),
        stabilize=StabilizeFlags(m_ratio=True, c1_ratio=True),
    )
    if args.config:
        analysis = load_config_file(args.config, dataset.d0, dataset.d1, analysis)
    if args.scale:
        analysis = replace(analysis, scale=_parse_scale(args.scale))
    if args.pathway:
        analysis = replace(analysis, pathway=args.pathway)
    if args.stabilize is not None:
        analysis = replace(analysis, stabilize=_parse_stabilize(args.stabilize))
    if args.clip is not None:
        analysis = replace(analysis, clip=_parse_clip(args.clip))

    if args.print_models:
        for role in sorted(analysis.working_set.roles()):
            spec = analysis.working_set[role]
            fam = {v: k for k, v in _FAMILIES.items()}[spec.family]
            print(f"{role} = {fam}: {', '.join(spec.design.labels)}")
        return EXIT_OK

    ds, coding = recode_pair(dataset, pair, allow_identity=args.identity_check)
    point = evaluate(ds, analysis, coding)
    interval = None
    if args.bootstrap != "none":
        spec = BootstrapSpec(
            kind=args.bootstrap, replicates=args.reps, seed=args.seed, ci_level=args.ci_level
        )

        # replicates start their binomial fits from the point fit's coefficients
        def batch(weights):
            evaluation = evaluate(ds, analysis, coding, weights=weights, start=point.fits)
            return evaluation.effect, evaluation.comp.failures

        interval = bootstrap(ds, spec=spec, point=point.effect, batch=batch)
        if interval.errors:
            print(
                f"bootstrap: {interval.n_failed} of {spec.replicates} replicates failed; "
                f"first: {interval.errors[0]}",
                file=sys.stderr,
            )

    diagnostics = weight_diagnostics(point.comp)
    scale = {"mean_difference": "diff", "log_risk_ratio": "logrr"}[analysis.scale]
    rows = []
    for k, (kind, delta_kind) in enumerate(analysis.pairs):
        ci = [""] * 3 if interval is None else [_fmt(v[k]) for v in (interval.lower, interval.upper, interval.se)]
        rows.append([kind, delta_kind, scale, str(pair.comparison), str(pair.baseline), _fmt(point.beta[k]),
                     _fmt(point.delta[k]), _fmt(point.effect[k]), *ci, str(ds.n),
                     _fmt(diagnostics["max_weight_baseline"]), str(diagnostics["clip_count"])])
    _print_table(_ESTIMATE_HEADER, rows)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "estimates.csv"), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([_ESTIMATE_HEADER, *rows])
    return EXIT_OK


_ESTIMATE_HEADER = [
    "estimator", "delta_estimator", "scale", "comparison", "baseline",
    "beta_hat", "delta_hat", "effect", "ci_lower", "ci_upper", "se",
    "n_used", "max_weight_baseline", "clip_count",
]


def _check_out(path: str, names: list[str]) -> None:
    """Refuse an ``--out`` that cannot become a writable directory holding
    files ``names``, before any work."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise UsageError(f"--out {path}: {probe} is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise UsageError(f"--out {path}: {probe} is not writable")
    for name in names:
        if os.path.isdir(os.path.join(path, name)):
            raise UsageError(f"--out {path}: {name} is a directory")


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# simulate command


def cmd_simulate(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.reps < 2:
        raise UsageError(f"--reps must be at least 2 for the t test, got {args.reps}")
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    out = args.out or "."
    names = [f"replicates_{args.regime}.csv", f"summary_{args.regime}.csv"]
    _check_out(out, names)
    spec = SimulationSpec(regime=args.regime, n=args.n, replications=args.reps,
                          seed=args.seed, alpha=args.alpha)
    report = run_monte_carlo(spec, estimators=_parse_estimators(args.estimators),
                             stabilize=_parse_stabilize(args.stabilize))
    if report.errors:
        print(f"simulate: {report.n_failed} of {spec.replications} replicates failed; "
              f"first: {report.errors[0]}", file=sys.stderr)

    header = ["estimator", "mc_mean", "mc_se", "ci_lower", "ci_upper", "t", "reject", "n_ok"]
    rows = [
        [s.kind, _fmt(s.mc_mean), _fmt(s.mc_se), _fmt(s.ci_lower), _fmt(s.ci_upper),
         _fmt(s.t), "yes" if s.reject else "no", str(s.n_ok)]
        for s in report.summaries
    ]
    print(f"regime={report.regime} n={report.n} reps={report.replications} "
          f"alpha={report.alpha} target={_fmt(report.hypothesized)}")
    _print_table(header, rows)

    os.makedirs(out, exist_ok=True)
    write_replicates_csv(report, os.path.join(out, names[0]))
    write_summary_csv(report, os.path.join(out, names[1]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle command


def cmd_oracle(args) -> int:
    if args.draws < 100_000:
        raise UsageError("oracle needs at least 1e5 draws for a stable answer")
    beta = oracle_beta0_mc(args.draws, args.seed)
    delta = oracle_delta0_mc(args.draws, args.seed)
    effect_se = (beta.se**2 + delta.se**2) ** 0.5
    print(f"beta0   {_fmt(beta.value)} (mc se {_fmt(beta.se)})")
    print(f"delta0  {_fmt(delta.value)} (mc se {_fmt(delta.se)})")
    print(f"effect  {_fmt(beta.value - delta.value)} (mc se {_fmt(effect_se)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathfx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the synthetic misspecification study")
    sim.add_argument("--regime", required=True, choices=REGIMES)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--reps", type=int, default=200, help="replications (the paper's study ran 1000)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--estimators", default="mle,a,b,mr")
    sim.add_argument("--stabilize", default="none",
                     help="stabilization roles (comma list of base, m_ratio, c1_ratio; or all/none)")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the effect from a CSV file")
    est.add_argument("--data", required=True)
    est.add_argument("--comparison", type=int, required=True)
    est.add_argument("--baseline", type=int, required=True)
    est.add_argument("--estimator", default="mr")
    est.add_argument("--delta", default=None, help="override the paired baseline-mean estimator")
    est.add_argument("--scale", default=None, choices=["diff", "logrr"])
    est.add_argument("--pathway", default=None, choices=["linear", "discrete"])
    est.add_argument("--stabilize", default=None)
    est.add_argument("--clip", default=None)
    est.add_argument("--bootstrap", default="none", choices=["none", "nonparametric", "wild_exp1"])
    est.add_argument("--reps", type=int, default=200)
    est.add_argument("--ci-level", type=float, default=0.95)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--config", default=None)
    est.add_argument("--identity-check", action="store_true")
    est.add_argument("--ignore-extra", action="store_true")
    est.add_argument("--print-models", action="store_true")
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    orc = sub.add_parser("oracle", help="print the target values by counterfactual simulation")
    orc.add_argument("--draws", type=int, required=True)
    orc.add_argument("--seed", type=int, default=0)
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (NuisanceError, GlmError, InferenceError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
