"""Command-line front end: simulate, profile, attack, analyze, report.

Every command is deterministic given its flags; all randomness flows from
the --seed value. Output files are written atomically. Exit codes: 0 on
success, 1 when an attack ran to completion but ground truth shows at
least one key was not fully recovered, 2 on usage, configuration, or I/O
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import cpa, leakage, recover, sampler, template, traceio
from .errors import CdtLeakError, TraceFormatError

_PCT = "{:.12g}%"


def _fmt_pct(p: float) -> str:
    return _PCT.format(100.0 * p)


def _read_config(path) -> dict[str, str]:
    """Config entries keyed by flag dest: dashes and underscores name the same flag."""
    text = traceio.read_text(path, CdtLeakError)
    return traceio.parse_key_values(text, CdtLeakError, key=lambda k: k.replace("-", "_"))


def _scan_config_path(argv) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 >= len(argv):
                raise CdtLeakError("--config needs a path")
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def _apply_config(subparsers, cfg: dict[str, str]) -> None:
    """Use config values as flag defaults; explicit flags still win."""
    matched = set()
    for sub in subparsers:
        for action in sub._actions:
            if action.dest in cfg:
                raw = cfg[action.dest]
                try:
                    value = action.type(raw) if action.type else raw
                except ValueError:
                    raise CdtLeakError(
                        f"config value {raw!r} invalid for {action.dest}"
                    ) from None
                sub.set_defaults(**{action.dest: value})
                matched.add(action.dest)
    unknown = set(cfg) - matched
    if unknown:
        raise CdtLeakError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _add_config(sub) -> None:
    sub.add_argument("--config", type=str, default=None, help="key=value defaults file")


def _add_common(sub) -> None:
    """Flags of the commands that sample keys and render traces."""
    sub.add_argument("--seed", type=int, default=1, help="master 64-bit seed")
    sub.add_argument("--logn", type=int, default=9, help="ring dimension exponent")
    sub.add_argument("--table", type=str, default=None, help="CDT table file")
    sub.add_argument("--threads", type=int, default=_usable_cores(),
                     help="threads that render traces and, in profile, split the CPA columns "
                     "(default: usable cores); outputs do not depend on it")
    _add_config(sub)


def _add_model_flags(sub) -> None:
    sub.add_argument("--alpha", type=float, default=leakage.DEFAULT_ALPHA,
                     help="leak per mask bit, mV")
    sub.add_argument("--beta", type=float, default=leakage.DEFAULT_BETA,
                     help="baseline level, mV")
    sub.add_argument("--noise-sigma", type=float, default=leakage.DEFAULT_NOISE_SIGMA,
                     help="noise standard deviation, mV")
    sub.add_argument("--samples-per-inner", type=int, default=8)
    sub.add_argument("--samples-per-outer-tail", type=int, default=8)
    sub.add_argument("--leak-offset-inner", type=int, default=3)
    sub.add_argument("--leak-offset-neg", type=int, default=3)


def _table_from(args) -> sampler.GaussCdtTable:
    if args.table is None:
        return sampler.default_table()
    return sampler.load_cdt_table(args.table)


def _check_threads(args) -> None:
    if args.threads < 1:
        raise CdtLeakError(f"--threads must be at least 1, got {args.threads}")


def _setup_from(args):
    _check_threads(args)
    tab = _table_from(args)
    params = sampler.SamplerParams(logn=args.logn)
    model = leakage.LeakModel(
        alpha=args.alpha, beta=args.beta, noise_sigma=args.noise_sigma
    )
    layout = leakage.TraceLayout.for_params(
        params,
        tab,
        samples_per_inner=args.samples_per_inner,
        samples_per_outer_tail=args.samples_per_outer_tail,
        leak_offset_inner=args.leak_offset_inner,
        leak_offset_neg=args.leak_offset_neg,
    )
    return tab, params, model, layout


def cmd_simulate(args) -> int:
    tab, params, model, layout = _setup_from(args)
    md, blocks = leakage.campaign_blocks(
        args.seed, params, tab, model, layout, args.keys, args.threads
    )
    n_traces = args.keys * 2 * params.n
    with traceio.staged_files(args.out + ".trc", args.out + ".lbl") as (trc, lbl):
        traces = traceio.TraceWriter(trc, n_traces, layout.trace_length, md)
        labels = traceio.LabelWriter(lbl, n_traces, layout.outer_count, layout.inner_count)
        for part, samples in blocks:
            traces.write(samples)
            labels.write(part)
        traces.finish()
        labels.finish()
    print(f"simulated {n_traces} traces of {layout.trace_length} samples")
    print(f"keys: {args.keys} (n={params.n}, f and g)")
    print(f"wrote {args.out}.trc")
    print(f"wrote {args.out}.lbl")
    return 0


# profile flags that shape the campaign it generates; --in reads one instead.
_GENERATION_FLAGS = (
    "seed", "logn", "table", "alpha", "beta", "noise_sigma", "samples_per_inner",
    "samples_per_outer_tail", "leak_offset_inner", "leak_offset_neg", "traces", "fire_slot",
)


def _profile_campaign(args):
    if args.inp:
        _check_threads(args)
        unused = [d for d in _GENERATION_FLAGS if getattr(args, d) != args.flag_default(d)]
        if unused:
            flags = ", ".join("--" + d.replace("_", "-") for d in unused)
            raise CdtLeakError(f"--in takes the campaign from its files; {flags} cannot apply")
        trace_set = traceio.read_trace_set(args.inp + ".trc")
        labels = traceio.read_label_set(args.inp + ".lbl")
        md = trace_set.metadata
        _, layout, _ = leakage.campaign_from_metadata(md, "profiling")
        fire_slot = leakage.metadata_number(md, "fire_slot")
        if not 1 <= fire_slot <= layout.inner_count:
            raise TraceFormatError(f"fire_slot {fire_slot} outside 1..{layout.inner_count}")
        return trace_set, labels, layout, fire_slot
    tab, params, model, layout = _setup_from(args)
    trace_set, labels = leakage.synthesize_profiling_set(
        seed=args.seed,
        params=params,
        table=tab,
        model=model,
        layout=layout,
        n_traces=args.traces,
        fire_slot=args.fire_slot,
        threads=args.threads,
    )
    return trace_set, labels, layout, args.fire_slot


def cmd_profile(args) -> int:
    trace_set, labels, layout, fire_slot = _profile_campaign(args)
    points = (
        ("inner", labels.inner_bits[:, 0, fire_slot - 1], layout.inner_site_index(0, fire_slot)),
        ("neg", labels.neg_bits[:, 0], layout.neg_site_index(0)),
    )
    corrs = cpa.correlation_traces(
        trace_set.samples, [64.0 * cls_bits for _, cls_bits, _ in points], args.threads
    )
    for (name, cls_bits, expected), corr in zip(points, corrs):
        pois = cpa.find_poi(corr, count=args.poi_count)
        tpl = template.build_template(trace_set.samples, cls_bits, pois)
        path = f"{args.out}.{name}.tpl"
        template.save_template(tpl, path)
        print(f"{name} poi: {' '.join(str(int(p)) for p in pois)}")
        print(f"{name} expected leak site: {expected}")
        print(f"{name} peak corr: {corr[pois[0]]:.6f}")
        print(f"wrote {path}")
    return 0


def _template_path(args, point: str) -> str | None:
    """The template file of one attack point: --templates PREFIX or --template-POINT."""
    own = getattr(args, f"template_{point}")
    if args.templates and own:
        raise CdtLeakError(f"--templates and --template-{point} both name the {point} template")
    return f"{args.templates}.{point}.tpl" if args.templates else own


def cmd_attack(args) -> int:
    with contextlib.ExitStack() as stack:
        reader = stack.enter_context(traceio.open_trace_set(args.inp + ".trc"))
        params, layout, _ = leakage.campaign_from_metadata(reader.metadata, "campaign")
        labels = None
        if os.path.exists(args.inp + ".lbl"):
            labels = stack.enter_context(traceio.open_label_set(args.inp + ".lbl"))
        paths = [_template_path(args, point) for point in ("inner", "neg")]
        if not all(paths):
            raise CdtLeakError("need --templates or both --template-inner and --template-neg")
        templates = [template.load_template(path) for path in paths]
        report = recover.recover_key(reader, *templates, layout, params, labels)
    out = args.out if args.out else args.inp
    recover.save_report(report, out + ".report.txt")
    print(f"classified {report.inner_sites_total} inner and {report.neg_sites_total} sign sites")
    print(f"anomalous outer iterations: {report.anomalous_outer_iterations}")
    print(f"predicted per-coefficient success: {_fmt_pct(report.p_coefficient)}")
    print(f"predicted full-key success: {_fmt_pct(report.p_full_key)}")
    if report.has_labels:
        print(
            f"coefficients correct: {report.coefficients_correct}/{report.coefficients_total}"
        )
        print(f"keys recovered: {report.keys_recovered}/{report.n_keys}")
    else:
        print("no ground truth labels; empirical accuracy unavailable")
    print(f"wrote {out}.report.txt")
    if report.has_labels and report.keys_recovered < report.n_keys:
        return 1
    return 0


def cmd_analyze(args) -> int:
    if args.p_inner is not None:
        p_inner = args.p_inner
        area_inner = 2.0 * (1.0 - p_inner)
    elif path := _template_path(args, "inner"):
        p_inner, area_inner = recover.site_success(template.load_template(path))
    else:
        raise CdtLeakError("need --p-inner or a template for the inner attack point")
    if args.p_neg is not None:
        p_neg = args.p_neg
        area_neg = 2.0 * (1.0 - p_neg)
    elif path := _template_path(args, "neg"):
        p_neg, area_neg = recover.site_success(template.load_template(path))
    else:
        raise CdtLeakError("need --p-neg or a template for the sign attack point")

    model = template.SuccessModel(
        p_inner=p_inner, p_neg=p_neg, inner_count=args.inner, outer_count=args.outer
    )
    p_coeff = template.per_coefficient_success(model)
    lines = [
        f"overlap inner area: {area_inner!r} (fraction of total: {0.5 * area_inner!r})",
        f"overlap neg area: {area_neg!r} (fraction of total: {0.5 * area_neg!r})",
        f"per-site success inner: {_fmt_pct(p_inner)}",
        f"per-site success neg: {_fmt_pct(p_neg)}",
        f"per-coefficient success: {_fmt_pct(p_coeff)}",
    ]
    dims = [args.n] if args.n else [512, 1024]
    for n in dims:
        p_key = template.full_key_success(p_coeff, n, args.poly_count)
        lines.append(f"full-key success (n={n}): {_fmt_pct(p_key)}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        traceio._atomic_write(args.out, (text + "\n").encode("utf-8"))
    return 0


def cmd_report(args) -> int:
    report = recover.load_report(args.path)
    print(f"keys: {report.n_keys} (n={report.n}, {report.poly_count} polynomials each)")
    print(f"sites: {report.inner_sites_total} inner, {report.neg_sites_total} sign")
    print(f"anomalous outer iterations: {report.anomalous_outer_iterations}")
    print(f"predicted per-site success inner: {_fmt_pct(report.p_site_inner)}")
    print(f"predicted per-site success neg: {_fmt_pct(report.p_site_neg)}")
    print(f"predicted per-coefficient success: {_fmt_pct(report.p_coefficient)}")
    print(f"predicted full-key success: {_fmt_pct(report.p_full_key)}")
    if report.has_labels:
        print(f"site errors: {report.inner_site_errors} inner, {report.neg_site_errors} sign")
        print(
            f"coefficients correct: {report.coefficients_correct}/{report.coefficients_total}"
        )
        print(f"keys recovered: {report.keys_recovered}/{report.n_keys}")
    else:
        print("no ground truth labels recorded")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cdtleak",
        description="Simulate and attack the mask leakage of a CDT Gaussian sampler.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    built = []

    sim = subs.add_parser("simulate", help="simulate key-generation traces")
    _add_common(sim)
    _add_model_flags(sim)
    sim.add_argument("--keys", type=int, default=1, help="number of keys to generate")
    sim.add_argument("--out", type=str, required=True, help="output prefix")
    sim.set_defaults(func=cmd_simulate)
    built.append(sim)

    prof = subs.add_parser("profile", help="build templates from a profiling campaign")
    _add_common(prof)
    _add_model_flags(prof)
    prof.add_argument("--traces", type=int, default=10000, help="profiling traces")
    prof.add_argument("--fire-slot", type=int, default=1,
                      help="inner slot the planted class-1 traces latch at")
    prof.add_argument("--poi-count", type=int, default=1, help="POIs per attack point")
    prof.add_argument("--in", dest="inp", type=str, default=None,
                      help="read an existing profiling campaign (prefix)")
    prof.add_argument("--out", type=str, required=True, help="template output prefix")
    # get_default also returns the defaults that --config sets.
    prof.set_defaults(func=cmd_profile, flag_default=prof.get_default)
    built.append(prof)

    atk = subs.add_parser("attack", help="recover keys from campaign traces")
    _add_config(atk)
    atk.add_argument("--in", dest="inp", type=str, required=True,
                     help="campaign prefix (.trc plus optional .lbl)")
    atk.add_argument("--templates", type=str, default=None,
                     help="template prefix (expects .inner.tpl and .neg.tpl)")
    atk.add_argument("--template-inner", type=str, default=None)
    atk.add_argument("--template-neg", type=str, default=None)
    atk.add_argument("--out", type=str, default=None, help="report prefix")
    atk.set_defaults(func=cmd_attack)
    built.append(atk)

    ana = subs.add_parser("analyze", help="success rates from the analytic model")
    _add_config(ana)
    ana.add_argument("--p-inner", type=float, default=None,
                     help="per-site success at inner mask sites")
    ana.add_argument("--p-neg", type=float, default=None,
                     help="per-site success at sign mask sites")
    ana.add_argument("--templates", type=str, default=None,
                     help="derive per-site success from template files (prefix)")
    ana.add_argument("--template-inner", type=str, default=None)
    ana.add_argument("--template-neg", type=str, default=None)
    ana.add_argument("--inner", type=int, default=26, help="inner iterations")
    ana.add_argument("--outer", type=int, default=2, help="outer iterations")
    ana.add_argument("--n", type=int, default=None, help="coefficients per polynomial")
    ana.add_argument("--poly-count", type=int, default=2)
    ana.add_argument("--out", type=str, default=None, help="also write the text here")
    ana.set_defaults(func=cmd_analyze)
    built.append(ana)

    rep = subs.add_parser("report", help="print a recovery report")
    rep.add_argument("path", type=str, help="report file")
    rep.set_defaults(func=cmd_report)
    built.append(rep)

    return parser, built


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, built = _build_parser()
        config_path = _scan_config_path(argv)
        if config_path is not None:
            _apply_config(built, _read_config(config_path))
        args = parser.parse_args(argv)
        return args.func(args)
    except CdtLeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
