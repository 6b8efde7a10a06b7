"""The CLI handlers of sigma, localize, pullback-su2 and catalog.

``cli.main`` imports this module only for those subcommands, so a short
verdict call compiles none of it.  Each handler imports the library
functions it calls in its body, where a tracer that rebinds them in their
module sees every call, and returns (payload, text lines, ok) as
``cli.main`` expects.  The lines of sigma, localize and pullback-su2,
whose values can run to thousands of digits, are made only when iterated,
so ``--format json`` never converts such a value to decimal a second
time; anything that can raise ``ParseError`` or ``DomainError`` runs
before the handler returns.
"""

from __future__ import annotations

import sys

from .errors import DomainError, ParseError, parse_weight_list


def _kappa_text(label: str, kv) -> str:
    """``kappa[label] = coefficient * generator^power``, the text form of a KappaValue."""
    return f"kappa[{label}] = {kv.coefficient} * {kv.generator}^{kv.generator_power}"


def _run_inputs(args, per_file):
    """Run ``per_file(path, loaded, prefix)`` on each --input file, in order.

    ``per_file`` returns (payload, text lines, ok); ``prefix`` is "path: "
    when there are several files.  Validation notes go to stderr.  The
    result is one file's payload or a list of several, every file's lines,
    and ok when every file is; an unusable file raises ParseError.
    """
    from .localization import _require_usable, read_fixed_point_file, validate_fixed_data

    prefix_paths = len(args.input) > 1
    notes, payloads, texts, ok = [], [], [], True
    for path in args.input:
        loaded = read_fixed_point_file(path)
        # validated first, so _require_usable reads the diagnostics kept on the data
        diagnostics = validate_fixed_data(loaded.data)
        try:
            _require_usable(loaded.data)
        except DomainError as exc:
            raise ParseError(f"'{path}': {exc}") from None
        payload, file_lines, file_ok = per_file(
            path, loaded, f"{path}: " if prefix_paths else ""
        )
        notes.extend(f"{path}: {d.message}" for d in diagnostics if d.severity == "info")
        payloads.append(payload)
        texts.append(file_lines)
        ok = ok and file_ok
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    lines = (line for file_lines in texts for line in file_lines)
    return payloads if prefix_paths else payloads[0], lines, ok


def cmd_sigma(args):
    from .symalg import parse_class_monomial, sigma_eval

    weights = parse_weight_list(args.weights)
    monomial = parse_class_monomial(args.cls, len(weights))
    value = sigma_eval(monomial, weights)
    payload = {
        "class": str(monomial),
        "fiber_half_dim": len(weights),
        "sigma": value,
        "weights": weights,
    }

    def text():
        yield str(value)

    return payload, text(), True


def cmd_localize(args):
    from .localization import compare_expected, kappa_class_label, localize_circle
    from .symalg import parse_class_monomial

    def per_file(path, loaded, prefix):
        n = loaded.data.fiber_half_dim
        if args.cls is not None:
            monomial = parse_class_monomial(args.cls, n)
            kv = localize_circle(loaded.data, monomial)
            label = kappa_class_label(monomial)
            payload = {**kv.to_json_dict(), "input": str(path), "kappa_class": label}

            def text():
                yield prefix + _kappa_text(label, kv)

            return payload, text(), True
        if not loaded.expected:
            raise ParseError(
                f"'{path}': no --class given and the file carries no "
                "expected annotations"
            )
        comparisons = compare_expected(loaded.data, loaded.expected)
        labels = [kappa_class_label(comp.expected.class_monomial) for comp in comparisons]
        results = [
            {
                "class": str(comp.expected.class_monomial),
                "computed": str(comp.computed.coefficient),
                "expected": str(comp.expected.coefficient),
                "generator": comp.expected.generator,
                "kappa_class": label,
                "matches": comp.matches,
                "power": comp.computed.generator_power,
            }
            for comp, label in zip(comparisons, labels)
        ]
        lines = (
            f"{prefix}{_kappa_text(label, comp.computed)} "
            f"(expected {comp.expected.coefficient}: {'ok' if comp.matches else 'MISMATCH'})"
            for comp, label in zip(comparisons, labels)
        )
        ok = all(comp.matches for comp in comparisons)
        payload = {"checks": results, "input": str(path), "ok": ok}
        return payload, lines, ok

    return _run_inputs(args, per_file)


def cmd_pullback_su2(args):
    from .localization import kappa_class_label, pullback_su2

    def per_file(path, loaded, prefix):
        kv, b_i = pullback_su2(loaded.data, args.i)
        label = kappa_class_label(kv.class_monomial)
        payload = {
            **kv.to_json_dict(),
            "b_i": str(b_i),
            "i": args.i,
            "input": str(path),
            "kappa_class": label,
        }

        def text():
            yield prefix + _kappa_text(label, kv)
            yield f"{prefix}b_{args.i} = {b_i}"

        return payload, text(), True

    return _run_inputs(args, per_file)


def cmd_catalog_s2xs2(args):
    import json

    from .catalog import s2xs2_family
    from .localization import kappa_class_label

    entry = s2xs2_family(args.k)
    if args.out is None:  # the data file itself, in either format
        payload = entry.to_payload()
        lines = [json.dumps(payload, indent=2, sort_keys=True)] if args.format == "text" else []
        return payload, lines, True
    entry.write(args.out)
    expected_lines = [
        "expected " + _kappa_text(kappa_class_label(ev.class_monomial), ev)
        for ev in entry.expected
    ]
    payload = {
        "expected": [ev.to_json_dict() for ev in entry.expected],
        "label": entry.label,
        "out": str(args.out),
    }
    return payload, [f"wrote {args.out}"] + expected_lines, True


def cmd_catalog_wg(args):
    from .catalog import wg_hypothesis_report

    report = wg_hypothesis_report(args.n, args.g)
    payload = {name: getattr(report, name) for name in report._fields}
    payload["hypotheses"] = report.hypotheses.to_json_dict()
    betti_text = ",".join(str(x) for x in report.betti)
    lines = [
        f"{report.manifold} (dimension {2 * report.n})",
        f"euler characteristic: {report.euler_char}",
        f"rationally odd: {'yes' if report.rationally_odd else 'no'} (betti {betti_text})",
        f"building-block fixed set: {report.fixed_set} (non-empty)",
    ]
    if report.theorems_apply:
        lines.append("obstruction hypotheses: satisfied")
    else:
        lines.append(
            "obstruction hypotheses: not satisfied "
            f"(euler characteristic {report.euler_char} is not negative)"
        )
    return payload, lines, True
