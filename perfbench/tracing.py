"""Per-layer measurement from outside the program.

``Tracer`` replaces the public functions of each ``cteuclid`` module by
wrappers that record one span per call: name, start, end, parent span and
op id, plus a small count where one is cheap to take.  It installs them on
the names that callers actually look up (``problems.ct_all`` and
``checkpoint.ct_all`` are separate bindings of the same function, and
``engine.euclid_contribution`` is also the name its own recursion uses),
and restores every original on ``uninstall``.  Spans stay in memory until
the run ends.

The leaf self time of ``algebra`` and of the stdlib ``fractions`` module
comes from a separate ``cProfile`` pass instead, because wrapping those
micro-helpers would swamp what they measure.
"""

import importlib
import json
import os
import time
from collections import Counter, defaultdict

ROUNDS = 10


def _terms_in_out(args, result):
    return len(args[1]), len(result)


def _count_result(args, result):
    return len(result)


def _den_key(args, result):
    return tuple(sorted(args[2].items()))


def _text_bytes(args, result):
    return len(args[1].encode())


# (module, attribute, span name, info taken from (args, result))
SITES = [
    ("cteuclid.cli", "main", "cli.main", None),
    ("cteuclid.cli", "render_result", "cli.render_result", None),
    ("cteuclid.cli", "run_pipeline", "problems.run_pipeline", None),
    ("cteuclid.cli", "run_checkpointed", "checkpoint.run_checkpointed", None),
    ("cteuclid.problems", "check_boundedness", "problems.check_boundedness", None),
    ("cteuclid.checkpoint", "check_boundedness", "problems.check_boundedness", None),
    ("cteuclid.problems", "certify_bounded", "bruteforce.certify_bounded", None),
    ("cteuclid.problems", "build_count_termsum", "problems.build_termsum", None),
    ("cteuclid.problems", "build_series_termsum", "problems.build_termsum", None),
    ("cteuclid.checkpoint", "build_count_termsum", "problems.build_termsum", None),
    ("cteuclid.checkpoint", "build_series_termsum", "problems.build_termsum", None),
    ("cteuclid.problems", "convert_terms", "problems.convert_terms", None),
    ("cteuclid.checkpoint", "convert_terms", "problems.convert_terms", None),
    ("cteuclid.engine", "ct_all", "engine.ct_all", None),
    ("cteuclid.problems", "ct_all", "engine.ct_all", None),
    ("cteuclid.checkpoint", "ct_all", "engine.ct_all", None),
    ("cteuclid.engine", "ct_var", "engine.ct_var", None),
    ("cteuclid.engine", "euclid_contribution", "engine.euclid_contribution", None),
    ("cteuclid.engine", "collect_terms", "engine.collect_terms", _terms_in_out),
    ("cteuclid.problems", "pick_lambda", "elimination.pick_lambda", None),
    ("cteuclid.checkpoint", "pick_lambda", "elimination.pick_lambda", None),
    ("cteuclid.problems", "eliminate_slack", "elimination.eliminate_slack", None),
    ("cteuclid.checkpoint", "eliminate_slack", "elimination.eliminate_slack", None),
    ("cteuclid.elimination", "ct_s_term", "elimination.ct_s_term", _count_result),
    ("cteuclid.problems", "crt_combine", "elimination.crt_combine", None),
    ("cteuclid.univariate", "FactoredAccumulator.add_piece", "univariate.add_piece", _den_key),
    ("cteuclid.univariate", "sparse_mul_binomial", "univariate.sparse_mul_binomial", None),
    ("cteuclid.problems", "sparse_mul_binomial", "univariate.sparse_mul_binomial", None),
    ("cteuclid.problems", "reduce_fraction_int", "univariate.reduce_fraction_int", None),
    ("cteuclid.checkpoint", "_write_atomic", "checkpoint.write_atomic", _text_bytes),
    ("cteuclid.checkpoint", "term_to_line", "checkpoint.term_to_line", None),
    ("cteuclid.checkpoint", "term_from_line", "checkpoint.term_from_line", None),
]


def _resolve(module, attr):
    """(owner, name) for a dotted attribute, or None if it no longer exists."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    """Span recorder; spans are lists [name, start, end, parent, op, info]."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []
        self._stack = []
        self._undo = []

    def install(self, sites=SITES):
        for module, attr, name, info in sites:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._wrap(*found, name, info)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, name, info):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def write(self, path, meta):
        """Spans as JSON lines, one list per span, after one metadata line.

        A span's parent is its 0-based line number among the span lines.
        """
        fields = ["name", "start", "end", "parent", "op", "info"]
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "fields": fields,
                                 "missing_sites": self.missing}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def span_metrics(spans, n_ops):
    """Per-op layer metrics from the recorded spans (means over n_ops)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        self_time[s[0]] += dur[i] - child[i]
        calls[s[0]] += 1

    # stage-A rounds: each collect_terms directly under ct_all closes one
    round_s = defaultdict(float)
    rounds_seen, last_end, final_terms = Counter(), {}, {}
    raw = collected = 0
    pieces = 0
    dens_per_op = defaultdict(set)
    pause_s = resume_s = 0.0
    files = nbytes = 0
    for s in spans:
        name, start, end, parent, op, info = s
        pname = spans[parent][0] if parent >= 0 else None
        if name == "engine.collect_terms" and pname == "engine.ct_all":
            rounds_seen[op] += 1
            round_s[rounds_seen[op]] += end - last_end.get(parent, spans[parent][1])
            last_end[parent] = end
            raw += info[0]
            collected += info[1]
            final_terms[op] = info[1]
        elif name == "elimination.ct_s_term" and info is not None:
            pieces += info
        elif name == "univariate.add_piece" and pname == "elimination.eliminate_slack":
            dens_per_op[op].add(info)
        elif name == "checkpoint.run_checkpointed":
            if info == "CheckpointPause":
                pause_s += end - start
            else:
                resume_s += end - start
        elif name == "checkpoint.write_atomic":
            files += 1
            nbytes += info or 0

    n = max(n_ops, 1)
    piece_dens = sum(len(d) for d in dens_per_op.values()) / n
    m = {
        "engine.ct_all_s": total["engine.ct_all"] / n,
        "engine.euclid_nodes": calls["engine.euclid_contribution"] / n,
        "engine.euclid_self_s": self_time["engine.euclid_contribution"] / n,
        "engine.ct_var_calls": calls["engine.ct_var"] / n,
        "engine.collect_terms_s": total["engine.collect_terms"] / n,
        "engine.raw_terms": raw / n,
        "engine.collected_terms": sum(final_terms.values()) / n,
        "engine.collect_ratio": collected / raw if raw else 0.0,
        "univariate.add_piece_calls": calls["univariate.add_piece"] / n,
        "univariate.add_piece_s": total["univariate.add_piece"] / n,
        "univariate.binomial_mult_calls": calls["univariate.sparse_mul_binomial"] / n,
        "univariate.reduce_fraction_s": total["univariate.reduce_fraction_int"] / n,
        "elimination.ct_s_term_calls": calls["elimination.ct_s_term"] / n,
        "elimination.ct_s_term_s": total["elimination.ct_s_term"] / n,
        "elimination.eliminate_slack_s": total["elimination.eliminate_slack"] / n,
        "elimination.pieces": pieces / n,
        "elimination.piece_dens": piece_dens,
        "elimination.pieces_per_den": (pieces / n) / piece_dens if piece_dens else 0.0,
        "elimination.crt_combine_s": total["elimination.crt_combine"] / n,
        "elimination.pick_lambda_s": total["elimination.pick_lambda"] / n,
        "checkpoint.pause_s": pause_s / n,
        "checkpoint.resume_s": resume_s / n,
        "checkpoint.self_s": self_time["checkpoint.run_checkpointed"] / n,
        "checkpoint.files_written": files / n,
        "checkpoint.bytes_written": nbytes / n,
        "checkpoint.term_to_line_s": total["checkpoint.term_to_line"] / n,
        "checkpoint.term_from_line_s": total["checkpoint.term_from_line"] / n,
        "problems.boundedness_s": total["problems.check_boundedness"] / n,
        "problems.convert_terms_s": total["problems.convert_terms"] / n,
        "problems.stage_c_self_s": self_time["problems.run_pipeline"] / n,
        "bruteforce.certify_s": total["bruteforce.certify_bounded"] / n,
        "cli.render_result_s": total["cli.render_result"] / n,
        "cli.self_s": self_time["cli.main"] / n,
        "trace.spans_per_op": len(spans) / n,
    }
    for k in range(1, ROUNDS + 1):
        m[f"engine.round_s.r{k}"] = round_s[k] / n
    return m


def profile_metrics(stats, n_ops):
    """Leaf self time and call counts of algebra and fractions, per op.

    ``stats`` is ``pstats.Stats(profile).stats``: {(file, line, func):
    (primitive calls, calls, self time, cumulative time, callers)}.
    """
    groups = {
        "algebra": os.path.join("cteuclid", "algebra.py"),
        "fractions": os.sep + "fractions.py",
    }
    self_s, calls = Counter(), Counter()
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        for group, suffix in groups.items():
            if filename.endswith(suffix):
                self_s[group] += tottime
                calls[group] += ncalls
    n = max(n_ops, 1)
    out = {}
    for group in groups:
        out[f"{group}.self_s"] = self_s[group] / n
        out[f"{group}.calls"] = calls[group] / n
    return out
