#!/usr/bin/env python3
"""Per-transfer critical-path and latency-budget attribution for dblind
span traces (PR 9).

Every v2 trace event is a span: `span` is a run-unique id minted at record
time and `parent` is the span of the event that caused it — the sending
side's span for msg_recv, the ambient handler span for everything else,
captured at arming time for timer-driven events. That makes each transfer's
history a DAG rooted at its arrival, and the chain of parents above its
first `done_recorded` IS the critical path: the one causal chain whose
waits delayed completion (anything off the chain overlapped with it).

The tool walks that chain backward and attributes every inter-span gap to a
latency-budget category:

  network             msg_send -> msg_recv edges (transport delay)
  retransmit_backoff  edges into a retransmit event (the backoff timer wait
                      between arming and the re-send that made progress)
  verify              edges into verify_pass / verify_fail (a wait before a
                      verdict; every check runs inline, so this reads 0 on
                      simulator traces)
  crypto              zero-gap same-handler edges. Handlers execute in zero
                      VIRTUAL time under the simulator, so crypto cost is
                      deliberately 0 us here; its real cost is group ops,
                      joined from the ScopedCounterDelta-fed
                      dblind_handler_mont_muls_total / dblind_contrib_*
                      cells when --metrics points at a prometheus snapshot
                      (bench_load --trace-out writes one next to the trace).
                      Since PR 10 the snapshot also carries a per-backend
                      dblind_group_ops_total{backend=...} series plus its
                      dblind_group_op_weight word-mul weight, so EC runs
                      attribute to ristretto255 field muls instead of being
                      mislabelled as mod-p Montgomery muls — the report's
                      `backends` table normalizes both to word-muls
  other               any gap the model cannot name (backup-coordinator
                      delay timers, result-pull polling). The acceptance
                      bar is that this stays under 5% of every transfer's
                      latency.

A transfer's total latency is first-own-event -> first done_recorded, the
same span bench_load's load_latency section measures from the arrival
schedule. `--budget F` turns the report into a gate: exit 1 unless every
completed transfer attributes >= F of its latency to named (non-`other`)
categories — wired into tools/bench_check.py, which records the result in
the critpath section of BENCH.json.

Usage:
  trace_critpath.py trace.jsonl [--metrics snapshot.prom] [--budget 0.95]
                    [--json] [--max-events N] [--quiet]
  trace_critpath.py --self-test
"""

import argparse
import json
import os
import sys
import tempfile

from tracelib import (TraceError, TraceLimitError, iter_trace, parse_line)

CATEGORIES = ("network", "verify", "retransmit_backoff", "crypto", "other")
VERIFY_KINDS = {"verify_pass", "verify_fail"}


class Span:
    __slots__ = ("ts", "kind", "node", "transfer", "parent")

    def __init__(self, ts, kind, node, transfer, parent):
        self.ts, self.kind, self.node = ts, kind, node
        self.transfer, self.parent = transfer, parent


class Trace:
    """Span index + per-transfer anchors, built in one streaming pass."""

    def __init__(self):
        self.meta = None
        self.spans = {}        # span id -> Span
        self.first_done = {}   # transfer -> Span of earliest done_recorded
        self.start_ts = {}     # transfer -> earliest own-event ts
        self.errors = []

    def feed(self, lineno, ev):
        if ev["kind"] == "meta":
            self.meta = ev
            return
        kind, ts = ev["kind"], ev["ts"]
        span = ev.get("span", 0)
        transfer = ev.get("transfer")
        if span:
            if span in self.spans:
                self.errors.append(f"line {lineno}: span id {span} minted twice")
            else:
                self.spans[span] = Span(ts, kind, ev["node"], transfer,
                                        ev.get("parent", 0))
        if transfer:
            cur = self.start_ts.get(transfer)
            if cur is None or ts < cur:
                self.start_ts[transfer] = ts
            if kind == "done_recorded" and span:
                prev = self.first_done.get(transfer)
                if prev is None or ts < prev.ts:
                    self.first_done[transfer] = self.spans[span]


def classify(parent, child):
    """Budget category of the wait between a cause and its effect."""
    if child.ts == parent.ts:
        return "crypto"
    if parent.kind == "msg_send" and child.kind == "msg_recv":
        return "network"
    if child.kind == "retransmit":
        return "retransmit_backoff"
    if child.kind in VERIFY_KINDS:
        return "verify"
    return "other"


def walk_transfer(trace, transfer):
    """Backward chain walk from the transfer's first done_recorded.

    Returns a budget dict: category -> virtual us, plus bookkeeping keys
    `total`, `attributed`, `hops` (chain length) and `crypto_edges`.
    """
    done = trace.first_done[transfer]
    start = trace.start_ts[transfer]
    budget = {c: 0 for c in CATEGORIES}
    budget.update(total=done.ts - start, hops=0, crypto_edges=0)
    cur = done
    visited = set()
    while True:
        parent = trace.spans.get(cur.parent) if cur.parent else None
        if parent is None or cur.parent in visited:
            # Chain root (the arrival handler) — or a broken/cyclic trace,
            # which trace_check.py's I9 reports separately.
            budget["other"] += max(0, cur.ts - start)
            break
        visited.add(cur.parent)
        gap = cur.ts - max(parent.ts, start)
        cat = classify(parent, cur)
        if cat == "crypto":
            budget["crypto_edges"] += 1
        elif gap > 0:
            budget[cat] += gap
        budget["hops"] += 1
        if parent.ts <= start:
            break
        cur = parent
    named = sum(budget[c] for c in CATEGORIES if c != "other")
    budget["attributed"] = (named / budget["total"]) if budget["total"] else 1.0
    return budget


def analyze_file(path, max_events=None):
    trace = Trace()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in iter_trace(fh, max_events=max_events):
            trace.feed(lineno, parse_line(lineno, line))
    if trace.meta is None:
        raise TraceError("trace has no meta line (is this a dblind trace?)")
    budgets = {t: walk_transfer(trace, t) for t in sorted(trace.first_done)}
    return trace, budgets


def parse_prometheus(path):
    """name{labels} -> value for counter/gauge sample lines."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key, value = line.rsplit(None, 1)
                out[key] = float(value)
            except ValueError:
                continue
    return out


def mont_mul_table(samples):
    """Crypto attribution: mont-muls by handler type + contrib path,
    summed across nodes from the ScopedCounterDelta-fed counters."""
    by_key = {}
    for key, value in samples.items():
        for family, label in (("dblind_handler_mont_muls_total", "type"),
                              ("dblind_contrib_mont_muls_total", "path")):
            if key.startswith(family + "{"):
                for part in key[len(family) + 1:-1].split(","):
                    if part.startswith(label + '="'):
                        name = part[len(label) + 2:-1]
                        tag = name if label == "type" else f"contrib/{name}"
                        by_key[tag] = by_key.get(tag, 0) + value
    return dict(sorted(by_key.items(), key=lambda kv: -kv[1]))


def _label_value(key, family, label):
    """Extract label="value" from a `family{...}` sample key, or None."""
    if not key.startswith(family + "{"):
        return None
    for part in key[len(family) + 1:-1].split(","):
        if part.startswith(label + '="'):
            return part[len(label) + 2:-1]
    return None


def backend_table(samples):
    """Crypto attribution by group backend (PR 10): group ops summed across
    nodes per backend label, normalized to 64x64-bit word multiplications
    via the backend's advertised dblind_group_op_weight gauge (mod-p: 2k^2
    per Montgomery mul; ec255: 25 per field mul)."""
    ops, weights = {}, {}
    for key, value in samples.items():
        name = _label_value(key, "dblind_group_ops_total", "backend")
        if name is not None:
            ops[name] = ops.get(name, 0) + value
        name = _label_value(key, "dblind_group_op_weight", "backend")
        if name is not None:
            weights[name] = value
    return {
        name: {
            "group_ops": int(total),
            "weight": int(weights.get(name, 0)),
            "word_muls": int(total * weights.get(name, 0)),
        }
        for name, total in sorted(ops.items())
    }


def summarize(budgets):
    total = sum(b["total"] for b in budgets.values())
    agg = {c: sum(b[c] for b in budgets.values()) for c in CATEGORIES}
    min_attr = min((b["attributed"] for b in budgets.values()), default=1.0)
    return {
        "transfers": len(budgets),
        "total_us": total,
        "budget_us": agg,
        "attributed_overall": (
            sum(agg[c] for c in CATEGORIES if c != "other") / total
            if total else 1.0),
        "attributed_min": min_attr,
    }


def report(path, budgets, mont_muls, backends=None, out=sys.stdout):
    print(f"{path}: critical-path budget for {len(budgets)} completed "
          f"transfers (virtual us)", file=out)
    head = ["transfer", "total"] + [c for c in CATEGORIES] + ["attr%", "hops"]
    print("  " + " ".join(f"{h:>10}" for h in head), file=out)
    for t, b in budgets.items():
        row = [str(t), str(b["total"])] + [str(b[c]) for c in CATEGORIES]
        row += [f"{100 * b['attributed']:.1f}", str(b["hops"])]
        print("  " + " ".join(f"{v:>10}" for v in row), file=out)
    s = summarize(budgets)
    print(f"  overall: {s['attributed_overall']:.1%} attributed "
          f"(worst transfer {s['attributed_min']:.1%}); crypto runs in zero "
          f"virtual time — see the mont-mul join below", file=out)
    if mont_muls:
        print("crypto attribution (group ops, all nodes):", file=out)
        for tag, value in mont_muls.items():
            print(f"  {tag:24} {int(value):>12}", file=out)
    if backends:
        print("group backend (ops x word-mul weight):", file=out)
        for name, row in backends.items():
            print(f"  {name:12} {row['group_ops']:>12} ops x {row['weight']:>5}"
                  f" = {row['word_muls']:>15} word-muls", file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="?", help="JSONL v2 span trace")
    ap.add_argument("--metrics", metavar="PROM",
                    help="prometheus snapshot to join mont-mul attribution")
    ap.add_argument("--budget", type=float, default=None, metavar="F",
                    help="gate: fail unless every transfer attributes >= F "
                         "of its latency to named categories")
    ap.add_argument("--json", action="store_true",
                    help="print a machine-readable summary instead of tables")
    ap.add_argument("--max-events", type=int, default=None, metavar="N")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded corpus")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(0 if run_self_test() else 1)
    if not args.trace:
        ap.error("need a trace file or --self-test")
    try:
        trace, budgets = analyze_file(args.trace, max_events=args.max_events)
    except (TraceError, TraceLimitError) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        sys.exit(1)
    for e in trace.errors:
        print(f"ERROR: {e}", file=sys.stderr)
    if not budgets:
        print("ERROR: no completed transfer (no done_recorded span) in trace",
              file=sys.stderr)
        sys.exit(1)

    samples = parse_prometheus(args.metrics) if args.metrics else {}
    mont_muls = mont_mul_table(samples)
    backends = backend_table(samples)
    if args.json:
        s = summarize(budgets)
        s["mont_muls"] = mont_muls
        s["backends"] = backends
        s["budget_gate"] = args.budget
        print(json.dumps(s, sort_keys=True))
    elif not args.quiet:
        report(args.trace, budgets, mont_muls, backends)

    ok = not trace.errors
    if args.budget is not None:
        for t, b in budgets.items():
            if b["attributed"] < args.budget:
                print(f"ERROR: transfer {t} attributes only "
                      f"{b['attributed']:.1%} of its {b['total']} us latency "
                      f"(budget gate {args.budget:.0%}); 'other' holds "
                      f"{b['other']} us", file=sys.stderr)
                ok = False
    sys.exit(0 if ok else 1)


# --- self-test corpus --------------------------------------------------------

META = ('{"kind":"meta","v":2,"run_seed":1,"a_n":4,"a_f":1,"b_n":4,"b_f":1,'
        '"retransmit_cap":12}')


def _ev(ts, node, kind, span, parent=0, transfer=None, extra=""):
    t = f',"transfer":{transfer},"coord":1,"epoch":0' if transfer else ""
    p = f',"parent":{parent}' if parent else ""
    return (f'{{"ts":{ts},"node":{node},"kind":"{kind}","span":{span}{p}'
            f'{t}{extra}}}')


# A two-hop pipeline: arrival handler -> send -> recv -> handler -> send ->
# recv -> done. All latency is transport delay.
PURE_NETWORK = "\n".join([
    META,
    _ev(1000, 4, "epoch_start", 1, transfer=1),
    _ev(1000, 4, "msg_send", 2, parent=1),
    _ev(3000, 5, "msg_recv", 3, parent=2),
    _ev(3000, 5, "commit_accepted", 4, parent=3, transfer=1),
    _ev(3000, 5, "msg_send", 5, parent=4),
    _ev(5000, 6, "msg_recv", 6, parent=5),
    _ev(5000, 6, "done_recorded", 7, parent=6, transfer=1),
])

# Overlapping transfers: transfer 2 arrives at 1000 while transfer 1 is in
# flight; its chain holds only its own spans, so none of transfer 1's
# latency is charged to it.
OVERLAPPING = "\n".join([
    META,
    _ev(0, 4, "epoch_start", 1, transfer=1),
    _ev(0, 4, "msg_send", 2, parent=1),
    _ev(1000, 4, "epoch_start", 3, transfer=2),
    _ev(1000, 4, "msg_send", 4, parent=3),
    _ev(2000, 5, "msg_recv", 5, parent=2),
    _ev(2000, 5, "done_recorded", 6, parent=5, transfer=1),
    _ev(3000, 5, "msg_recv", 7, parent=4),
    _ev(3000, 5, "done_recorded", 8, parent=7, transfer=2),
])

# A dropped frame: the backoff timer (armed in the span-4 handler at 1000)
# fires at 5000 and the retransmission completes the transfer.
RETRANSMIT = "\n".join([
    META,
    _ev(1000, 4, "epoch_start", 1, transfer=1),
    _ev(1000, 4, "msg_send", 2, parent=1),
    _ev(3000, 5, "msg_recv", 3, parent=2),
    _ev(3000, 5, "commit_sent", 4, parent=3, transfer=1),
    _ev(5000, 5, "retransmit", 8, parent=4, transfer=1,
        extra=',"key":3,"frames":1,"attempt":1,"cap":12'),
    _ev(5000, 5, "msg_send", 9, parent=8),
    _ev(7000, 6, "msg_recv", 10, parent=9),
    _ev(7000, 6, "done_recorded", 11, parent=10, transfer=1),
])

# A verdict 800 us after its message arrived: the wait is verify budget.
VERIFY_WAIT = "\n".join([
    META,
    _ev(1000, 4, "epoch_start", 1, transfer=1),
    _ev(1000, 4, "msg_send", 2, parent=1),
    _ev(3000, 5, "msg_recv", 3, parent=2),
    _ev(3800, 5, "verify_pass", 4, parent=3, transfer=1,
        extra=',"subject":4,"peer":2'),
    _ev(3800, 5, "msg_send", 5, parent=4),
    _ev(5800, 6, "msg_recv", 6, parent=5),
    _ev(5800, 6, "done_recorded", 7, parent=6, transfer=1),
])

# A wait the model cannot name (a poll timer edge): 3000 of 5000 us land in
# `other`, so a 0.95 budget gate must reject this trace.
UNATTRIBUTED = "\n".join([
    META,
    _ev(1000, 4, "epoch_start", 1, transfer=1),
    _ev(1000, 4, "msg_send", 2, parent=1),
    _ev(3000, 5, "msg_recv", 3, parent=2),
    _ev(6000, 5, "commit_sent", 4, parent=3, transfer=1),
    _ev(6000, 5, "done_recorded", 5, parent=4, transfer=1),
])

SELF_TESTS = [
    # (name, trace text, transfer, expected budget subset, gate_0_95_passes)
    ("pure-network", PURE_NETWORK, 1,
     {"total": 4000, "network": 4000, "other": 0}, True),
    ("overlapping-transfers", OVERLAPPING, 2,
     {"total": 2000, "network": 2000, "other": 0}, True),
    ("retransmit-backoff", RETRANSMIT, 1,
     {"total": 6000, "network": 4000, "retransmit_backoff": 2000, "other": 0},
     True),
    ("verify-wait", VERIFY_WAIT, 1,
     {"total": 4800, "network": 4000, "verify": 800, "other": 0}, True),
    ("unattributed-wait", UNATTRIBUTED, 1,
     {"total": 5000, "network": 2000, "other": 3000}, False),
]


# Prometheus snapshot exercising the crypto joins: two nodes on the ec255
# backend (ops must sum, the weight gauge must not), one handler family cell
# and a mod-p arm for the cross-backend shape.
PROM_SNAPSHOT = "\n".join([
    "# HELP dblind_group_ops_total group ops",
    'dblind_group_ops_total{backend="ec255",node="4"} 1500',
    'dblind_group_ops_total{backend="ec255",node="5"} 500',
    'dblind_group_op_weight{backend="ec255"} 25',
    'dblind_group_ops_total{backend="modp2048",node="6"} 100',
    'dblind_group_op_weight{backend="modp2048"} 2048',
    'dblind_handler_mont_muls_total{node="4",type="contribute"} 1200',
])


def _prom_join_self_test():
    problems = []
    with tempfile.NamedTemporaryFile("w", suffix=".prom", delete=False) as fh:
        fh.write(PROM_SNAPSHOT + "\n")
        path = fh.name
    try:
        samples = parse_prometheus(path)
        backends = backend_table(samples)
        want = {
            "ec255": {"group_ops": 2000, "weight": 25, "word_muls": 50000},
            "modp2048": {"group_ops": 100, "weight": 2048, "word_muls": 204800},
        }
        if backends != want:
            problems.append(f"backend join: want {want}, got {backends}")
        muls = mont_mul_table(samples)
        if muls.get("contribute") != 1200:
            problems.append(f"mont-mul join: want contribute=1200, got {muls}")
    finally:
        os.unlink(path)
    status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
    print(f"self-test {'backend-prom-join':24} {status}")
    return not problems


def run_self_test():
    failures = 0
    failures += not _prom_join_self_test()
    for name, text, transfer, expect, gate_ok in SELF_TESTS:
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as fh:
            fh.write(text + "\n")
            path = fh.name
        problems = []
        try:
            trace, budgets = analyze_file(path)
            problems += trace.errors
            if transfer not in budgets:
                problems.append(f"transfer {transfer} not completed")
            else:
                b = budgets[transfer]
                for key, want in expect.items():
                    if b[key] != want:
                        problems.append(f"{key}: want {want}, got {b[key]}")
                passed = all(x["attributed"] >= 0.95 for x in budgets.values())
                if passed != gate_ok:
                    problems.append(f"0.95 gate: want {gate_ok}, got {passed}")
        except TraceError as e:
            problems.append(str(e))
        finally:
            os.unlink(path)
        status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
        print(f"self-test {name:24} {status}")
        failures += bool(problems)
    return failures == 0


if __name__ == "__main__":
    main()
