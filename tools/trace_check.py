#!/usr/bin/env python3
"""Offline invariant checker for dblind JSONL traces (ISSUE 4).

Replays a trace produced by `dblind transfer --trace out.jsonl` (or any
obs::JsonlTraceRecorder stream) and checks protocol invariants that must hold
for every run, Byzantine or not:

  I1  every `done_recorded` is preceded by >= b_f+1 `verify_pass` events for
      contribute messages (subject 4) of the same instance, from distinct
      provers — no transfer completes without a verified blinding quorum.
  I2  every `reveal_sent` is preceded by >= 2*b_f+1 `commit_accepted` events
      at the same coordinator for the same instance, from distinct servers —
      no reveal before the commit quorum.
  I3  `epoch_start` epochs are strictly increasing per (node, transfer) —
      a restarted coordinator never reuses an epoch.
  I4  `retransmit` attempts are < cap, strictly increasing per (node, timer
      key), and cap never exceeds the run's configured retransmit cap.
  I6  cross-epoch isolation (PR 7): every contribute `verify_pass` backing a
      single instance carries the same config epoch — a transfer completes
      entirely within its birth configuration or aborts and re-runs; evidence
      from two epochs (hence two key-share polynomials) must never mix.
  I7  `epoch_install` config epochs are strictly increasing per node; a
      `restart` resets the baseline (a restored server legitimately replays
      the install chain from its durable snapshot).
  I8  transfer isolation (PR 8): every `contribute_cited` event backing an
      instance cites a contribution of that instance's OWN transfer id, and
      no instance that violated this ever reaches `done_recorded` — with many
      transfers in flight, evidence from one transfer must never leak into
      another's done record.
  I9  causal span forest (PR 9): span ids are unique across the run and
      every nonzero `parent` names a span that appeared EARLIER in the
      stream — spans are minted at record time, so a cause always precedes
      its effects (across message hops, timers, and crash/restart cycles).
  I11 a node emits at most one `epoch_start` per transfer between two of its
      own `restart` or `epoch_install` events — a backup coordinator's delay
      timer dies with the configuration it was armed under.
  I12 when the signing service has f >= 1, every `sign_done` is preceded by a
      `verify_pass` of the signing request's evidence for the same instance
      at a node other than the one recording it (subject 5, blind, for
      purpose 1; subject 6, done, for purpose 2) — every f+1 quorum holds a
      member besides the requester, and it checks before it reveals.

Stream handling (shared with trace_critpath.py via tracelib.py): traces are
read line-by-line, never slurped; the meta line's schema version must match
tracelib.TRACE_VERSION (old or future traces are rejected with the line
number); --max-events bounds the number of events the checker will
accumulate state for, aborting with a clear error instead of exhausting
memory on a runaway trace. Malformed lines are rejected with their line
number. With --latency the checker also prints a per-phase latency table
(virtual microseconds under the simulator).

Usage:
  trace_check.py trace.jsonl [--require kind,kind,...] [--latency] [--quiet]
                             [--max-events N]
  trace_check.py --generate-with path/to/dblind   # end-to-end self-exercise
  trace_check.py --self-test                      # embedded corpus
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

from tracelib import (KNOWN_KINDS, TRACE_VERSION, TraceError, TraceLimitError,
                      instance_of, iter_trace, parse_line)

SUBJECT_CONTRIBUTE = 4  # MsgType::kContribute
# I12: SignPurpose -> (MsgType of its request's evidence check, meta key of
# the signing service's f).
SIGN_CHECKS = {1: (5, "b_f"), 2: (6, "a_f")}
SIGN_SUBJECTS = {subject for subject, _ in SIGN_CHECKS.values()}


class Checker:
    """Streams events in file order and accumulates invariant state."""

    def __init__(self):
        self.meta = None
        self.counts = {}
        self.errors = []
        # I1: instance -> set of provers whose contribute passed so far.
        self.contribute_passes = {}
        # I2: (node, instance) -> set of servers whose commit was accepted.
        self.commits = {}
        # I3: (node, transfer) -> last announced epoch.
        self.last_epoch = {}
        # I4: (node, key) -> last attempt.
        self.last_attempt = {}
        # I6: instance -> set of config epochs on its contribute verify_passes.
        self.contribute_cfg_epochs = {}
        # I7: node -> highest installed config epoch since its last restart.
        self.installed_epoch = {}
        # I8: instance -> set of foreign transfer ids its evidence cited.
        self.foreign_cites = {}
        # I9: every span id seen so far (spans are minted in record order,
        # so a parent must already be here when its child arrives).
        self.spans_seen = set()
        # I11: (node, transfer) pairs opened since the node's last restart or
        # install.
        self.opened = set()
        # I12: (instance, subject) -> nodes whose sign-request check passed.
        self.sign_checks = {}
        # Latency bookkeeping: (phase) -> list of durations.
        self.latency = {}
        self._marks = {}       # (what, node, instance) -> ts
        self._first_start = {}  # transfer -> ts of first epoch_start
        self._done = {}        # transfer -> ts of first done_recorded

    def err(self, lineno, msg):
        self.errors.append(f"line {lineno}: {msg}")

    def _forget_opened(self, node):
        self.opened = {(n, t) for (n, t) in self.opened if n != node}

    def _mark(self, what, ev):
        self._marks[(what, ev["node"], instance_of(ev))] = ev["ts"]

    def _span(self, phase, begin_what, ev):
        t0 = self._marks.get((begin_what, ev["node"], instance_of(ev)))
        if t0 is not None:
            self.latency.setdefault(phase, []).append(ev["ts"] - t0)

    def feed(self, lineno, ev):
        kind = ev["kind"]
        if kind == "meta":
            if self.meta is not None:
                self.err(lineno, "duplicate meta line")
            self.meta = ev
            return
        self.counts[kind] = self.counts.get(kind, 0) + 1
        node, inst = ev["node"], instance_of(ev)

        span, parent = ev.get("span"), ev.get("parent")
        if parent is not None and parent not in self.spans_seen:
            self.err(lineno, f"I9: {kind} has parent span {parent} that no "
                             f"earlier event minted — orphan causal edge")
        if span is not None:
            if span in self.spans_seen:
                self.err(lineno, f"I9: span id {span} minted twice")
            self.spans_seen.add(span)

        if kind == "verify_pass" and ev.get("subject") == SUBJECT_CONTRIBUTE \
                and inst[0] is not None:
            self.contribute_passes.setdefault(inst, set()).add(ev.get("peer"))
            # cfg_epoch is suppressed in the JSONL when zero (seed epoch).
            self.contribute_cfg_epochs.setdefault(inst, set()).add(
                ev.get("cfg_epoch", 0))
        elif kind == "verify_pass" and inst[0] is not None and \
                ev.get("subject") in SIGN_SUBJECTS:
            self.sign_checks.setdefault((inst, ev.get("subject")), set()).add(node)
        elif kind == "commit_accepted":
            self.commits.setdefault((node, inst), set()).add(ev.get("from"))
        elif kind == "epoch_start":
            key = (node, inst[0])
            prev = self.last_epoch.get(key)
            if prev is not None and ev.get("epoch") <= prev:
                self.err(lineno, f"I3: node {node} transfer {inst[0]} announced "
                                 f"epoch {ev.get('epoch')} after epoch {prev}")
            self.last_epoch[key] = ev.get("epoch")
            if key in self.opened:
                self.err(lineno, f"I11: node {node} opened a second instance of "
                                 f"transfer {inst[0]} without a restart or "
                                 f"install in between")
            self.opened.add(key)
            self._mark("epoch_start", ev)
            self._first_start.setdefault(inst[0], ev["ts"])
        elif kind == "reveal_sent":
            if self.meta is not None:
                need = 2 * self.meta["b_f"] + 1
                got = len(self.commits.get((node, inst), set()))
                if got < need:
                    self.err(lineno, f"I2: reveal for {inst} after only {got} "
                                     f"accepted commits (need {need})")
            self._span("commit", "epoch_start", ev)
            self._mark("reveal_sent", ev)
        elif kind == "blind_sign_begin":
            self._span("contribute", "reveal_sent", ev)
            self._mark("blind_sign_begin", ev)
        elif kind == "sign_done":
            purpose = ev.get("purpose")
            if purpose == 1:
                self._span("blind_sign", "blind_sign_begin", ev)
            elif purpose == 2:
                self._span("done_sign", "done_sign_begin", ev)
            if self.meta is not None and purpose in SIGN_CHECKS:
                subject, f_key = SIGN_CHECKS[purpose]
                checkers = self.sign_checks.get((inst, subject), set()) - {node}
                if self.meta[f_key] >= 1 and not checkers:
                    self.err(lineno, f"I12: sign_done (purpose {purpose}) for "
                                     f"{inst} at node {node} without an earlier "
                                     f"verify_pass (subject {subject}) at another "
                                     f"node")
        elif kind == "decrypt_begin":
            self._mark("decrypt_begin", ev)
        elif kind == "decrypt_done":
            self._span("decrypt", "decrypt_begin", ev)
        elif kind == "done_sign_begin":
            self._mark("done_sign_begin", ev)
        elif kind == "done_recorded":
            if self.meta is not None:
                need = self.meta["b_f"] + 1
                got = len(self.contribute_passes.get(inst, set()))
                if got < need:
                    self.err(lineno, f"I1: done recorded for {inst} after only "
                                     f"{got} verified contributions (need {need})")
            if inst[0] is not None and inst[0] not in self._done:
                self._done[inst[0]] = ev["ts"]
            epochs = self.contribute_cfg_epochs.get(inst, set())
            if len(epochs) > 1:
                self.err(lineno, f"I6: instance {inst} completed with verified "
                                 f"contributions from config epochs "
                                 f"{sorted(epochs)} — cross-epoch evidence mix")
            foreign = self.foreign_cites.get(inst)
            if foreign:
                self.err(lineno, f"I8: instance {inst} done-recorded but its "
                                 f"evidence cited transfers {sorted(foreign)} "
                                 f"— cross-transfer contribution leak")
        elif kind == "retransmit":
            attempt, cap = ev.get("attempt"), ev.get("cap")
            if attempt is None or cap is None:
                self.err(lineno, "I4: retransmit without attempt/cap")
                return
            if attempt >= cap:
                self.err(lineno, f"I4: retransmit attempt {attempt} >= cap {cap}")
            if self.meta is not None and cap > self.meta["retransmit_cap"]:
                self.err(lineno, f"I4: cap {cap} exceeds configured "
                                 f"{self.meta['retransmit_cap']}")
            key = (node, ev.get("key"))
            prev = self.last_attempt.get(key)
            if prev is not None and attempt <= prev:
                self.err(lineno, f"I4: attempt {attempt} for timer {key} "
                                 f"not increasing (last {prev})")
            self.last_attempt[key] = attempt
        elif kind == "epoch_install":
            self._forget_opened(node)
            cfg = ev.get("cfg_epoch")
            if not isinstance(cfg, int) or cfg < 1:
                self.err(lineno, "I7: epoch_install without a positive cfg_epoch")
                return
            prev = self.installed_epoch.get(node)
            if prev is not None and cfg <= prev:
                self.err(lineno, f"I7: node {node} installed cfg_epoch {cfg} "
                                 f"after {prev} — config epochs only move forward")
            self.installed_epoch[node] = cfg
        elif kind == "epoch_abort":
            # Aborts are stamped with the NEW epoch that killed the instance;
            # an abort in the seed epoch is impossible.
            cfg = ev.get("cfg_epoch")
            if not isinstance(cfg, int) or cfg < 1:
                self.err(lineno, "I7: epoch_abort without a positive cfg_epoch")
        elif kind == "restart":
            # A restored server replays the install chain from its snapshot;
            # its monotonicity baseline starts over.
            self.installed_epoch.pop(node, None)
            self._forget_opened(node)
        elif kind == "contribute_cited":
            cited = ev.get("cited_transfer")
            if cited is None:
                self.err(lineno, "I8: contribute_cited without cited_transfer")
                return
            if inst[0] is not None and cited != inst[0]:
                self.foreign_cites.setdefault(inst, set()).add(cited)

    def finish(self):
        for transfer, t_done in self._done.items():
            t0 = self._first_start.get(transfer)
            if t0 is not None:
                self.latency.setdefault("end_to_end", []).append(t_done - t0)


def check_file(path, require=(), latency=False, quiet=False, max_events=None,
               out=sys.stdout):
    checker = Checker()
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in iter_trace(fh, max_events=max_events):
                try:
                    checker.feed(lineno, parse_line(lineno, line))
                except TraceError as e:
                    checker.errors.append(str(e))
        except TraceLimitError as e:
            # Unlike a malformed line this is not recoverable per-line: the
            # whole point of the guard is to stop accumulating state.
            checker.errors.append(str(e))
    checker.finish()
    if checker.meta is None:
        checker.errors.append("trace has no meta line (is this a dblind trace?)")
    for kind in require:
        if checker.counts.get(kind, 0) == 0:
            checker.errors.append(f"required event kind '{kind}' never occurred")

    if not quiet:
        total = sum(checker.counts.values())
        print(f"{path}: {total} events, {len(checker.errors)} invariant "
              f"violations", file=out)
        for kind in sorted(checker.counts):
            print(f"  {kind:18} {checker.counts[kind]}", file=out)
        if latency and checker.latency:
            print("phase latency (virtual us):", file=out)
            print(f"  {'phase':12} {'n':>4} {'min':>10} {'mean':>10} {'max':>10}",
                  file=out)
            order = ["commit", "contribute", "blind_sign", "decrypt",
                     "done_sign", "end_to_end"]
            for phase in order + sorted(set(checker.latency) - set(order)):
                vals = checker.latency.get(phase)
                if not vals:
                    continue
                print(f"  {phase:12} {len(vals):>4} {min(vals):>10} "
                      f"{sum(vals) // len(vals):>10} {max(vals):>10}", file=out)
    for e in checker.errors:
        print(f"ERROR: {e}", file=sys.stderr)
    return len(checker.errors) == 0


# --- self-test corpus --------------------------------------------------------

META = ('{"kind":"meta","v":2,"run_seed":1,"a_n":4,"a_f":1,"b_n":4,"b_f":1,'
        '"retransmit_cap":12}')
META_V1 = ('{"kind":"meta","run_seed":1,"a_n":4,"a_f":1,"b_n":4,"b_f":1,'
           '"retransmit_cap":12}')


def _commits(node, n):
    return "\n".join(
        f'{{"ts":{i},"node":{node},"kind":"commit_accepted","transfer":1,'
        f'"coord":1,"epoch":0,"from":{i + 1},"count":{i + 1}}}'
        for i in range(n))


def _passes(n, cfg_epoch=0):
    # cfg_epoch 0 is suppressed on the wire, exactly like the emitter does.
    tail = f',"cfg_epoch":{cfg_epoch}' if cfg_epoch else ""
    return "\n".join(
        f'{{"ts":{10 + i},"node":4,"kind":"verify_pass","transfer":1,'
        f'"coord":1,"epoch":0,"subject":4,"peer":{i + 1}{tail}}}'
        for i in range(n))


SELF_TESTS = [
    # (name, trace text, should_pass, expected substring in errors)
    ("clean-run", "\n".join([
        META,
        f'{{"ts":0,"node":4,"kind":"epoch_start","transfer":1,"coord":1,"epoch":0}}',
        _commits(4, 3),
        '{"ts":5,"node":4,"kind":"reveal_sent","transfer":1,"coord":1,"epoch":0,"count":3}',
        _passes(2),
        '{"ts":20,"node":4,"kind":"blind_sign_begin","transfer":1,"coord":1,"epoch":0,"count":2}',
        '{"ts":25,"node":5,"kind":"verify_pass","transfer":1,"coord":1,"epoch":0,"subject":5,"peer":1}',
        '{"ts":30,"node":4,"kind":"sign_done","transfer":1,"coord":1,"epoch":0,"purpose":1}',
        '{"ts":40,"node":0,"kind":"decrypt_begin","transfer":1,"coord":1,"epoch":0}',
        '{"ts":50,"node":0,"kind":"decrypt_done","transfer":1,"coord":1,"epoch":0,"count":2}',
        '{"ts":51,"node":0,"kind":"done_sign_begin","transfer":1,"coord":1,"epoch":0}',
        '{"ts":55,"node":1,"kind":"verify_pass","transfer":1,"coord":1,"epoch":0,"subject":6,"peer":1}',
        '{"ts":60,"node":0,"kind":"sign_done","transfer":1,"coord":1,"epoch":0,"purpose":2}',
        '{"ts":70,"node":5,"kind":"done_recorded","transfer":1,"coord":1,"epoch":0}',
        '{"ts":80,"node":4,"kind":"retransmit","transfer":1,"key":3,"frames":4,"attempt":1,"cap":12}',
        '{"ts":90,"node":4,"kind":"retransmit","transfer":1,"key":3,"frames":4,"attempt":2,"cap":12}',
    ]), True, None),
    ("done-without-quorum", "\n".join([
        META,
        _passes(1),
        '{"ts":70,"node":5,"kind":"done_recorded","transfer":1,"coord":1,"epoch":0}',
    ]), False, "I1"),
    ("reveal-without-commits", "\n".join([
        META,
        _commits(4, 2),
        '{"ts":5,"node":4,"kind":"reveal_sent","transfer":1,"coord":1,"epoch":0,"count":2}',
    ]), False, "I2"),
    ("epoch-reuse", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_start","transfer":1,"coord":1,"epoch":1}',
        '{"ts":9,"node":4,"kind":"epoch_start","transfer":1,"coord":1,"epoch":1}',
    ]), False, "I3"),
    ("retransmit-over-cap", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"retransmit","transfer":1,"key":3,"frames":4,"attempt":12,"cap":12}',
    ]), False, "I4"),
    ("retransmit-cap-exceeds-config", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"retransmit","transfer":1,"key":3,"frames":4,"attempt":1,"cap":99}',
    ]), False, "I4"),
    ("churn-clean-rotation", "\n".join([
        META,
        '{"ts":100,"node":4,"kind":"epoch_install","cfg_epoch":1,"rank":1,"n":5}',
        '{"ts":101,"node":5,"kind":"epoch_install","cfg_epoch":1,"rank":2,"n":5}',
        '{"ts":102,"node":4,"kind":"epoch_abort","transfer":1,"coord":1,"epoch":0,"cfg_epoch":1}',
        _passes(2, cfg_epoch=1),
        '{"ts":70,"node":5,"kind":"done_recorded","transfer":1,"coord":1,"epoch":0,"cfg_epoch":1}',
        '{"ts":200,"node":4,"kind":"epoch_install","cfg_epoch":2,"rank":1,"n":5}',
    ]), True, None),
    ("cross-epoch-contribute-mix", "\n".join([
        META,
        _passes(1),                 # seed-epoch contribution ...
        _passes(2, cfg_epoch=1),    # ... mixed with epoch-1 evidence
        '{"ts":70,"node":5,"kind":"done_recorded","transfer":1,"coord":1,"epoch":0}',
    ]), False, "I6"),
    ("install-epoch-regression", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_install","cfg_epoch":2,"rank":1,"n":4}',
        '{"ts":1,"node":4,"kind":"epoch_install","cfg_epoch":1,"rank":1,"n":4}',
    ]), False, "I7"),
    ("install-epoch-repeat", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_install","cfg_epoch":1,"rank":1,"n":4}',
        '{"ts":1,"node":4,"kind":"epoch_install","cfg_epoch":1,"rank":1,"n":4}',
    ]), False, "I7"),
    ("install-missing-cfg-epoch", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_install","rank":1,"n":4}',
    ]), False, "I7"),
    ("abort-in-seed-epoch", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_abort","transfer":1,"coord":1,"epoch":0}',
    ]), False, "I7"),
    ("restart-replays-install-chain", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_install","cfg_epoch":1,"rank":1,"n":4}',
        '{"ts":1,"node":4,"kind":"epoch_install","cfg_epoch":2,"rank":1,"n":4}',
        '{"ts":2,"node":4,"kind":"crash"}',
        '{"ts":3,"node":4,"kind":"restart"}',
        '{"ts":4,"node":4,"kind":"epoch_install","cfg_epoch":1,"rank":1,"n":4}',
        '{"ts":5,"node":4,"kind":"epoch_install","cfg_epoch":2,"rank":1,"n":4}',
    ]), True, None),
    ("concurrent-clean-isolation", "\n".join([
        META,
        _passes(2),
        '{"ts":20,"node":4,"kind":"contribute_cited","transfer":1,"coord":1,"epoch":0,"from":2,"cited_transfer":1}',
        '{"ts":21,"node":4,"kind":"contribute_cited","transfer":1,"coord":1,"epoch":0,"from":3,"cited_transfer":1}',
        '{"ts":70,"node":5,"kind":"done_recorded","transfer":1,"coord":1,"epoch":0}',
    ]), True, None),
    ("cross-transfer-cite-leak", "\n".join([
        META,
        _passes(2),
        '{"ts":20,"node":4,"kind":"contribute_cited","transfer":1,"coord":1,"epoch":0,"from":2,"cited_transfer":1}',
        '{"ts":21,"node":4,"kind":"contribute_cited","transfer":1,"coord":1,"epoch":0,"from":3,"cited_transfer":2}',
        '{"ts":70,"node":5,"kind":"done_recorded","transfer":1,"coord":1,"epoch":0}',
    ]), False, "I8"),
    ("cite-missing-transfer", "\n".join([
        META,
        '{"ts":20,"node":4,"kind":"contribute_cited","transfer":1,"coord":1,"epoch":0,"from":2}',
    ]), False, "I8"),
    ("foreign-cite-never-done-is-ok", "\n".join([
        # The leak is only a violation when the tainted instance completes;
        # an aborted instance that cited foreign evidence never done-records.
        META,
        '{"ts":20,"node":4,"kind":"contribute_cited","transfer":3,"coord":1,"epoch":0,"from":2,"cited_transfer":9}',
    ]), True, None),
    ("span-forest-ok", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_start","span":1,"transfer":1,"coord":1,"epoch":0}',
        '{"ts":1,"node":4,"kind":"msg_send","span":2,"parent":1,"peer":5,"type":2,"bytes":64}',
        '{"ts":9,"node":5,"kind":"msg_recv","span":3,"parent":2,"peer":4,"type":2,"bytes":64}',
        '{"ts":9,"node":5,"kind":"commit_accepted","span":4,"parent":3,"transfer":1,"coord":1,"epoch":0,"from":4,"count":1}',
    ]), True, None),
    ("span-orphan-parent", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_start","span":1,"transfer":1,"coord":1,"epoch":0}',
        '{"ts":1,"node":4,"kind":"msg_send","span":2,"parent":7,"peer":5,"type":2,"bytes":64}',
    ]), False, "I9"),
    ("span-minted-twice", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_start","span":1,"transfer":1,"coord":1,"epoch":0}',
        '{"ts":1,"node":5,"kind":"epoch_start","span":1,"transfer":2,"coord":1,"epoch":0}',
    ]), False, "I9"),
    ("one-instance-per-configuration", "\n".join([
        META,
        '{"ts":0,"node":5,"kind":"epoch_start","transfer":1,"coord":2,"epoch":0}',
        '{"ts":1,"node":5,"kind":"epoch_install","cfg_epoch":1,"rank":2,"n":4}',
        '{"ts":2,"node":5,"kind":"epoch_start","transfer":1,"coord":2,"epoch":1}',
        '{"ts":3,"node":5,"kind":"crash"}',
        '{"ts":4,"node":5,"kind":"restart"}',
        '{"ts":5,"node":5,"kind":"epoch_start","transfer":1,"coord":2,"epoch":2}',
        '{"ts":6,"node":4,"kind":"epoch_start","transfer":1,"coord":1,"epoch":0}',
    ]), True, None),
    ("stale-backup-timer-reopens", "\n".join([
        META,
        '{"ts":0,"node":5,"kind":"epoch_install","cfg_epoch":1,"rank":2,"n":4}',
        '{"ts":1,"node":5,"kind":"epoch_start","transfer":1,"coord":2,"epoch":0}',
        '{"ts":2,"node":5,"kind":"epoch_start","transfer":1,"coord":2,"epoch":1}',
    ]), False, "I11"),
    ("stall-events-known", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"epoch_start","span":1,"transfer":1,"coord":1,"epoch":0}',
        '{"ts":400000,"node":5,"kind":"stall","span":2,"parent":1,"transfer":1,"resends":2}',
        '{"ts":500000,"node":5,"kind":"stall_resolved","span":3,"parent":1,"transfer":1,"stalled_us":100000}',
    ]), True, None),
    ("sign-done-after-member-check", "\n".join([
        META.replace('"a_f":1', '"a_f":0'),
        '{"ts":1,"node":4,"kind":"verify_pass","transfer":1,"coord":1,"epoch":0,"subject":5,"peer":1}',
        '{"ts":2,"node":5,"kind":"verify_pass","transfer":1,"coord":1,"epoch":0,"subject":5,"peer":1}',
        '{"ts":3,"node":4,"kind":"sign_done","transfer":1,"coord":1,"epoch":0,"purpose":1}',
        # A lone A server (f = 0) signs with no other member to check.
        '{"ts":4,"node":0,"kind":"sign_done","transfer":1,"coord":1,"epoch":0,"purpose":2}',
    ]), True, None),
    ("sign-done-checked-only-by-requester", "\n".join([
        META,
        '{"ts":1,"node":4,"kind":"verify_pass","transfer":1,"coord":1,"epoch":0,"subject":5,"peer":1}',
        '{"ts":2,"node":5,"kind":"verify_pass","transfer":1,"coord":1,"epoch":0,"subject":6,"peer":1}',
        '{"ts":3,"node":4,"kind":"sign_done","transfer":1,"coord":1,"epoch":0,"purpose":1}',
    ]), False, "I12"),
    ("v1-trace-rejected", META_V1 + "\n", False, "unsupported trace schema"),
    ("future-version-rejected",
     META.replace('"v":2', '"v":3') + "\n", False, "unsupported trace schema"),
    ("malformed-json", META + "\n{not json}\n", False, "line 2"),
    ("not-an-object", META + "\n[1,2,3]\n", False, "line 2"),
    ("unknown-kind", META + '\n{"ts":1,"node":0,"kind":"mystery"}\n', False,
     "line 2"),
    ("missing-ts", META + '\n{"node":0,"kind":"crash"}\n', False, "line 2"),
    ("no-meta", '{"ts":1,"node":0,"kind":"crash"}\n', False, "no meta"),
    ("max-events-tripped", META + "\n" + "\n".join(
        f'{{"ts":{i},"node":0,"kind":"crash"}}' for i in range(8)),
     False, "exceeds --max-events=4", {"max_events": 4}),
    ("max-events-headroom", "\n".join([
        META,
        '{"ts":0,"node":4,"kind":"crash"}',
    ]), True, None, {"max_events": 4}),
]


def _known_kinds_self_test():
    """tracelib.KNOWN_KINDS must equal the names kind_name() emits."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "obs", "trace.cpp")
    with open(src, encoding="utf-8") as fh:
        emitted = set(re.findall(r'case EventKind::k\w+: return "(\w+)";', fh.read()))
    problems = []
    if not emitted:
        problems.append(f"no kind_name() cases found in {src}")
    if KNOWN_KINDS - emitted:
        problems.append(f"not emitted: {sorted(KNOWN_KINDS - emitted)}")
    if emitted - KNOWN_KINDS:
        problems.append(f"unknown to tracelib: {sorted(emitted - KNOWN_KINDS)}")
    status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
    print(f"self-test {'known-kinds-mirror-emitter':28} {status}")
    return not problems


def run_self_test():
    failures = int(not _known_kinds_self_test())
    for case in SELF_TESTS:
        name, text, should_pass, needle = case[:4]
        kwargs = case[4] if len(case) > 4 else {}
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
            fh.write(text + "\n")
            path = fh.name
        import io
        import contextlib
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            ok = check_file(path, quiet=True, **kwargs)
        os.unlink(path)
        problems = []
        if ok != should_pass:
            problems.append(f"expected {'pass' if should_pass else 'fail'}, "
                            f"got {'pass' if ok else 'fail'}")
        if needle and needle not in err.getvalue():
            problems.append(f"expected '{needle}' in errors, got: "
                            f"{err.getvalue().strip()!r}")
        status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
        print(f"self-test {name:28} {status}")
        failures += bool(problems)
    return failures == 0


def run_generate_with(cli):
    """Drives the CLI through a lossy Byzantine run and validates its trace."""
    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as fh:
        path = fh.name
    try:
        cmd = [cli, "transfer", "--bits", "128", "--message", "hi",
               "--seed", "7", "--loss", "10", "--byzantine", "badvde",
               "--trace", path]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if res.returncode != 0:
            print(f"ERROR: {' '.join(cmd)} exited {res.returncode}:\n"
                  f"{res.stdout}{res.stderr}", file=sys.stderr)
            return False
        return check_file(path, require=("retransmit", "verify_fail",
                                         "done_recorded"), latency=True)
    finally:
        os.unlink(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="?", help="JSONL trace file")
    ap.add_argument("--require", default="",
                    help="comma-separated event kinds that must occur")
    ap.add_argument("--latency", action="store_true",
                    help="print the per-phase latency table")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--max-events", type=int, default=None, metavar="N",
                    help="abort (with an error) past N events instead of "
                         "accumulating unbounded state")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded corpus")
    ap.add_argument("--generate-with", metavar="DBLIND",
                    help="run this dblind binary to produce and check a trace")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(0 if run_self_test() else 1)
    if args.generate_with:
        sys.exit(0 if run_generate_with(args.generate_with) else 1)
    if not args.trace:
        ap.error("need a trace file, --self-test, or --generate-with")
    require = tuple(k for k in args.require.split(",") if k)
    sys.exit(0 if check_file(args.trace, require=require, latency=args.latency,
                             quiet=args.quiet, max_events=args.max_events)
             else 1)


if __name__ == "__main__":
    main()
