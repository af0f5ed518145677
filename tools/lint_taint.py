#!/usr/bin/env python3
"""Secret-flow taint lint for the dblind re-encryption stack.

``lint_crypto.py`` pattern-matches single lines: it catches ``std::cout <<
share`` but not ``auto tmp = share; std::cout << tmp;``. This linter closes
that gap with an **intra-procedural dataflow pass** over every function body
in ``src/``: taint is seeded at secret *sources*, propagated through
assignments, arithmetic and function-call returns, and reported when it
reaches a *sink* — unless the flow passed through an approved *laundering*
call first.

Sources (what seeds taint):
  * naming convention — identifiers whose name marks them as secret-bearing
    anywhere in the protocol stack: ``rho*``, ``r1``/``r2``, ``share*``,
    ``secret*``, ``witness*``, ``nonce*``, ``sk*``/``priv*``, ``key_share*``,
    ``blinding*``, ``exponent*``-named locals and members — and, for the EC
    backend, ``scalar*``/``clamped*`` (a scalar is the curve-side spelling
    of a secret exponent). These are tainted at every use; renaming a
    secret does not launder it (the assignment propagates the taint to the
    new name).
  * ``mpz::Prng`` draws — ``prng.*``, ``ctx.rng()``, ``random_element()``,
    ``random_exponent()``, ``uniform_*()``, ``.fork()``. Raw randomness is
    secret until laundered.
  * decryption — any ``*decrypt*(...)`` call return. A value that was safely
    encrypted becomes secret *again* the moment it is decrypted
    (re-tainting), even if the ciphertext variable was clean.
  * the field registry — a declaration carrying a trailing ``// taint:secret``
    comment registers that field/variable name as tainted in every function
    of the file (for secrets whose names are protocol-neutral, e.g. a member
    ``x_`` holding a Shamir share).

Propagation: ``lhs = expr`` / ``lhs op= expr`` / ``Type lhs(expr)`` taints
``lhs`` whenever ``expr`` mentions tainted material and no laundering call
wraps it. Overwriting a propagated-taint variable with a clean expression
clears it (flow sensitivity); name-based taint cannot be cleared.

Laundering (approved one-way/enciphering transforms whose output is public
by design): ``encrypt*``, ``commit*``, ``hash*``/``sha256*``/``digest*``,
transcript ``absorb*``/``challenge*``, group exponentiation (``pow``,
``pow_g``, ``pow_fixed``, ``pow2``, ``multi_pow`` — DL-hard),
and the wire-framing path ``make_envelope``/``sign``/``frame_bytes``/
``frame_signed`` (its output is a signed protocol message, public by
definition). Length/size projections
(``bit_length()``, ``size()``) are deliberately NOT laundering — consistent
with lint_crypto's trace-hygiene rule.

Sinks (where tainted values must never arrive):
  taint-trace       arguments of ``emit_*``/``record*`` observability calls
                    and of the modules' trace hook ``trace``/``verdict``
                    (multi-line calls included)
  taint-metric      arguments of metric-handle updates ``.inc()``/``.set()``/
                    ``.observe()``
  taint-log         ``std::cout``/``cerr``/``clog`` insertion, printf-family,
                    ``std::format`` — plus stream-insertion via a named
                    ostream (``os << tainted``)
  taint-snapshot    bodies of ``::snapshot()`` durable-state serializers.
                    Only *ephemeral* secrets fire here (rho, r1/r2, nonces,
                    witnesses, prng state, pool bundles): snapshots exist to
                    persist long-lived key material, but single-use
                    randomness must never survive a crash (re-proving over
                    it after restore breaks witness secrecy).
  taint-retransmit  the retransmit cache: assignments into ``*frame*`` /
                    ``*retransmit_cache*`` members and the arguments of the
                    retransmission entry points (``broadcast*`` — every
                    Recovery broadcast — ``resend_frame``, ``arm_resend``,
                    ``cache_frame*``) must carry framed signed bytes, never
                    raw secrets.

Waivers: append ``// taint-lint: allow(<rule>) <reason>`` to the flagged
line (or the line directly above). A reason is mandatory.

Exit codes: 0 clean, 1 violations, 2 usage error. ``--self-test`` runs the
embedded corpus (multi-step propagation, laundering, re-tainting after
decrypt, suppressions) and fails if any rule stops firing.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import List, Set, Tuple

import lintlib
from lintlib import Finding

# --- sources -----------------------------------------------------------------

# Identifiers tainted by naming convention (matched against whole words).
SECRET_NAME = re.compile(
    r"^(?:rho\w*|r1|r2|shares?\w*|secrets?\w*|witness\w*|nonces?\w*|sk\w*|"
    r"priv\w*|key_share\w*|blinding\w*|decrypt_share\w*|exponents?\w*|"
    # Re-sharing sub-shares (PR 7): a dealer's point evaluations of its own
    # share; any one of them plus the dealer's commitments pins the share.
    r"subshares?\w*|enc_sub\w*|sign_sub\w*|"
    # EC backend (PR 10): scalars are the curve-side spelling of secret
    # exponents (key shares, rho, clamped keys); sk_* is covered by sk\w*.
    r"scalars?\w*|clamped\w*)$",
    re.IGNORECASE,
)

# The subset that is *ephemeral* (single-use randomness): the only class of
# secret that the snapshot sink rejects.
EPHEMERAL_NAME = re.compile(
    r"^(?:rho\w*|r1|r2|nonces?\w*|witness\w*|prng\w*|bundles?\w*|pool\w*)$",
    re.IGNORECASE,
)

# An expression drawing fresh randomness (result: tainted AND ephemeral).
PRNG_DRAW = re.compile(
    r"\bprng\b|\brng\s*\(|\.fork\s*\(|\brandom_element\s*\(|"
    r"\brandom_exponent\s*\(|\buniform_\w+\s*\("
)

# An expression whose result is freshly-decrypted plaintext (re-tainting:
# the ciphertext may have been clean, the plaintext is secret again).
DECRYPT_CALL = re.compile(r"\b\w*decrypt\w*\s*\(", re.IGNORECASE)

# Field-registry annotation on a declaration line.
REGISTRY_MARK = re.compile(r"//\s*taint:secret\b")
# The declared identifier: last word before ; = { ( on the code part.
DECL_NAME = re.compile(r"([A-Za-z_]\w*)\s*(?:;|=|\{|\()")

# --- laundering --------------------------------------------------------------

LAUNDER_CALL = re.compile(
    r"\b(?:encrypt\w*|commit\w*|hash\w*|sha256\w*|digest\w*|absorb\w*|"
    r"challenge\w*|pow_g|pow_fixed|pow2|multi_pow|pow|"
    r"make_envelope|frame_bytes|signed_frame|frame_signed|frame_service|sign|"
    r"check_\w+|verify\w*)\s*\("
)

# Public projections of secret-holding structs: identity/shape metadata whose
# value is protocol-public even though the owning object carries secrets
# (e.g. ``secrets_.rank`` — the server's rank — vs ``secrets_.sign_share``).
PUBLIC_PROJECTION = re.compile(r"\b[A-Za-z_][\w]*\s*(?:\.|->)\s*(?:rank|role)\b")

# --- sinks -------------------------------------------------------------------

TRACE_SINK = re.compile(r"\b(?:emit\w*|record\w*|trace|verdict)\s*\(")
METRIC_SINK = re.compile(r"\.(?:inc|set|observe)\s*\(")
LOG_SINK = re.compile(
    r"std::(cout|cerr|clog)\b|\bf?printf\s*\(|\bputs\s*\(|\bstd::format\s*\(|"
    r"\bsyslog\s*\(|\bos\s*<<"
)
RETRANSMIT_CALL_SINK = re.compile(
    r"\b(?:arm_resend|broadcast\w*|resend_frame|cache_frames?\w*|store_frames?\w*)\s*\("
)
RETRANSMIT_ASSIGN_SINK = re.compile(
    r"((?:[A-Za-z_]\w*\.)*\w*(?:frame|retransmit_cache)\w*)\s*=(?!=)(.*)$"
)

# Column-0 function definition (same heuristic the crypto lint uses for its
# region tracking: a non-indented line with a call-shaped head that does not
# end in ';').
FN_DEF = re.compile(r"^[\w:<>,&*~\[\]\s]*\b[\w~]+\s*\(")
SNAPSHOT_FN = re.compile(r"::snapshot\s*\(")

WORD = re.compile(r"[A-Za-z_]\w*")

WAIVER = lintlib.make_waiver_re("taint-lint")

# Assignment: optional decl type, dotted lhs, then = / += / ^= ... (not ==).
ASSIGN = re.compile(
    r"^\s*(?:[\w:<>,\s&*]*?[\s&*])?"
    r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\s*(?:[-+*/|^&]?=)(?![=<>])\s*(.+)$"
)
# Constructor-style local declaration: `Bigint tmp(rho);` / `Bigint tmp{rho};`
CTOR_DECL = re.compile(r"^\s*(?:[\w:<>]+\s+)+([A-Za-z_]\w*)\s*[({](.*)[)}]\s*;")


def strip_laundered(text: str) -> str:
    """Remove the balanced argument text of every laundering call.

    ``emit(commitment(rho))`` becomes ``emit()`` — the laundered occurrence
    of ``rho`` can no longer match, while unlaundered uses of the same name
    elsewhere on the line still do. The receiver chain of a laundering
    method call is removed with it (``ms.member->commitment()`` launders
    ``ms``: a commitment *of* a tainted object is public by design), and
    public projections (``secrets_.rank``) are blanked first.
    """
    text = PUBLIC_PROJECTION.sub("", text)
    while True:
        m = LAUNDER_CALL.search(text)
        if m is None:
            return text
        # Extend backwards over the receiver chain: obj.method(, obj->method(.
        start = m.start()
        while start > 0 and (text[start - 1].isalnum() or text[start - 1] in "_.->:"):
            start -= 1
        open_paren = m.end() - 1
        depth = 0
        end = None
        for i in range(open_paren, len(text)):
            if text[i] in "([{":
                depth += 1
            elif text[i] in ")]}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end is None:  # call spans past this line: drop the rest
            return text[:start]
        text = text[:start] + text[end + 1:]


class TaintState:
    """Per-function taint: propagated names on top of the naming convention."""

    def __init__(self, registry: Set[str]):
        self.registry = registry
        self.tainted: Set[str] = set()    # propagated (flow-killable)
        self.ephemeral: Set[str] = set()  # propagated single-use randomness

    def is_tainted(self, word: str) -> bool:
        return bool(SECRET_NAME.match(word)) or word in self.registry or word in self.tainted

    def is_ephemeral(self, word: str) -> bool:
        return bool(EPHEMERAL_NAME.match(word)) or word in self.ephemeral

    def tainted_words(self, text: str, ephemeral_only: bool = False) -> List[str]:
        check = self.is_ephemeral if ephemeral_only else self.is_tainted
        return [w for w in WORD.findall(text) if check(w)]


def collect_registry(lines: List[str]) -> Set[str]:
    """Names declared with a trailing ``// taint:secret`` comment."""
    names: Set[str] = set()
    for raw in lines:
        if not REGISTRY_MARK.search(raw):
            continue
        code = lintlib.strip_comments_and_strings(raw)
        m = DECL_NAME.search(code)
        if m:
            names.add(m.group(1))
    return names


def split_functions(lines: List[str]) -> List[Tuple[int, List[int]]]:
    """Column-0 function regions: (def line index, body line indices)."""
    regions: List[Tuple[int, List[int]]] = []
    in_fn = False
    start = 0
    body: List[int] = []
    for idx, raw in enumerate(lines):
        code = lintlib.strip_comments_and_strings(raw)
        if in_fn:
            if raw.startswith("}"):
                regions.append((start, body))
                in_fn = False
                body = []
            else:
                body.append(idx)
        elif (FN_DEF.search(code) and raw and not raw[0].isspace()
              and not code.rstrip().endswith(";")):
            in_fn = True
            start = idx
            body = [idx]  # include the signature: parameters can be sources
    if in_fn:
        regions.append((start, body))
    return regions


def lint_text(rel_path: str, text: str) -> List[Finding]:
    lines = text.splitlines()
    registry = collect_registry(lines)
    findings: List[Finding] = []
    seen: Set[Tuple[int, str]] = set()

    def flag(idx: int, rule: str, message: str) -> None:
        if (idx, rule) in seen:
            return
        if lintlib.waived(lines, idx, rule, WAIVER):
            return
        seen.add((idx, rule))
        findings.append(Finding(rel_path, idx + 1, rule, message))

    for def_idx, body in split_functions(lines):
        def_code = lintlib.strip_comments_and_strings(lines[def_idx])
        in_snapshot = bool(SNAPSHOT_FN.search(def_code))
        state = TaintState(registry)
        # Two passes: the second catches taint that flows "backward" through
        # a loop (a name tainted late in the body, used in a sink earlier).
        for _ in range(2):
            sink_depth = 0  # open multi-line trace/metric sink call
            sink_rule = ""
            for idx in body:
                raw = lines[idx]
                code = lintlib.strip_comments_and_strings(raw)
                laundered = strip_laundered(code)

                # -- continuation of a multi-line sink call ------------------
                if sink_depth > 0:
                    for w in state.tainted_words(strip_laundered(code)):
                        flag(idx, sink_rule,
                             f"tainted value '{w}' reaches a {sink_rule.removeprefix('taint-')} "
                             "sink (continuation line of a multi-line call)")
                    sink_depth = max(0, sink_depth + code.count("(") - code.count(")"))

                # -- propagation ---------------------------------------------
                m = ASSIGN.match(code) or CTOR_DECL.match(code)
                if m:
                    lhs, rhs = m.group(1), m.group(2)
                    lhs_base = lhs.split(".", 1)[0]
                    rhs_launder_free = strip_laundered(rhs)
                    rhs_tainted = (bool(state.tainted_words(rhs_launder_free))
                                   or bool(DECRYPT_CALL.search(rhs_launder_free)))
                    rhs_ephemeral = (bool(state.tainted_words(rhs_launder_free,
                                                              ephemeral_only=True))
                                     or bool(PRNG_DRAW.search(rhs_launder_free)))
                    if rhs_tainted or rhs_ephemeral:
                        state.tainted.update({lhs, lhs_base})
                        if rhs_ephemeral:
                            state.ephemeral.update({lhs, lhs_base})
                    else:
                        # Clean overwrite kills *propagated* taint. Name-based
                        # taint is not killable: a variable called rho_copy
                        # stays suspect.
                        state.tainted.discard(lhs)
                        state.ephemeral.discard(lhs)

                # -- sinks ---------------------------------------------------
                if in_snapshot:
                    for w in state.tainted_words(laundered, ephemeral_only=True):
                        flag(idx, "taint-snapshot",
                             f"ephemeral secret '{w}' inside a snapshot() body: "
                             "single-use randomness must never reach durable state")

                for sink_re, rule in ((TRACE_SINK, "taint-trace"),
                                      (METRIC_SINK, "taint-metric"),
                                      (RETRANSMIT_CALL_SINK, "taint-retransmit")):
                    for call in sink_re.finditer(code):
                        seg = strip_laundered(code[call.end() - 1:])
                        for w in state.tainted_words(seg):
                            flag(idx, rule,
                                 f"tainted value '{w}' flows into a "
                                 f"{rule.removeprefix('taint-')} sink "
                                 f"'{code[call.start():call.end()].strip()}...)'")
                        raw_seg = code[call.end() - 1:]
                        depth = raw_seg.count("(") - raw_seg.count(")")
                        if depth > 0:
                            sink_depth = depth
                            sink_rule = rule

                if LOG_SINK.search(code):
                    for w in state.tainted_words(laundered):
                        flag(idx, "taint-log",
                             f"tainted value '{w}' reaches a logging/formatting sink")

                m = RETRANSMIT_ASSIGN_SINK.search(code)
                if m and not LAUNDER_CALL.search(m.group(2)):
                    for w in state.tainted_words(m.group(2)):
                        flag(idx, "taint-retransmit",
                             f"tainted value '{w}' stored into retransmit-cache "
                             f"member '{m.group(1)}'; cache framed signed bytes only")

    return findings


# --------------------------------------------------------------------------
# Self-test corpus. Each case: (rule-that-must-fire-or-None, snippet).
# Snippets are full column-0 function bodies, as the dataflow pass sees them.
def _fn(body: str, sig: str = "void example_fn(net::Context& ctx)") -> str:
    return f"{sig} {{\n{body}\n}}"


SELF_TEST_CASES = [
    # ---- direct flows into sinks (baseline parity with lint_crypto) -------
    ("taint-trace", _fn("  emit_trace(ctx, kind, nullptr, {.count = rho.words()});")),
    ("taint-log", _fn('  std::cout << "share: " << share << "\\n";')),
    ("taint-metric", _fn("  depth_metric_.set(witness_r1.words());")),
    ("taint-trace", _fn("  recorder->record(make_event(nonce));")),
    # the protocol modules reach the recorder through Local::trace/verdict:
    ("taint-trace", _fn("  l.trace(obs::EventKind::kCommitSent, &id, {.peer = rho.words()});")),
    ("taint-trace", _fn("  l.verdict(ok, true, nullptr, share.index, MsgType::kContribute);")),
    # ---- multi-step propagation -------------------------------------------
    ("taint-trace", _fn(
        "  auto tmp = rho;\n"
        "  emit_trace(ctx, kind, nullptr, {.count = tmp.words()});")),
    ("taint-log", _fn(
        "  mpz::Bigint a = sk_share;\n"
        "  mpz::Bigint b = a + mpz::Bigint(1);\n"
        "  std::cout << b.to_hex();")),
    ("taint-log", _fn(
        "  auto x = secrets_.enc_share;\n"
        "  auto y = x;\n"
        "  auto z = y;\n"
        "  std::cout << z.to_hex();")),
    ("taint-metric", _fn(
        "  Bigint masked = blinding_factor ^ pad;\n"
        "  gauge_.set(masked.words());")),
    ("taint-trace", _fn(
        "  Bigint doubled(witness);\n"
        "  emit_trace(ctx, kind, nullptr, {.count = doubled.words()});")),
    # propagation through arithmetic on the rhs:
    ("taint-log", _fn(
        "  auto sum = pub + rho;\n"
        "  std::cout << sum.to_hex();")),
    # ---- prng draws are sources even with neutral names -------------------
    ("taint-trace", _fn(
        "  auto mask = gp.random_exponent(prng);\n"
        "  emit_trace(ctx, kind, nullptr, {.count = mask.words()});")),
    ("taint-log", _fn(
        "  auto fresh = prng.uniform_below(q);\n"
        "  std::cout << fresh.to_hex();")),
    # ---- re-tainting after decrypt ----------------------------------------
    ("taint-log", _fn(
        "  auto plain = service.decrypt(ct);\n"
        "  std::cout << plain.to_hex();")),
    ("taint-trace", _fn(
        "  auto m = thresh_decrypt_combine(gp, replies);\n"
        "  emit_trace(ctx, kind, nullptr, {.count = m.words()});")),
    # the ciphertext itself was clean before the decrypt:
    (None, _fn(
        "  auto ct = wire.ciphertext;\n"
        "  std::cout << ct.c1.to_hex();")),
    # ---- taint:secret field registry --------------------------------------
    ("taint-log", "struct S {\n"
     "  mpz::Bigint x_;  // taint:secret — Shamir share under a neutral name\n"
     "};\n"
     "void S::debug() {\n"
     "  std::cout << x_.to_hex();\n"
     "}"),
    ("taint-trace", "mpz::Bigint stash_;  // taint:secret pooled witness\n"
     "void tick(net::Context& ctx) {\n"
     "  auto v = stash_;\n"
     "  emit_trace(ctx, kind, nullptr, {.count = v.words()});\n"
     "}"),
    (None, "struct S {\n"
     "  mpz::Bigint x_;  // plain public accumulator\n"
     "};\n"
     "void S::debug() {\n"
     "  std::cout << x_.to_hex();\n"
     "}"),
    # ---- laundering -------------------------------------------------------
    (None, _fn(
        "  auto ct = cfg.a.encryption_key.encrypt(rho, ctx.rng());\n"
        "  std::cout << ct.c1.to_hex();")),
    (None, _fn(
        "  auto c = commitment(share, r);\n"
        "  emit_trace(ctx, kind, nullptr, {.count = c.words()});")),
    (None, _fn(
        "  auto d = sha256_hex(witness.to_bytes_be());\n"
        "  std::cout << d;")),
    (None, _fn(
        "  auto y = gp.pow_g(sk_share);\n"
        "  std::cout << y.to_hex();")),
    # laundering inside the sink argument itself:
    (None, _fn("  emit_trace(ctx, kind, nullptr, {.count = hash_u64(nonce)});")),
    # laundering does NOT cover a sibling unlaundered use on the same line:
    ("taint-log", _fn("  std::cout << hash_u64(nonce) << nonce.to_hex();")),
    # length projections are not laundering (matches lint_crypto policy):
    ("taint-trace", _fn("  emit_trace(ctx, kind, nullptr, {.count = rho.bit_length()});")),
    # ---- flow kill: clean overwrite ---------------------------------------
    (None, _fn(
        "  auto v = rho;\n"
        "  v = mpz::Bigint(0);\n"
        "  std::cout << v.to_hex();")),
    # ...but a name-based secret stays tainted after overwrite:
    ("taint-log", _fn(
        "  rho_copy = mpz::Bigint(0);\n"
        "  rho_copy = other;\n"
        "  std::cout << rho_copy.to_hex();")),
    # ---- snapshot sink: ephemeral secrets only ----------------------------
    ("taint-snapshot",
     "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
     "  w.bigint(rho_backup);\n"
     "}"),
    ("taint-snapshot",
     "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
     "  for (const auto& bundle : entries_) put_bundle(w, bundle);\n"
     "}"),
    ("taint-snapshot",
     "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
     "  auto stash = nonce_cache_;\n"
     "  w.bytes(stash);\n"
     "}"),
    # the durable record is built inside snapshot() itself, so an ephemeral
    # secret placed into it is seen where it enters:
    ("taint-snapshot",
     "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
     "  SnapshotRecord record{ledger_.stored, ledger_.pending_store, ledger_.transfers,\n"
     "                        blinding_.next_epochs(), rho_dones_};\n"
     "  return group::to_bytes(kSnapshotVersion, record);\n"
     "}"),
    # long-lived key material in a snapshot is the point of snapshots:
    (None,
     "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
     "  w.u32(static_cast<std::uint32_t>(transfers_.size()));\n"
     "  for (TransferId t : transfers_) w.u64(t);\n"
     "}"),
    # ---- retransmit-cache sink --------------------------------------------
    ("taint-retransmit", _fn(
        "  st.commit_frame = rho.to_bytes_be();")),
    ("taint-retransmit", _fn(
        "  arm_resend(ctx, witness_bytes);")),
    ("taint-retransmit", _fn(
        "  auto leaked = r1;\n"
        "  cache_frames(st, leaked);")),
    # the retransmission module's entry points are sinks too:
    ("taint-retransmit", _fn(
        "  auto mask = gp.random_exponent(prng);\n"
        "  l.resend.broadcast(l.ctx, l.cfg.b.nodes(), mask.to_bytes_be(), {});")),
    ("taint-retransmit", _fn(
        "  l.resend.resend_frame(l.ctx, to, nonce.to_bytes_be());")),
    (None, _fn(
        "  l.resend.broadcast(l.ctx, l.cfg.b.nodes(),\n"
        "                     frame_signed(l.sign(encode_body(MsgType::kInit, init))), {});")),
    # the legitimate path: framed, signed envelope bytes
    (None, _fn(
        "  auto env = make_envelope(cfg_, secrets_, body, ctx.rng());\n"
        "  st.commit_frame = frame_bytes(env);")),
    (None, _fn(
        "  st.commit_frame = signed_frame(ctx, encode_body(MsgType::kCommit, commit));")),
    # public projections of a secret-holding struct carry no taint:
    (None, _fn(
        "  commit.server = secrets_.rank;\n"
        "  st.commit_frame = signed_frame(ctx, encode_body(MsgType::kCommit, commit));")),
    (None, _fn(
        "  InstanceId id{transfer, secrets_.rank, epoch};\n"
        "  emit_trace(ctx, obs::EventKind::kEpochStart, &id);")),
    # ...but secret fields of the same struct do:
    ("taint-log", _fn(
        "  auto s = secrets_.sign_share;\n"
        "  std::cout << s.to_hex();")),
    # a laundering method call launders its receiver chain too — the
    # commitment *of* a tainted signing member is public by design:
    (None, _fn(
        "  ms.member = make_member(secrets_.sign_share, ctx.rng());\n"
        "  reply.commit = ms.member->commitment();\n"
        "  ms.commit_frame = signed_frame(ctx, encode_body(MsgType::kReply, reply));")),
    # verification helpers launder: a verdict over secret-adjacent input is
    # public (it decides protocol control flow anyway):
    (None, _fn(
        "  auto contribute = check_contribute(cfg_, env, ctx.rng());\n"
        "  record_contribute_verdict(ctx, env, &*contribute);")),
    # ---- multi-line sink calls --------------------------------------------
    ("taint-trace", _fn(
        "  emit_trace(ctx, obs::EventKind::kRetransmit, nullptr,\n"
        "             {.transfer = r.transfer,\n"
        "              .count = nonce_commitment.words()});")),
    (None, _fn(
        "  emit_trace(ctx, obs::EventKind::kVerifyPass, &contribute->id,\n"
        "             {.peer = contribute->server,\n"
        "              .subject = static_cast<std::uint32_t>(MsgType::kContribute)});")),
    # ---- suppression comments ---------------------------------------------
    (None, _fn(
        "  // taint-lint: allow(taint-log) toy-parameter debug build only\n"
        "  std::cout << share.to_hex();")),
    (None, _fn(
        "  std::cout << share.to_hex();  "
        "// taint-lint: allow(taint-log) test vector, kToy64 params")),
    # a waiver without a reason does not waive:
    ("taint-log", _fn(
        "  // taint-lint: allow(taint-log)\n"
        "  std::cout << share.to_hex();")),
    # a waiver for a different rule does not waive:
    ("taint-log", _fn(
        "  // taint-lint: allow(taint-trace) wrong rule\n"
        "  std::cout << share.to_hex();")),
    # ---- re-sharing sub-shares (PR 7) -------------------------------------
    # A sub-share is as sensitive as the share it interpolates to; the
    # naming convention taints subshare*/enc_sub*/sign_sub* directly.
    ("taint-log", _fn(
        "  auto subshare = reshare_deal(params, secrets_.enc_share, prng);\n"
        "  std::cout << subshare.to_hex();")),
    ("taint-trace", _fn(
        "  emit_trace(ctx, kind, nullptr, {.count = msg.enc_sub.words()});")),
    ("taint-retransmit", _fn(
        "  st.commit_frame = sign_sub.to_bytes_be();")),
    # ReshareSubshareMsg's fields carry the registry mark in messages.hpp;
    # mirror that shape here so the decl-registry path covers them too:
    ("taint-log", "struct ReshareSubshareMsg {\n"
     "  mpz::Bigint e_;  // taint:secret — sub-share of the encryption share\n"
     "};\n"
     "void dump(const ReshareSubshareMsg& m) {\n"
     "  std::cout << m.e_.to_hex();\n"
     "}"),
    # ---- EC backend scalars (PR 10) ----------------------------------------
    # A scalar is the curve-side spelling of a secret exponent; the naming
    # convention taints scalar*/clamped* directly (sk_* via sk*).
    ("taint-log", _fn(
        "  auto scalar = params.to_scalar(secrets_.enc_share);\n"
        "  std::cout << scalar.to_hex();")),
    ("taint-trace", _fn(
        "  emit_trace(ctx, kind, nullptr, {.count = clamped_key.words()});")),
    ("taint-log", _fn(
        "  mpz::Bigint sk_scalar = prng.uniform_below(params.q());\n"
        "  printf(\"%s\", sk_scalar.to_hex().c_str());")),
    # a laundered scalar (through pow) is public — a public key:
    (None, _fn(
        "  auto y = params.pow_g(sk_scalar);\n"
        "  std::cout << y.to_hex();")),
    # The legitimate wire path: sub-shares travel only inside a signed,
    # encoded envelope frame — that is laundering, same as commit frames:
    (None, _fn(
        "  sub.enc_sub = eval_poly(coeffs, target_rank);\n"
        "  ctx.send(to, frame_client(encode_body(MsgType::kReshareSubshare, sub)));")),
    # Feldman commitments *to* a sub-share polynomial are public by design:
    (None, _fn(
        "  auto cs = reshare_commitments(params, deal.commitments, rank);\n"
        "  emit_trace(ctx, kind, nullptr, {.count = cs.size()});")),
    # ---- false-positive guards --------------------------------------------
    # string literals mentioning secrets (e.g. test names) are not values —
    # the shared stripping in lintlib blanks them before matching:
    (None, _fn('  std::cout << "secret-sharing smoke test passed\\n";')),
    (None, _fn('  log_line("rho commitment verified", count);')),
    (None, _fn('  printf("blinding share test %d\\n", test_id);')),
    # public protocol coordinates:
    (None, _fn(
        "  emit_trace(ctx, obs::EventKind::kCommitSent, &init->id);\n"
        "  counter_.inc();\n"
        "  depth_gauge_.set(entries);")),
    # arithmetic purely over public values:
    (None, _fn(
        "  auto total = base + offset;\n"
        "  std::cout << total;")),
]
# Corpus size guard: the PR contract says >= 30 adversarial cases.
assert len(SELF_TEST_CASES) >= 30, "taint corpus shrank below 30 cases"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repo root (contains src/)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the embedded corpus instead of the tree")
    opts = ap.parse_args()

    if opts.self_test:
        return lintlib.run_self_test(SELF_TEST_CASES, lint_text, "lint_taint")

    findings = lintlib.lint_tree(pathlib.Path(opts.root).resolve(), lint_text)
    return lintlib.report(findings, "lint_taint")


if __name__ == "__main__":
    sys.exit(main())
