#!/usr/bin/env python3
"""Crypto-hygiene linter for the dblind re-encryption stack.

Project-specific rules that neither the compiler nor clang-tidy knows
about, run over the token/line surface of ``src/``:

  secret-logging
      Secret-bearing values (Bigint shares, blinding factors rho_i,
      decryption shares, signing nonces, VDE witnesses) must never reach a
      logging/formatting sink: ``std::cout``/``cerr``/``clog`` insertion,
      ``printf``-family calls, or ``std::format``. Also bans defining an
      ``operator<<(std::ostream&, ...)`` for a secret-bearing type, which
      would make accidental logging compile.

  raw-entropy
      All randomness must route through the seeded, replayable
      ``mpz::Prng`` (src/mpz/random.hpp). Direct use of ``rand``/
      ``srand``/``random``, ``std::random_device``, ``std::mt19937``,
      ``getentropy``, ``/dev/urandom`` etc. anywhere else silently breaks
      the bit-for-bit replay property the simulator and the Byzantine
      tests depend on — and classic ``rand()`` is not
      cryptographically strong to begin with.

  secret-exponent-powmod
      Modular exponentiation whose *exponent* is a secret (key share,
      rho, nonce, witness) must use the Montgomery path
      (``MontgomeryCtx::pow``), not the generic ``powmod`` convenience
      wrapper: the wrapper is the slow path and falls back to plain
      square-and-multiply for even moduli, with a memory/timing profile
      that varies more with operand values. ``powmod`` stays fine for
      public-exponent checks (e.g. subgroup-membership tests in
      group/params.cpp).

  secret-scalar-mul
      The EC analogue of secret-exponent-powmod: elliptic-curve scalar
      multiplication whose scalar is a secret (key share, rho, nonce,
      witness, clamped key) must go through the ``GroupParams`` facade
      (``pow``/``pow_fixed``/``multi_pow``), never call the raw
      ``ec::scalar_mul``/``multi_scalar_mul``/``comb_mul`` primitives
      directly: the facade dispatches to the backend's windowed kernels
      and keeps the group-op accounting honest, while ad-hoc
      callers of the primitives are one refactor away from a
      double-and-add whose branch profile follows the secret scalar.
      The backend implementation itself (src/group/) is exempt.

  retransmit-rerandomize
      Retransmission paths (every member of the ``Recovery`` module —
      its broadcast and timer entry points included — and any function
      whose name contains ``resend`` or ``retransmit``) must re-send the
      originally-signed bytes verbatim,
      never rebuild the message: re-running ``make_envelope``/``vde_prove``
      or drawing fresh randomness inside a resend path re-randomizes a
      message the receiver may have already acted on — and for Schnorr
      commit/reveal rounds a fresh nonce commitment after a reveal is
      catastrophic nonce reuse. Cache the framed bytes; resend those.

  batch-randomizer
      Random-linear-combination batch verification (functions whose name
      contains ``batch_verify``) is only sound when the per-equation
      randomizers are fresh and unpredictable to the prover: a constant or
      reused coefficient lets a cheater craft equation errors that cancel
      in the combined product. Randomizer assignments inside a batch
      verifier must draw from ``mpz::Prng`` (src/mpz/random.hpp) or derive
      from a transcript digest (``from_bytes_be`` over a hash) — never
      from literals or other randomizers.

  trace-hygiene
      The observability layer (src/obs/ and every ``emit_*``/``record_*``
      call that feeds it, the protocol modules' ``trace``/``verdict`` hook
      included) must only ever see public protocol coordinates —
      timestamps, node ids, ranks, message types, counts. Secret material
      (rho, key shares, decryption exponents, signing nonces, Prng state)
      appearing in src/obs/ code or in the arguments of an emit/record
      call would end up in trace files and metric dumps, which ship to
      disk and dashboards. Phase names like "contribute"/"blind"/"commit"
      are public vocabulary and deliberately not matched.

  pool-reuse
      A contribution bundle (src/core/contribution_bundle.hpp), whether
      derived on demand or precomputed ahead of its init, holds single-use
      secret randomness: rho, encryption nonces, and the VDE announcement
      exponents. Three sub-checks keep it safe: (1) the
      ``ContributionBundle`` type must stay move-only (deleted copy
      constructor) so a bundle cannot be silently duplicated and proved
      over twice — two Fiat-Shamir challenges on one announcement leak the
      witness; (2) no ``snapshot()`` body may mention bundles or a bundle
      store — precomputed rho values are secrets and must never be
      serialized to durable state; (3) every rho/r1/r2 assignment inside
      ``make_contribution_bundle`` must draw from an ``mpz::Prng`` — bundle
      randomness is never derived from constants or recycled values.

Waivers: append ``// crypto-lint: allow(<rule>) <reason>`` to the
flagged line (or the line directly above it). A reason is mandatory.

Exit codes: 0 clean, 1 violations (or waiver without reason), 2 usage
error. ``--self-test`` runs the embedded corpus of known-bad/known-good
snippets and fails if any rule stops firing — this is what makes the
ctest gate trip when someone *would* insert ``std::cout << share`` or a
raw ``rand()`` call.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import List

import lintlib
from lintlib import (Finding, split_call_args, strip_comments_and_strings,
                     strip_comments_only)

# Identifiers that carry secret material somewhere in the protocol stack.
# Matched case-insensitively as a word prefix (so `rho_i`, `shares_`,
# `blinding_factor` all hit). Tuned to src/: ContributionBundle{rho, r1, r2},
# DecryptionShare, ServerSecrets, SigningMember nonces, VDE witnesses.
SECRET_IDENT = re.compile(
    r"\b(rho|share|shares|secret|secrets|sk|priv|private_key|witness|nonce|"
    r"blind|blinding|contribution|partial|decrypt_share|key_share|r1|r2)\w*",
    re.IGNORECASE,
)

# Logging / formatting sinks. `<<` alone is NOT a sink: Bigint uses
# operator<< for shifts. A stream object (or printf/format family call)
# must appear in the same statement.
LOG_SINK = re.compile(
    r"std::(cout|cerr|clog)\b|\bf?printf\s*\(|\bputs\s*\(|\bstd::format\s*\(|"
    r"\bsyslog\s*\(|\bLOG\s*\(|\bDBLIND_LOG\b"
)

OSTREAM_OVERLOAD = re.compile(r"operator\s*<<\s*\(\s*std::ostream\s*&")

# Entropy sources that bypass mpz::Prng. `random` needs care: `random()`
# libc call yes, `random.hpp`/`uniform_*` no.
RAW_ENTROPY = re.compile(
    r"\b(rand|srand|rand_r|random|srandom|drand48|lrand48|arc4random\w*)\s*\(|"
    r"std::(random_device|mt19937\w*|minstd_rand\w*|ranlux\w*|knuth_b)\b|"
    r"\bgetentropy\s*\(|\bgetrandom\s*\(|\bRAND_bytes\s*\("
)

# Checked against the line with comments stripped but string literals kept
# (the device path only ever appears inside a string). To avoid flagging a
# mere *mention* of the path — an error message, a test name — the line must
# also actually open/read it; this is the string-literal false-positive
# class the shared lintlib stripping exists for, narrowed here because this
# one rule must look inside strings.
DEV_RANDOM = re.compile(r"/dev/u?random")
DEV_RANDOM_OPEN = re.compile(r"\b(?:ifstream|fstream|fopen|open|openat|freopen|readlink)\b")

# Files allowed to touch the OS entropy source / implement the Prng itself.
RAW_ENTROPY_ALLOWED = {"src/mpz/random.cpp", "src/mpz/random.hpp"}

# Files allowed to call the generic powmod with arbitrary exponents
# (the implementation itself and its even-modulus fallback).
POWMOD_ALLOWED = {"src/mpz/modmath.cpp", "src/mpz/modmath.hpp"}

POWMOD_CALL = re.compile(r"\bpowmod\s*\(")

# Files allowed to call the raw EC scalar-mul primitives: the group backend
# itself (ristretto ladder/comb implementation and its GroupParams facade).
SCALAR_MUL_ALLOWED_PREFIX = "src/group/"

SCALAR_MUL_CALL = re.compile(r"\b(?:multi_)?scalar_mul\s*\(|\bcomb_mul\s*\(")

# Secret scalars for the EC rule: everything SECRET_IDENT knows, plus the
# EC-specific vocabulary (bare `scalar`, clamped keys).
SECRET_SCALAR = re.compile(
    r"\b(rho|share|shares|secret|secrets|sk|priv|private_key|witness|nonce|"
    r"blind|blinding|contribution|partial|decrypt_share|key_share|r1|r2|"
    r"scalar|clamped)\w*",
    re.IGNORECASE,
)

# A *definition* line (column 0, not a `;`-terminated declaration) of a
# function whose name marks it as a retransmission path.
RESEND_FN_DEF = re.compile(
    r"^[\w:<>,&*~\[\]\s]*\b(?:\w*(?:resend|retransmit)\w*|Recovery::\w+)\s*\("
)

# Anything that mints fresh crypto material — forbidden inside resend paths,
# which must replay cached, originally-signed bytes.
RERANDOMIZE = re.compile(
    r"\bmake_envelope\s*\(|\bvde_prove\s*\(|\.encrypt\w*\s*\(|\brng\s*\(\s*\)|"
    r"\brandom_element\s*\(|\brandom_exponent\s*\(|\bfork\s*\("
)

# A definition line of a batch-verification function (same column-0
# heuristic as RESEND_FN_DEF).
BATCH_FN_DEF = re.compile(r"^[\w:<>,&*~\[\]\s]*\b\w*batch_verify\w*\s*\(")

# A randomizer being bound inside a batch verifier: `Bigint c1 = ...;`,
# `c1 = ...;`, `Bigint c2(...)`. Member access (`coeff.push_back`) does not
# match — transcript-derived coefficient vectors are built that way and are
# legitimate.
RANDOMIZER_ASSIGN = re.compile(
    r"\b(?:Bigint\s+)?(c1|c2|coeff\w*|randomizer\w*|rand_c\w*)\s*(?:=|\(|\{)(.*)$"
)

# Acceptable randomizer sources: the seeded Prng, or a transcript digest.
RANDOMIZER_SOURCE = re.compile(r"\bprng\b|\brng\b|\buniform_\w+|\bfrom_bytes_be\b|\.fork\s*\(")

WAIVER = lintlib.make_waiver_re("crypto-lint")


def waived(lines: List[str], idx: int, rule: str) -> bool:
    return lintlib.waived(lines, idx, rule, WAIVER)

# Secret material that must never reach the observability layer. Narrower
# than SECRET_IDENT on purpose: "contribute"/"blind"/"commit"/"sign" are
# *phase names* — public vocabulary that trace events legitimately carry
# (kContributeSent, SignPurpose::kBlind) — so they are not matched here.
# `private` needs a suffix (private_key, ...): bare `private` is the C++
# access specifier, a keyword that can never name a value.
TRACE_SECRET = re.compile(
    r"\b(rho\w*|shares?\w*|secrets?\w*|witness\w*|nonces?\w*|prng\w*|"
    r"private\w+|sk|key_share\w*|enc_share\w*|sign_share\w*|"
    r"decrypt_exponent\w*|r1|r2)\b|\brng\s*\(",
    re.IGNORECASE,
)

# A call (or definition — both are checked, definitions are harmless) of a
# function that feeds the observability layer. Beyond emit_*/record_*, this
# covers the PR 9 span plumbing: mint_span()/set_current_span() arguments
# become causal span ids in the JSONL stream, and the watchdog's
# arm/progress/complete arguments resurface verbatim inside kStall state
# dumps — all of them must carry only public coordinates.
EMIT_CALL = re.compile(
    r"\b(?:emit|record)\w*\s*\(|\b(?:trace|verdict)\s*\("
    r"|\b(?:mint_span|set_current_span)\s*\("
    r"|\bwatchdog\w*(?:\(\))?\.\s*(?:arm|progress|complete|expired)\s*\("
)

# A TraceEvent built by hand (the watchdog emits kStall/kStallResolved
# directly so the emit_trace hook cannot re-enter itself). Every field
# assigned between this declaration and the record() handoff lands on the
# wire, so the whole build region is scanned like an emit argument list.
TRACE_EVENT_DECL = re.compile(r"\bobs::TraceEvent\s+(\w+)\s*;")

# --- pool-reuse --------------------------------------------------------------
# The move-only bundle type and its mandatory deleted copy constructor.
BUNDLE_STRUCT = re.compile(r"\bstruct\s+ContributionBundle\b")
BUNDLE_COPY_DELETED = re.compile(
    r"ContributionBundle\s*\(\s*const\s+ContributionBundle\s*&\s*\)\s*=\s*delete"
)

# A column-0 definition of a snapshot() member (durable-state serializer).
SNAPSHOT_FN_DEF = re.compile(r"::snapshot\s*\(")

# Bundle state (or a store of bundles) showing up inside a snapshot body:
# bundles hold secret randomness and must never be serialized.
POOL_IN_SNAPSHOT = re.compile(r"\b(pool_?\w*|bundle\w*)\b", re.IGNORECASE)

# A column-0 definition of the bundle factory.
MKBUNDLE_FN_DEF = re.compile(r"\bmake_contribution_bundle\s*\(")

# A secret field of the bundle being bound inside the factory.
BUNDLE_SECRET_ASSIGN = re.compile(r"\.\s*(rho|r1|r2)\s*=(.*)$")

# Acceptable sources for bundle randomness: the prng argument (directly or
# through the GroupParams sampling helpers, which take it as a parameter).
BUNDLE_RANDOM_SOURCE = re.compile(r"\bprng\b")


def lint_text(rel_path: str, text: str) -> List[Finding]:
    findings: List[Finding] = []
    lines = text.splitlines()
    in_resend_fn = False  # inside the body of a resend/retransmit function
    in_batch_fn = False  # inside the body of a *batch_verify* function
    in_snapshot_fn = False  # inside the body of a ::snapshot() serializer
    in_mkbundle_fn = False  # inside the body of make_contribution_bundle
    emit_depth = 0  # paren depth of an emit_*/record_* call spanning lines
    trace_build_var = None  # name of a hand-built TraceEvent being populated
    is_obs = rel_path.startswith("src/obs/")

    # pool-reuse (1): a file declaring the bundle type must keep it move-only.
    for idx, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)
        if BUNDLE_STRUCT.search(code) and not waived(lines, idx, "pool-reuse"):
            if not any(BUNDLE_COPY_DELETED.search(strip_comments_and_strings(l))
                       for l in lines):
                findings.append(
                    Finding(
                        rel_path,
                        idx + 1,
                        "pool-reuse",
                        "ContributionBundle must delete its copy constructor "
                        "(move-only): a copied bundle could be proved over "
                        "twice, and two challenges on one VDE announcement "
                        "leak the witness",
                    )
                )
            break

    for idx, raw in enumerate(lines):
        line_no = idx + 1
        code = strip_comments_and_strings(raw)

        # --- trace-hygiene --------------------------------------------------
        def trace_flag(ident: str) -> None:
            findings.append(
                Finding(
                    rel_path,
                    line_no,
                    "trace-hygiene",
                    f"secret-bearing identifier '{ident}' reaches the "
                    "observability layer; traces and metrics must carry only "
                    "public protocol coordinates",
                )
            )

        if is_obs:
            m = TRACE_SECRET.search(code)
            if m and not waived(lines, idx, "trace-hygiene"):
                trace_flag(m.group(0).strip())
        else:
            if emit_depth > 0:  # continuation of a multi-line emit/record call
                m = TRACE_SECRET.search(code)
                if m and not waived(lines, idx, "trace-hygiene"):
                    trace_flag(m.group(0).strip())
                emit_depth = max(0, emit_depth + code.count("(") - code.count(")"))
            for call in EMIT_CALL.finditer(code):
                seg = code[call.end() - 1:]
                m = TRACE_SECRET.search(seg)
                if m and not waived(lines, idx, "trace-hygiene"):
                    trace_flag(m.group(0).strip())
                depth = seg.count("(") - seg.count(")")
                if depth > 0:
                    emit_depth = depth
            decl = TRACE_EVENT_DECL.search(code)
            if decl is not None:
                trace_build_var = decl.group(1)
            elif trace_build_var is not None:
                if re.search(rf"\b{trace_build_var}\s*\.\s*\w+\s*=", code):
                    m = TRACE_SECRET.search(code)
                    if m and not waived(lines, idx, "trace-hygiene"):
                        trace_flag(m.group(0).strip())
                if re.search(rf"record\w*\s*\(\s*{trace_build_var}\s*\)", code) \
                        or raw.startswith("}"):
                    trace_build_var = None

        # --- retransmit-rerandomize ----------------------------------------
        # Line-local region tracking: a column-0 definition whose name says
        # "resend"/"retransmit" opens the region; a column-0 `}` closes it.
        if in_resend_fn and raw.startswith("}"):
            in_resend_fn = False
        elif (
            not in_resend_fn
            and RESEND_FN_DEF.search(code)
            and raw
            and not raw[0].isspace()
            and not code.rstrip().endswith(";")
        ):
            in_resend_fn = True
        elif in_resend_fn:
            m = RERANDOMIZE.search(code)
            if m and not waived(lines, idx, "retransmit-rerandomize"):
                findings.append(
                    Finding(
                        rel_path,
                        line_no,
                        "retransmit-rerandomize",
                        f"'{m.group(0).strip()}' mints fresh crypto material "
                        "inside a retransmission path; resend the cached, "
                        "originally-signed bytes instead",
                    )
                )

        # --- batch-randomizer ----------------------------------------------
        # Same region-tracking shape: a column-0 definition whose name
        # contains "batch_verify" opens the region; a column-0 `}` closes it.
        # Inside, every randomizer binding must draw from mpz::Prng or a
        # transcript digest — a literal or a copy of another randomizer
        # breaks batch soundness (errors can be crafted to cancel).
        if in_batch_fn and raw.startswith("}"):
            in_batch_fn = False
        elif (
            not in_batch_fn
            and BATCH_FN_DEF.search(code)
            and raw
            and not raw[0].isspace()
            and not code.rstrip().endswith(";")
        ):
            in_batch_fn = True
        elif in_batch_fn:
            m = RANDOMIZER_ASSIGN.search(code)
            if (
                m
                and not RANDOMIZER_SOURCE.search(m.group(2))
                and not waived(lines, idx, "batch-randomizer")
            ):
                findings.append(
                    Finding(
                        rel_path,
                        line_no,
                        "batch-randomizer",
                        f"batch randomizer '{m.group(1)}' is not drawn from "
                        "mpz::Prng (src/mpz/random.hpp) or a transcript "
                        "digest; constant or reused randomizers break batch "
                        "verification soundness",
                    )
                )

        # --- pool-reuse (2, 3) ----------------------------------------------
        # Region tracking as above: a column-0 ::snapshot( definition (or
        # make_contribution_bundle definition) opens a region, a column-0 `}`
        # closes it. Snapshot bodies must never touch bundle state; the
        # bundle factory must bind its secret fields from the prng argument.
        if in_snapshot_fn and raw.startswith("}"):
            in_snapshot_fn = False
        elif (
            not in_snapshot_fn
            and SNAPSHOT_FN_DEF.search(code)
            and raw
            and not raw[0].isspace()
            and not code.rstrip().endswith(";")
        ):
            in_snapshot_fn = True
        elif in_snapshot_fn:
            m = POOL_IN_SNAPSHOT.search(code)
            if m and not waived(lines, idx, "pool-reuse"):
                findings.append(
                    Finding(
                        rel_path,
                        line_no,
                        "pool-reuse",
                        f"'{m.group(0)}' inside a snapshot() body: "
                        "contribution bundles hold single-use secret "
                        "randomness and must never reach durable state",
                    )
                )
        if in_mkbundle_fn and raw.startswith("}"):
            in_mkbundle_fn = False
        elif (
            not in_mkbundle_fn
            and MKBUNDLE_FN_DEF.search(code)
            and raw
            and not raw[0].isspace()
            and not code.rstrip().endswith(";")
        ):
            in_mkbundle_fn = True
        elif in_mkbundle_fn:
            m = BUNDLE_SECRET_ASSIGN.search(code)
            if (
                m
                and not BUNDLE_RANDOM_SOURCE.search(m.group(2))
                and not waived(lines, idx, "pool-reuse")
            ):
                findings.append(
                    Finding(
                        rel_path,
                        line_no,
                        "pool-reuse",
                        f"bundle secret '{m.group(1)}' is not drawn from the "
                        "mpz::Prng argument; bundle randomness must be "
                        "seed-replayable and never constant or recycled",
                    )
                )

        # --- secret-logging -------------------------------------------------
        if OSTREAM_OVERLOAD.search(code) and not waived(lines, idx, "secret-logging"):
            findings.append(
                Finding(
                    rel_path,
                    line_no,
                    "secret-logging",
                    "ostream operator<< overload in the crypto stack makes "
                    "accidental secret logging compile; remove it",
                )
            )
        elif LOG_SINK.search(code):
            m = SECRET_IDENT.search(code)
            if m and not waived(lines, idx, "secret-logging"):
                findings.append(
                    Finding(
                        rel_path,
                        line_no,
                        "secret-logging",
                        f"secret-bearing identifier '{m.group(0)}' reaches a "
                        "logging/formatting sink",
                    )
                )

        # --- raw-entropy ----------------------------------------------------
        if rel_path not in RAW_ENTROPY_ALLOWED:
            no_comments = strip_comments_only(raw)
            m = RAW_ENTROPY.search(code) or (
                DEV_RANDOM.search(no_comments)
                if DEV_RANDOM_OPEN.search(no_comments) else None)
            if m and not waived(lines, idx, "raw-entropy"):
                findings.append(
                    Finding(
                        rel_path,
                        line_no,
                        "raw-entropy",
                        f"'{m.group(0).strip()}' bypasses mpz::Prng "
                        "(src/mpz/random.hpp); all randomness must be "
                        "seed-replayable",
                    )
                )

        # --- secret-exponent-powmod ----------------------------------------
        if rel_path not in POWMOD_ALLOWED:
            for call in POWMOD_CALL.finditer(code):
                args = split_call_args(code, call.end() - 1)
                if len(args) >= 2 and SECRET_IDENT.search(args[1]):
                    if not waived(lines, idx, "secret-exponent-powmod"):
                        findings.append(
                            Finding(
                                rel_path,
                                line_no,
                                "secret-exponent-powmod",
                                f"powmod with secret exponent '{args[1]}': use "
                                "MontgomeryCtx::pow for secret exponents",
                            )
                        )

        # --- secret-scalar-mul ---------------------------------------------
        if not rel_path.startswith(SCALAR_MUL_ALLOWED_PREFIX):
            for call in SCALAR_MUL_CALL.finditer(code):
                args = split_call_args(code, call.end() - 1)
                if len(args) >= 2 and SECRET_SCALAR.search(args[1]):
                    if not waived(lines, idx, "secret-scalar-mul"):
                        findings.append(
                            Finding(
                                rel_path,
                                line_no,
                                "secret-scalar-mul",
                                f"raw EC scalar-mul with secret scalar "
                                f"'{args[1]}': use the GroupParams facade "
                                "(pow/pow_fixed/multi_pow) outside src/group/",
                            )
                        )
    return findings


# --------------------------------------------------------------------------
# Self-test corpus: (rule-that-must-fire-or-None, snippet). Keeps the gate
# honest — if a regex regresses, the selftest ctest entry fails even though
# the tree itself is clean.
SELF_TEST_CASES = [
    # secret-logging must fire:
    ("secret-logging", 'std::cout << "share: " << share << "\\n";'),
    ("secret-logging", "std::cerr << st.rho.to_hex();"),
    ("secret-logging", 'printf("rho=%s", rho.to_hex().c_str());'),
    ("secret-logging", "std::ostream& operator<<(std::ostream& os, const Bigint& v);"),
    ("secret-logging", "std::cout << std::format(\"nonce {}\", nonce_hex);"),
    # ...and must NOT fire on these:
    (None, "Bigint x = a << 64;  // limb shift, not a stream"),
    (None, "out.bigint(st.rho);  // canonical codec, not a log sink"),
    (None, 'std::cout << "protocol done, " << n_messages << " msgs\\n";'),
    (None, '// comment mentioning std::cout << share is fine'),
    # raw-entropy must fire:
    ("raw-entropy", "int r = rand();"),
    ("raw-entropy", "srand(time(nullptr));"),
    ("raw-entropy", "std::random_device rd;"),
    ("raw-entropy", "std::mt19937_64 gen(seed);"),
    ("raw-entropy", 'std::ifstream urandom("/dev/urandom");'),
    ("raw-entropy", "getentropy(buf, sizeof buf);"),
    # ...and must NOT fire:
    (None, "auto v = prng.uniform_below(q);"),
    (None, "Prng child = rng.fork(\"label\");"),
    (None, "std::uniform_int_distribution<int> d(0, 9);  // no engine here"),
    # string literals that merely *mention* the device path (error messages,
    # test names) are not entropy sources — only an actual open/read is:
    (None, 'throw std::runtime_error("refusing /dev/urandom fallback");'),
    (None, 'std::puts("no /dev/urandom in sandbox");'),
    # ...and string literals mentioning secrets are not secret values:
    (None, 'std::cout << "secret-sharing smoke test passed\\n";'),
    (None, 'printf("blinding share test %d\\n", test_id);'),
    # secret-exponent-powmod must fire:
    ("secret-exponent-powmod", "auto y = powmod(g, sk_share, p);"),
    ("secret-exponent-powmod", "auto c1 = powmod(base, rho, p);"),
    ("secret-exponent-powmod", "return powmod(h, witness_r1, p);"),
    # ...and must NOT fire:
    (None, "if (powmod(g, q, p) != Bigint(1)) throw;  // public subgroup check"),
    (None, "auto y = ctx.pow(g, sk_share);  // Montgomery path, correct"),
    (
        None,
        "auto y = powmod(g, sk_share, p);  "
        "// crypto-lint: allow(secret-exponent-powmod) even modulus in test vector",
    ),
    # secret-scalar-mul must fire:
    ("secret-scalar-mul", "auto P = ec::scalar_mul(base, sk_share_bytes);"),
    ("secret-scalar-mul", "Point y = scalar_mul(g, rho_scalar);"),
    ("secret-scalar-mul", "auto acc = multi_scalar_mul(bases, witness_scalars);"),
    ("secret-scalar-mul", "return comb_mul(table, clamped_key);"),
    # ...and must NOT fire:
    (None, "auto y = params.pow(g, sk_share);  // facade path, correct"),
    (None, "auto y = params.pow_fixed(pin, rho);  // comb via facade"),
    (None, "auto P = scalar_mul(g, public_cofactor);  // public scalar"),
    # the backend implementation itself is exempt:
    (None, "auto P = scalar_mul(base, scalar);", "src/group/ristretto.cpp"),
    (
        None,
        "auto P = ec::scalar_mul(base, sk_scalar);  "
        "// crypto-lint: allow(secret-scalar-mul) KAT vector in test helper",
    ),
    # retransmit-rerandomize must fire (multi-line snippets: definition +
    # body + closing brace, as lint_text sees them in a real file):
    (
        "retransmit-rerandomize",
        "void ProtocolServer::resend_frame(net::Context& ctx, net::NodeId to) {\n"
        "  auto env = make_envelope(cfg_, secrets_, body, ctx.rng());\n"
        "}",
    ),
    (
        "retransmit-rerandomize",
        "void ProtocolServer::handle_resend_timer(net::Context& ctx, std::uint64_t key) {\n"
        "  cm.vde = vde_prove(ka, ea, r1, kb, eb, r2, vde_context(id, rank), ctx.rng());\n"
        "}",
    ),
    (
        "retransmit-rerandomize",
        "void retransmit_blind(net::Context& ctx) {\n"
        "  req.ea_m = cfg_.a.encryption_key.encrypt(m_, ctx.rng());\n"
        "}",
    ),
    (
        "retransmit-rerandomize",
        "std::uint64_t Recovery::broadcast(net::Context& ctx, const Frame& frame) {\n"
        "  auto env = make_envelope(me, body, epoch, ctx.rng());\n"
        "}",
    ),
    (
        "retransmit-rerandomize",
        "void Recovery::on_timer(const Local& l, std::uint64_t key) {\n"
        "  e.msgs.front().second = frame_signed(l.sign(vde_prove(ka, ea, r1, kb, eb, r2, c, rng)));\n"
        "}",
    ),
    # ...and must NOT fire:
    (
        None,
        "void Signing::broadcast_round(const Local& l, Session& s) {\n"
        "  auto env = make_envelope(me, body, epoch, ctx.rng());  // a round's first send\n"
        "}",
    ),
    (
        None,
        "void ProtocolServer::resend_frame(net::Context& ctx, net::NodeId to) {\n"
        "  ++retransmits_sent_;\n"
        "  ctx.send(to, st.commit_frame);  // cached originally-signed bytes\n"
        "}",
    ),
    (
        None,
        "void ProtocolServer::handle_init(net::Context& ctx, const SignedMessage& env) {\n"
        "  auto out = make_envelope(cfg_, secrets_, body, ctx.rng());  // first send: fine\n"
        "}",
    ),
    (
        None,
        "void helper() {\n"
        "  arm_resend(ctx, std::move(r));  // call into the resend layer, not a definition\n"
        "  auto out = make_envelope(cfg_, secrets_, body, ctx.rng());\n"
        "}",
    ),
    # batch-randomizer must fire (constant or reused randomizers inside a
    # *batch_verify* definition):
    (
        "batch-randomizer",
        "bool cp_batch_verify(const GroupParams& params, std::span<const CpBatchItem> items,\n"
        "                     mpz::Prng& prng) {\n"
        "  Bigint c1(7);\n"
        "}",
    ),
    (
        "batch-randomizer",
        "bool vde_batch_verify(const GroupParams& gp, std::span<const VdeBatchItem> items) {\n"
        "  Bigint c1 = Bigint(0x1234);\n"
        "}",
    ),
    (
        "batch-randomizer",
        "bool batch_verify_decryption_shares(const GroupParams& gp, mpz::Prng& prng) {\n"
        "  Bigint c1 = prng.uniform_nonzero_below(bound);\n"
        "  Bigint c2 = c1;  // reused randomizer\n"
        "}",
    ),
    # ...and must NOT fire:
    (
        None,
        "bool cp_batch_verify(const GroupParams& params, std::span<const CpBatchItem> items,\n"
        "                     mpz::Prng& prng) {\n"
        "  const Bigint c1 = prng.uniform_nonzero_below(bound);\n"
        "  const Bigint c2 = prng.uniform_nonzero_below(bound);\n"
        "}",
    ),
    (
        None,
        "bool schnorr_batch_verify(const GroupParams& params, std::span<const Item> batch) {\n"
        "  coeff.push_back(Bigint::from_bytes_be(h.digest()));  // transcript-derived\n"
        "}",
    ),
    (
        None,
        "void helper_outside_batch() {\n"
        "  Bigint c1(7);  // not a batch verifier; test fixtures may use constants\n"
        "}",
    ),
    # trace-hygiene must fire — secrets in emit/record call arguments:
    (
        "trace-hygiene",
        "emit_trace(ctx, obs::EventKind::kVerifyFail, nullptr, "
        "{.count = st.rho.bit_length()});",
    ),
    ("trace-hygiene", "record_event(trace_, secrets_.enc_share);"),
    ("trace-hygiene", "emit_trace(ctx, kind, nullptr, {.peer = share.index});"),
    (
        "trace-hygiene",  # multi-line call: secret on a continuation line
        "emit_trace(ctx, obs::EventKind::kRetransmit, nullptr,\n"
        "           {.transfer = r.transfer,\n"
        "            .count = nonce_commitment.words()});",
    ),
    ("trace-hygiene", "recorder->record(make_event(prng.state()));"),
    # ...through a module's trace hook, and through the watchdog accessor:
    ("trace-hygiene", "l.trace(obs::EventKind::kCommitSent, &id, {.peer = share.index});"),
    ("trace-hygiene", "observer_.watchdog().arm(share.index, ctx.now());"),
    # ...secrets through the PR 9 span plumbing and watchdog call sites:
    ("trace-hygiene", "ctx.set_current_span(secrets_.rank ^ mask);"),
    ("trace-hygiene", "watchdog_.progress(ev.transfer, ev.ts, share_index);"),
    (
        "trace-hygiene",  # multi-line watchdog call, secret on a continuation
        "watchdog_.arm(transfer,\n"
        "              rho.bit_length());",
    ),
    # ...and through a hand-built TraceEvent dump (bypasses emit_trace):
    (
        "trace-hygiene",
        "obs::TraceEvent out;\n"
        "out.kind = obs::EventKind::kStall;\n"
        "out.count = secrets_.enc_share.words();\n"
        "opts_.trace->record(out);",
    ),
    # ...secrets in src/obs/ code itself, regardless of function name:
    ("trace-hygiene", "ev.count = rho.bit_length();", "src/obs/trace.cpp"),
    ("trace-hygiene", "std::uint64_t x = ctx.rng().next();", "src/obs/metrics.cpp"),
    # ...and must NOT fire on public protocol coordinates:
    (None, "emit_trace(ctx, obs::EventKind::kCommitSent, &init->id);"),
    (
        None,
        "emit_trace(ctx, obs::EventKind::kVerifyPass, &contribute->id,\n"
        "           {.peer = contribute->server,\n"
        "            .subject = static_cast<std::uint32_t>(MsgType::kContribute)});",
    ),
    (None, "record_done(&ctx, *done, msg.done);"),
    (None, "emit_trace(ctx, obs::EventKind::kDecryptDone, &msg.id, "
           "{.count = cfg_.a.cfg.quorum()});"),
    (None, "ev.peer = env.signer;", "src/obs/trace.cpp"),
    (None, " private:\n  std::vector<Cell> cells_;", "src/obs/metrics.hpp"),
    ("trace-hygiene", "out = private_key.to_hex();", "src/obs/metrics.hpp"),
    (None, "out += kind_name(e.kind);", "src/obs/trace.cpp"),
    # phase names are public vocabulary, not secrets:
    (None, "emit_trace(ctx, obs::EventKind::kBlindSignBegin, &st.id, "
           "{.count = quorum});"),
    # span ids and watchdog state dumps carry only public coordinates:
    (None, "ev.span = ctx.mint_span();\nctx.set_current_span(ev.span);"),
    (None, "watchdog_.progress(ev.transfer, ev.ts, ev.span);"),
    (
        None,
        "obs::TraceEvent out;\n"
        "out.kind = obs::EventKind::kStall;\n"
        "out.count = engine_.queued();\n"
        "out.peer = pending.size();\n"
        "opts_.trace->record(out);\n"
        "rho_reuse_after_region(rho);  // after record(): region closed",
    ),
    # pool-reuse must fire — bundle type that is not move-only:
    (
        "pool-reuse",
        "struct ContributionBundle {\n"
        "  mpz::Bigint rho;\n"
        "  ContributionBundle(const ContributionBundle&) = default;\n"
        "};",
    ),
    (
        "pool-reuse",
        "struct ContributionBundle {\n"
        "  mpz::Bigint rho;\n"
        "};",
    ),
    # ...bundle state serialized by a snapshot body:
    (
        "pool-reuse",
        "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
        "  w.u32(static_cast<std::uint32_t>(pool_->size()));\n"
        "}",
    ),
    (
        "pool-reuse",
        "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
        "  for (const auto& bundle : entries_) put_bundle(w, bundle);\n"
        "}",
    ),
    # ...bundle secrets not drawn from the prng argument:
    (
        "pool-reuse",
        "ContributionBundle make_contribution_bundle(const SystemConfig& cfg,\n"
        "                                            mpz::Prng& prng) {\n"
        "  b.rho = mpz::Bigint(7);\n"
        "}",
    ),
    (
        "pool-reuse",
        "ContributionBundle make_contribution_bundle(const SystemConfig& cfg,\n"
        "                                            mpz::Prng& prng) {\n"
        "  b.r1 = last_bundle.r1;\n"
        "}",
    ),
    # ...and must NOT fire:
    (
        None,
        "struct ContributionBundle {\n"
        "  mpz::Bigint rho;\n"
        "  ContributionBundle(ContributionBundle&&) = default;\n"
        "  ContributionBundle(const ContributionBundle&) = delete;\n"
        "};",
    ),
    (
        None,
        "std::vector<std::uint8_t> ProtocolServer::snapshot() const {\n"
        "  w.u32(static_cast<std::uint32_t>(transfers_.size()));\n"
        "}",
    ),
    (
        None,
        "ContributionBundle make_contribution_bundle(const SystemConfig& cfg,\n"
        "                                            mpz::Prng& prng) {\n"
        "  b.rho = gp.random_element(prng);\n"
        "  b.r1 = gp.random_exponent(prng);\n"
        "  b.r2 = gp.random_exponent(prng);\n"
        "}",
    ),
    (
        None,
        "void helper_outside_snapshot() {\n"
        "  if (pool_ != nullptr) pool_->clear();  // restore path, not snapshot\n"
        "}",
    ),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repo root (contains src/)")
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="lint the embedded known-bad corpus instead of the tree",
    )
    opts = ap.parse_args()

    if opts.self_test:
        return lintlib.run_self_test(SELF_TEST_CASES, lint_text, "lint_crypto")

    findings = lintlib.lint_tree(pathlib.Path(opts.root).resolve(), lint_text)
    return lintlib.report(findings, "lint_crypto")


if __name__ == "__main__":
    sys.exit(main())
