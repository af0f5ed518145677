// Chaum-Pedersen non-interactive proof of discrete-logarithm equality.
//
// DLOG(a, g, X, Y, Z) shows a = log_g X = log_Y Z without disclosing a
// (paper §4.2.2, citing Chaum-Pedersen '92). Made non-interactive with the
// Fiat-Shamir transform; the `context` argument binds a proof to its protocol
// instance so it cannot be replayed elsewhere.
#pragma once

#include <string_view>

#include "group/params.hpp"
#include "mpz/bigint.hpp"
#include "mpz/random.hpp"

namespace dblind::zkp {

using group::Element;
using group::GroupParams;
using mpz::Bigint;

struct DlogStatement {
  Element base1;  // g
  Element x;      // g^a
  Element base2;  // Y
  Element z;      // Y^a
};

struct DlogEqProof {
  Element t1;  // base1^w
  Element t2;  // base2^w
  Bigint s;    // w + e*a mod q

  friend bool operator==(const DlogEqProof&, const DlogEqProof&) = default;
};

// Commit-phase output of the prover, produced before the Fiat-Shamir
// challenge exists. Everything in here depends only on the statement bases
// and the witness — never on the instance context — which is what makes the
// offline/online split of VDE proving (zkp/vde.hpp, core/contribution_bundle)
// possible: announcements are computed ahead of time, the challenge is bound
// to the transfer transcript later, exactly as in the one-shot prover.
// `w` is secret until the proof is finished; an announcement must be used for
// at most ONE dlog_finish call (re-finishing with two different challenges
// would reveal the witness: a = (s - s') / (e - e')).
struct DlogAnnouncement {
  Bigint w;    // commitment randomness (secret)
  Element t1;  // base1^w
  Element t2;  // base2^w
};

// Offline half: checks the witness, draws w and computes the announcements
// (all fixed-base when the statement bases are pinned; see
// GroupParams::pin_base). Precondition (checked): the statement is
// consistent with `a`.
[[nodiscard]] DlogAnnouncement dlog_announce(const GroupParams& params,
                                             const DlogStatement& stmt, const Bigint& a,
                                             mpz::Prng& prng);

// Online half: binds the Fiat-Shamir challenge to `context` and computes the
// response s = w + e·a mod q. No group exponentiations and no randomness —
// pure transcript hashing plus scalar arithmetic.
[[nodiscard]] DlogEqProof dlog_finish(const GroupParams& params, const DlogStatement& stmt,
                                      const DlogAnnouncement& ann, const Bigint& a,
                                      std::string_view context);

// Proves knowledge of `a` with stmt.x == base1^a and stmt.z == base2^a.
// Precondition (checked): the statement is consistent with `a`. Exactly
// dlog_finish(dlog_announce(...)) — one prng draw, same proof bytes.
[[nodiscard]] DlogEqProof dlog_prove(const GroupParams& params, const DlogStatement& stmt,
                                     const Bigint& a, std::string_view context, mpz::Prng& prng);

[[nodiscard]] bool dlog_verify(const GroupParams& params, const DlogStatement& stmt,
                               const DlogEqProof& proof, std::string_view context);

// The Fiat-Shamir challenge used by dlog_prove/dlog_verify. Exposed so the
// batch verifier (zkp/batch.hpp) reproduces the exact per-proof challenges;
// not otherwise part of the proving API.
[[nodiscard]] Bigint cp_challenge(const GroupParams& params, const DlogStatement& stmt,
                                  const Bigint& t1, const Bigint& t2, std::string_view context);

}  // namespace dblind::zkp
