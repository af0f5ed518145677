// Verifiable Dual Encryption (paper §4.2.2).
//
// VDE(E_A(ρ), E_B(ρ')) certifies — without revealing the plaintexts — that
// two ElGamal ciphertexts under different public keys K_A and K_B encrypt the
// same value (ρ = ρ'). The prover knows the encryption nonces r1, r2 but NOT
// the private keys; that is what distinguishes VDE from Jakobsson's
// translation certificates (§5). The construction is exactly the paper's:
// three Chaum-Pedersen DLOG-equality proofs Pr1..Pr3 for conditions (3)-(5).
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "elgamal/elgamal.hpp"
#include "zkp/batch.hpp"
#include "zkp/chaum_pedersen.hpp"

namespace dblind::zkp {

struct VdeProof {
  Element g12;  // y_A^{r2}  = g^{k_A r_2}, condition (3)
  Element g21;  // y_B^{r1}  = g^{k_B r_1}, condition (4)
  DlogEqProof pr1;
  DlogEqProof pr2;
  DlogEqProof pr3;

  friend bool operator==(const VdeProof&, const VdeProof&) = default;
};

// Offline half of VDE proving: everything that depends only on the service
// keys and the prover's own randomness — G12/G21 and the three Chaum-
// Pedersen announcements. All of it is fixed-base exponentiation (g, y_A,
// y_B, y_A·y_B), so with pinned fixed-base tables it is both cheap and entirely
// off the critical path. Contains commitment randomness (a1..a3.w): secret
// until the proof is finished, strictly single-use (see DlogAnnouncement).
struct VdeOffline {
  Element g12;  // y_A^{r2}
  Element g21;  // y_B^{r1}
  DlogAnnouncement a1;  // for Pr1, witness r2
  DlogAnnouncement a2;  // for Pr2, witness r1
  DlogAnnouncement a3;  // for Pr3, witness r1-r2
};

// Computes the offline half for ca = E_A(ρ, r1), cb = E_B(ρ, r2). Throws
// std::invalid_argument when the witnesses do not match the ciphertexts.
// Draws exactly the three announcement exponents from `prng`, in Pr1..Pr3
// order — the same stream positions vde_prove consumes.
[[nodiscard]] VdeOffline vde_prove_offline(const elgamal::PublicKey& ka,
                                           const elgamal::Ciphertext& ca, const Bigint& r1,
                                           const elgamal::PublicKey& kb,
                                           const elgamal::Ciphertext& cb, const Bigint& r2,
                                           mpz::Prng& prng);

// Online half: binds the Fiat-Shamir challenges of all three subproofs to
// `context` (exactly as vde_prove does) and computes the responses. No group
// exponentiations, no randomness. The offline bundle must have been produced
// by vde_prove_offline for the SAME (ka, ca, r1, kb, cb, r2) and must be
// used at most once.
[[nodiscard]] VdeProof vde_prove_online(const elgamal::PublicKey& ka,
                                        const elgamal::Ciphertext& ca, const Bigint& r1,
                                        const elgamal::PublicKey& kb,
                                        const elgamal::Ciphertext& cb, const Bigint& r2,
                                        const VdeOffline& offline, std::string_view context);

// Creates VDE(ca, cb) for ca = E_A(ρ, r1), cb = E_B(ρ, r2). The caller must
// supply the nonces used in the two encryptions; throws std::invalid_argument
// when the witnesses do not match the ciphertexts (e.g. plaintexts differ).
// Exactly vde_prove_online(vde_prove_offline(...)) — same prng draws, same
// proof bytes.
[[nodiscard]] VdeProof vde_prove(const elgamal::PublicKey& ka, const elgamal::Ciphertext& ca,
                                 const Bigint& r1, const elgamal::PublicKey& kb,
                                 const elgamal::Ciphertext& cb, const Bigint& r2,
                                 std::string_view context, mpz::Prng& prng);

// Verifies that ca (under ka) and cb (under kb) encrypt the same plaintext.
[[nodiscard]] bool vde_verify(const elgamal::PublicKey& ka, const elgamal::Ciphertext& ca,
                              const elgamal::PublicKey& kb, const elgamal::Ciphertext& cb,
                              const VdeProof& proof, std::string_view context);

// One entry of a VDE batch. Pointed-to objects must outlive the call.
struct VdeBatchItem {
  const elgamal::PublicKey* ka;
  const elgamal::Ciphertext* ca;
  const elgamal::PublicKey* kb;
  const elgamal::Ciphertext* cb;
  const VdeProof* proof;
  std::string context;
};

// Batch-verifies k VDE proofs (3k Chaum-Pedersen equations) in one
// random-linear-combination multi-exponentiation; accepts iff every item
// would pass vde_verify, up to the 2^-kBatchRandomizerBits soundness error.
// All items must share one group parameter set.
[[nodiscard]] bool vde_batch_verify(std::span<const VdeBatchItem> items, mpz::Prng& prng);

// Lowers one VDE item to its three Chaum-Pedersen equations — exactly what
// vde_batch_verify folds per item. Returns false (appending nothing) when the
// item fails the structural gate that vde_verify rejects unconditionally:
// parameter mismatch against `params`, or a component outside the
// prime-order subgroup.
[[nodiscard]] bool vde_lower_to_cp(const group::GroupParams& params, const VdeBatchItem& item,
                                   std::vector<CpBatchItem>& out);

}  // namespace dblind::zkp
