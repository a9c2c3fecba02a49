// Canonical DAG fingerprinting for the scheduling service (bmserve).
//
// Two requests whose tuple programs pose the *same scheduling problem* —
// identical dependence DAG shape, opcodes (hence execution-time ranges),
// and constant operands — must key the same schedule-cache entry even when
// their instructions are numbered or ordered differently. The fingerprint
// is a 64-bit hash of a Weisfeiler–Lehman-style canonical form:
//
//   1. Read the dependence edges from the request's InstrDag (its
//      instruction-to-instruction sync edges) and type each edge u→v:
//      dataflow by the operand slot of v that names u, otherwise memory
//      flow (v loads), anti (v stores, u loads) or output (both store).
//   2. Seed every node with a label hashing its opcode and constant
//      operands (tuple uids and variable ids never participate: uids are
//      display-only and variables matter only through the memory edges).
//   3. Refine labels iteratively — each round mixes in the sorted
//      multisets of (edge kind, neighbor label) over in- and out-edges —
//      until the label partition stabilizes.
//   4. fingerprint = order-independent combine of the stabilized labels
//      and edge triples; *guaranteed* invariant under instruction
//      renumbering and semantics-preserving input reordering.
//
// WL refinement is not a perfect graph canonizer, so the cache never
// trusts the hash alone: canonicalize_program also emits a canonical byte
// serialization (nodes in canonical order, edges as canonical indices).
// A cache hit is only served when the request's canonical bytes equal the
// entry's — a hash collision or an unresolved automorphism tie degrades to
// a correct cache miss, never to a wrong schedule (cache.collision counts
// them; see docs/SERVING.md).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codegen/generator.hpp"
#include "graph/instr_dag.hpp"
#include "ir/program.hpp"
#include "sched/policies.hpp"

namespace bm::serve {

/// SplitMix64 finalizer — the avalanche core of every serve-side hash
/// (fingerprint labels, config and generator digests, rng identities).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b * 0xD6E8FEB86659FD93ull));
}

struct CanonicalProgram {
  std::uint64_t fingerprint = 0;
  /// Original dense tuple id -> canonical index.
  std::vector<std::uint32_t> perm;
  /// Canonical index -> original dense tuple id.
  std::vector<std::uint32_t> inv_perm;
  /// Canonical serialization: exact equality certifies that two programs
  /// pose the identical scheduling problem under their respective perms.
  std::string bytes;
};

/// Canonicalizes `prog` given its dag (`InstrDag::build(prog, tm)` under
/// any timing model: only the edges are read). Deterministic;
/// O(E · rounds).
CanonicalProgram canonicalize_program(const Program& prog,
                                      const InstrDag& dag);

/// 16-digit lowercase hex rendering used in the protocol and fixtures.
std::string fingerprint_hex(std::uint64_t fp);

/// Digest of everything besides the program that determines the schedule
/// bytes: scheduler config, timing model, and the tie-break RNG identity.
/// The schedule cache key is (program fingerprint, config digest) — any
/// machine/policy/timing change invalidates by construction.
std::uint64_t config_digest(const SchedulerConfig& cfg, const TimingModel& tm,
                            std::uint64_t rng_key);

/// Everything that shapes synthesis output, folded into the RNG identity:
/// the synthesis draws advance the stream the scheduler then continues, so
/// the cache key must distinguish generator configurations even for the
/// (fingerprint-identical) programs they might coincide on.
std::uint64_t gen_digest(const GeneratorConfig& g);

/// Rewrites every instruction token `n<id>` in a serialized schedule
/// (sched/serialize.hpp text format) through `map` (old id -> new id).
/// Barrier tokens, masks, and headers are untouched. Used to store cached
/// schedules in canonical numbering and serve them in request numbering.
std::string rewrite_schedule_ids(const std::string& text,
                                 std::span<const std::uint32_t> map);

}  // namespace bm::serve
