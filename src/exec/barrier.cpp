#include "exec/barrier.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "support/assert.hpp"

namespace bm::exec {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Barrier::wait(Ticket t, WaitStats* stats) const {
  std::uint32_t spins_since_yield = 0;
  std::uint64_t spins = 0, yields = 0;
  while (!poll(t)) {
    ++spins;
    if (++spins_since_yield > spin_iters_) {
      // Past the spin bound the releaser is likely descheduled (typical
      // when PE threads outnumber cores); hand the core back instead of
      // burning it.
      spins_since_yield = 0;
      ++yields;
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  if (stats != nullptr) {
    stats->spins += spins;
    stats->yields += yields;
  }
}

void Barrier::record_fire() const {
  if (fire_ns_ != nullptr)
    // mo: pure timestamp payload read back only after the caller's team
    // run completed (or it otherwise synchronized with the releaser).
    fire_ns_->store(steady_now_ns(), std::memory_order_relaxed);
}

// --- centralized sense-reversing --------------------------------------------

CentralBarrier::CentralBarrier(std::uint32_t participants,
                               std::uint32_t spin_iters)
    : Barrier(participants, spin_iters), remaining_(participants) {
  BM_REQUIRE(participants >= 1, "barrier needs at least one participant");
}

Barrier::Ticket CentralBarrier::arrive(std::uint32_t slot) {
  BM_REQUIRE(slot < n_, "barrier slot out of range");
  // mo: sense_ cannot change during this phase (it only flips after all n_
  // arrivals, and this call *is* one of them), so the target read needs no
  // ordering; the release chain runs through remaining_ below.
  const Ticket target = 1u - sense_.load(std::memory_order_relaxed);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Phase winner. Reset before publishing: no participant can start the
    // next phase until it observes the sense flip below, so the relaxed
    // reset is never concurrent with next-phase arrivals.
    // mo: reset ordered before the release store that gates all readers.
    remaining_.store(n_, std::memory_order_relaxed);
    record_fire();
    sense_.store(target, std::memory_order_release);
  }
  return target;
}

bool CentralBarrier::poll(Ticket t) const {
  return sense_.load(std::memory_order_acquire) == t;
}

// --- static combining tree ---------------------------------------------------

TreeBarrier::TreeBarrier(std::uint32_t participants, std::uint32_t spin_iters)
    : Barrier(participants, spin_iters) {
  BM_REQUIRE(participants >= 1, "barrier needs at least one participant");
  // Build bottom-up: level 0 groups the participant slots kArity at a time;
  // each higher level groups the nodes below it until one root remains.
  leaf_of_slot_.resize(participants);
  std::vector<std::uint32_t> fanin;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> level;  // node indices of the level being built
  const auto groups = [](std::uint32_t k) { return (k + kArity - 1) / kArity; };
  for (std::uint32_t g = 0; g < groups(participants); ++g) {
    const std::uint32_t lo = g * kArity;
    const std::uint32_t hi =
        lo + kArity < participants ? lo + kArity : participants;
    const auto node = static_cast<std::uint32_t>(fanin.size());
    fanin.push_back(hi - lo);
    parent.push_back(node);  // fixed up when the level above is built
    level.push_back(node);
    for (std::uint32_t s = lo; s < hi; ++s) leaf_of_slot_[s] = node;
  }
  while (level.size() > 1) {
    std::vector<std::uint32_t> above;
    for (std::uint32_t g = 0; g < groups(static_cast<std::uint32_t>(level.size()));
         ++g) {
      const std::size_t lo = static_cast<std::size_t>(g) * kArity;
      const std::size_t hi = std::min(lo + kArity, level.size());
      const auto node = static_cast<std::uint32_t>(fanin.size());
      fanin.push_back(static_cast<std::uint32_t>(hi - lo));
      parent.push_back(node);
      for (std::size_t c = lo; c < hi; ++c) parent[level[c]] = node;
      above.push_back(node);
    }
    level = std::move(above);
  }
  num_nodes_ = fanin.size();
  nodes_ = std::make_unique<Node[]>(num_nodes_);
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    nodes_[i].fanin = fanin[i];
    // mo: construction publishes via the caller's handoff to the PE
    // threads (the team's release bump / start barrier), not via this
    // store.
    nodes_[i].remaining.store(fanin[i], std::memory_order_relaxed);
    nodes_[i].parent = parent[i];
  }
}

Barrier::Ticket TreeBarrier::arrive(std::uint32_t slot) {
  BM_REQUIRE(slot < n_, "barrier slot out of range");
  // mo: as in CentralBarrier::arrive — sense_ is stable until the phase's
  // last arrival, and this call is one of the phase's arrivals.
  const Ticket target = 1u - sense_.load(std::memory_order_relaxed);
  std::uint32_t node = leaf_of_slot_[slot];
  for (;;) {
    Node& nd = nodes_[node];
    // The acq_rel RMW chains happens-before up the tree: the winner of a
    // node has absorbed every child subtree's arrivals.
    if (nd.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) break;
    // mo: reset gated by the phase's release store, as in CentralBarrier.
    nd.remaining.store(nd.fanin, std::memory_order_relaxed);
    if (nd.parent == node) {  // root winner: release the whole phase
      record_fire();
      sense_.store(target, std::memory_order_release);
      break;
    }
    node = nd.parent;
  }
  return target;
}

bool TreeBarrier::poll(Ticket t) const {
  return sense_.load(std::memory_order_acquire) == t;
}

// --- factory / naming / platform --------------------------------------------

const char* barrier_kind_name(BarrierKind k) {
  switch (k) {
    case BarrierKind::kCentral: return "central";
    case BarrierKind::kTree: return "tree";
  }
  return "?";
}

BarrierKind barrier_kind_from_name(std::string_view name) {
  if (name == "central") return BarrierKind::kCentral;
  if (name == "tree") return BarrierKind::kTree;
  throw Error("unknown barrier primitive: '" + std::string(name) +
              "' (expected central|tree)");
}

std::unique_ptr<Barrier> make_barrier(BarrierKind kind,
                                      std::uint32_t participants,
                                      std::uint32_t spin_iters) {
  switch (kind) {
    case BarrierKind::kCentral:
      return std::make_unique<CentralBarrier>(participants, spin_iters);
    case BarrierKind::kTree:
      return std::make_unique<TreeBarrier>(participants, spin_iters);
  }
  throw Error("unknown BarrierKind");
}

}  // namespace bm::exec
