// Real barrier primitives for the native execution backend — the hardware
// counterpart of the simulated SBM/DBM barrier (§3.2), shaped after tuned
// software barriers (sense-reversing counter, static combining tree).
//
// Both primitives share one split interface:
//
//   Ticket t = bar.arrive(slot);   // non-blocking: register this PE's arrival
//   bar.poll(t)                    // true once the phase has been released
//   bar.wait(t, &stats)            // bounded spin, then sched_yield loop
//
// The split matters: the one-thread-per-PE runtime blocks in wait() (a real
// barrier wait on real threads), while the cooperative runtime — which
// multiplexes several PE streams onto fewer carrier threads, the
// oversubscription scenario — must never block a carrier on one PE's
// barrier, so it parks the PE after arrive() and keeps polling between
// running its other PEs. A blocking-only primitive would deadlock there by
// construction.
//
// Memory semantics (the contract the TSan-clean differential tests lean
// on): every arrival chains through an acq_rel RMW (on the central counter
// or up the combining tree), so the releasing store of the phase flag
// carries happens-before from *every* participant's pre-barrier code; a
// successful poll()/wait() acquire-loads that flag. Post-barrier code on
// any participant therefore happens-after pre-barrier code on all of them
// — exactly the ordering the verified schedule's dependence proofs assume.
//
// Reuse: both barriers are phase barriers (sense-reversing), safe for any
// number of consecutive phases by the same participant set. Counters are
// reset by the phase winner *before* the release store, and no participant
// can re-arrive until it has observed that release, so the reset never
// races the next phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace bm::exec {

/// Spin/yield accounting for one waiter (summed per PE by the runtime and
/// exported as exec.spin_iters / exec.yields).
struct WaitStats {
  std::uint64_t spins = 0;
  std::uint64_t yields = 0;
};

/// One pause/yield-hint iteration of a spin loop.
void cpu_relax();

class Barrier {
 public:
  /// The phase a waiter is waiting for; returned by arrive().
  using Ticket = std::uint32_t;

  /// `spin_iters` bounds the busy-spin in wait() before each yield; 0
  /// yields immediately (the right choice when PEs outnumber cores).
  Barrier(std::uint32_t participants, std::uint32_t spin_iters)
      : n_(participants), spin_iters_(spin_iters) {}
  virtual ~Barrier() = default;
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  std::uint32_t participants() const { return n_; }

  /// Registers participant `slot` (0..participants-1) as arrived at the
  /// current phase. Non-blocking; the last arrival releases the phase.
  /// Each slot must arrive exactly once per phase.
  virtual Ticket arrive(std::uint32_t slot) = 0;

  /// True once the phase `t` was arrived at has been released. Acquire on
  /// success: post-poll code happens-after every participant's arrival.
  virtual bool poll(Ticket t) const = 0;

  /// Bounded spin on poll(), then a spin-then-yield loop. Safe even when
  /// waiters outnumber hardware threads (the yield bound guarantees the
  /// releasing thread gets scheduled).
  void wait(Ticket t, WaitStats* stats = nullptr) const;

  Ticket arrive_and_wait(std::uint32_t slot, WaitStats* stats = nullptr) {
    const Ticket t = arrive(slot);
    wait(t, stats);
    return t;
  }

  /// Optional fire-timestamp sink: when set, the releasing arrival stores
  /// a raw steady-clock nanosecond reading into `*out` immediately before
  /// publishing the phase. The runtime uses this for the measured barrier
  /// timeline; benchmarks leave it null so the primitive stays bare.
  void set_fire_ns_sink(std::atomic<std::uint64_t>* out) { fire_ns_ = out; }

 protected:
  /// Called by implementations at the release point (phase winner only).
  void record_fire() const;

  const std::uint32_t n_;
  const std::uint32_t spin_iters_;
  std::atomic<std::uint64_t>* fire_ns_ = nullptr;
};

/// Centralized sense-reversing barrier: one shared arrival counter, one
/// shared sense word, each on its own cache line. The classic primitive —
/// O(n) contention on one line, unbeatable instruction count for small n.
class CentralBarrier final : public Barrier {
 public:
  CentralBarrier(std::uint32_t participants, std::uint32_t spin_iters);

  Ticket arrive(std::uint32_t slot) override;
  bool poll(Ticket t) const override;

 private:
  alignas(64) std::atomic<std::uint32_t> remaining_;
  alignas(64) std::atomic<std::uint32_t> sense_{0};
};

/// Static combining tree: participants are statically assigned to leaf
/// groups of `kArity`; the last arrival at each node propagates to the
/// parent, and the last arrival at the root reverses the shared sense.
/// Each node's counter lives on its own cache line, so arrival contention
/// is spread across the tree instead of one hot line.
class TreeBarrier final : public Barrier {
 public:
  static constexpr std::uint32_t kArity = 4;

  TreeBarrier(std::uint32_t participants, std::uint32_t spin_iters);

  Ticket arrive(std::uint32_t slot) override;
  bool poll(Ticket t) const override;

  /// Internal-node count (test hook: 1 for n <= kArity, log_arity depth).
  std::size_t node_count() const { return num_nodes_; }

 private:
  struct alignas(64) Node {
    std::atomic<std::uint32_t> remaining{0};
    std::uint32_t fanin = 0;
    std::uint32_t parent = 0;  ///< own index for the root
  };

  std::unique_ptr<Node[]> nodes_;
  std::size_t num_nodes_ = 0;
  std::vector<std::uint32_t> leaf_of_slot_;
  alignas(64) std::atomic<std::uint32_t> sense_{0};
};

enum class BarrierKind { kCentral, kTree };

inline constexpr BarrierKind kAllBarrierKinds[] = {BarrierKind::kCentral,
                                                   BarrierKind::kTree};

const char* barrier_kind_name(BarrierKind k);
/// Parses "central" / "tree"; throws bm::Error otherwise.
BarrierKind barrier_kind_from_name(std::string_view name);

std::unique_ptr<Barrier> make_barrier(BarrierKind kind,
                                      std::uint32_t participants,
                                      std::uint32_t spin_iters);

/// Raw steady-clock reading in nanoseconds (the runtime's clock).
std::uint64_t steady_now_ns();

}  // namespace bm::exec
