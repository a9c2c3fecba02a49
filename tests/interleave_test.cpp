// Model-checking the serving core's lock-free protocols with the
// ix::Explorer, plus the mutation selftest the harness itself is judged
// by: every seeded race below (dropped fence, widened and narrowed
// critical sections, CAS/exchange downgraded to load+store, acquire
// downgraded to relaxed, publish/reset reorder) must be caught, and the
// corresponding correct protocol must verify clean over the *exhaustive*
// interleaving space (Result::ok() demands completeness, not absence of
// luck).
//
// Models re-state the production protocols in miniature:
//   - WindowedLatencyHistogram slot rotation (obs/latency.hpp): claim via
//     CAS to a sentinel, reset, release-publish; observers spin on the
//     sentinel.
//   - ScheduleCache hit-vs-evict (serve/cache.cpp): mutex-guarded payload
//     and validity bit.
//   - CancelToken skip-at-dequeue (support/thread_pool.cpp): release
//     store of the cancel flag, acquire check before touching the reason.
//   - Exactly-once response teardown (serve/core.cpp PendingReq):
//     exchange on an answered flag arbitrates worker vs teardown.
//   - The native runtimes' worker-team dispatch (exec/team.cpp): job
//     publish, per-worker generation bump, pending-count drain.
#include "support/interleave.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

namespace bm {
namespace {

namespace mo {
constexpr ix::MemOrder kRelaxed = ix::MemOrder::kRelaxed;
constexpr ix::MemOrder kAcquire = ix::MemOrder::kAcquire;
constexpr ix::MemOrder kRelease = ix::MemOrder::kRelease;
constexpr ix::MemOrder kAcqRel = ix::MemOrder::kAcqRel;
}  // namespace mo

ix::Result run(const std::function<void(ix::Env&)>& program,
               bool sleep_sets = true) {
  ix::Options opts;
  opts.sleep_sets = sleep_sets;
  return ix::explore(opts, program);
}

std::string describe(const ix::Result& r) {
  if (!r.violation) return "no violation";
  std::string out = std::string(violation_kind_name(r.violation->kind)) +
                    ": " + r.violation->message;
  for (const std::string& e : r.violation->trace) out += "\n  " + e;
  return out;
}

// -- basic semantics ---------------------------------------------------------

TEST(InterleaveTest, AtomicIncrementIsExact) {
  const ix::Result r = run([](ix::Env& env) {
    auto c = std::make_shared<ix::Cell<std::uint64_t>>("c", 0);
    for (int i = 0; i < 2; ++i)
      env.thread([c] { c->fetch_add(1, mo::kRelaxed); });
    env.invariant("count == 2", [c] { return c->peek() == 2; });
  });
  EXPECT_TRUE(r.ok()) << describe(r);
  EXPECT_GT(r.executions, 1);
}

TEST(InterleaveTest, LostUpdateIsFound) {
  // fetch_add downgraded to load+store: the classic lost update.
  const ix::Result r = run([](ix::Env& env) {
    auto c = std::make_shared<ix::Cell<std::uint64_t>>("c", 0);
    for (int i = 0; i < 2; ++i)
      env.thread([c] {
        const std::uint64_t v = c->load(mo::kRelaxed);
        c->store(v + 1, mo::kRelaxed);
      });
    env.invariant("count == 2", [c] { return c->peek() == 2; });
  });
  ASSERT_TRUE(r.violation.has_value()) << "lost update not found";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kInvariant);
}

TEST(InterleaveTest, RelaxedMessagePassingShowsStaleRead) {
  // Weak-memory sanity: even when the producer is scheduled to completion
  // first, a relaxed flag does not force the consumer to see the payload
  // cell's newest value — the load-value branching must surface the stale
  // read that real hardware is allowed to produce.
  const ix::Result r = run([](ix::Env& env) {
    auto x = std::make_shared<ix::Cell<std::uint64_t>>("x", 0);
    auto f = std::make_shared<ix::Cell<std::uint64_t>>("f", 0);
    env.thread([x, f] {
      x->store(1, mo::kRelaxed);
      f->store(1, mo::kRelaxed);
    });
    env.thread([x, f] {
      if (f->load(mo::kRelaxed) == 1)
        ix::check(x->load(mo::kRelaxed) == 1, "stale read of x after flag");
    });
  });
  ASSERT_TRUE(r.violation.has_value())
      << "relaxed message passing unexpectedly verified clean";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kCheck);
}

TEST(InterleaveTest, ReleaseAcquireMessagePassingIsClean) {
  const ix::Result r = run([](ix::Env& env) {
    auto x = std::make_shared<ix::Cell<std::uint64_t>>("x", 0);
    auto f = std::make_shared<ix::Cell<std::uint64_t>>("f", 0);
    env.thread([x, f] {
      x->store(1, mo::kRelaxed);
      f->store(1, mo::kRelease);
    });
    env.thread([x, f] {
      if (f->load(mo::kAcquire) == 1)
        ix::check(x->load(mo::kRelaxed) == 1, "stale read of x after flag");
    });
  });
  EXPECT_TRUE(r.ok()) << describe(r);
}

TEST(InterleaveTest, AbbaDeadlockIsFound) {
  const ix::Result r = run([](ix::Env& env) {
    auto a = std::make_shared<ix::Mutex>("a");
    auto b = std::make_shared<ix::Mutex>("b");
    env.thread([a, b] {
      a->lock();
      b->lock();
      b->unlock();
      a->unlock();
    });
    env.thread([a, b] {
      b->lock();
      a->lock();
      a->unlock();
      b->unlock();
    });
  });
  ASSERT_TRUE(r.violation.has_value()) << "ABBA deadlock not found";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kDeadlock);
}

// -- fence semantics (seeded mutant: dropped release fence) ------------------

void fence_mp_model(ix::Env& env, bool drop_release_fence) {
  struct St {
    ix::Plain<std::uint64_t> data{"data", 0};
    ix::Cell<std::uint64_t> flag{"flag", 0};
  };
  auto st = std::make_shared<St>();
  env.thread([st, drop_release_fence] {
    st->data.write(1);
    if (!drop_release_fence) ix::fence(mo::kRelease);
    st->flag.store(1, mo::kRelaxed);
  });
  env.thread([st] {
    if (st->flag.load(mo::kRelaxed) == 1) {
      ix::fence(mo::kAcquire);
      ix::check(st->data.read() == 1, "fence MP: stale payload");
    }
  });
}

TEST(InterleaveTest, FencedMessagePassingIsClean) {
  const ix::Result r =
      run([](ix::Env& env) { fence_mp_model(env, false); });
  EXPECT_TRUE(r.ok()) << describe(r);
}

TEST(InterleaveMutantTest, DroppedReleaseFenceIsCaught) {
  const ix::Result r =
      run([](ix::Env& env) { fence_mp_model(env, true); });
  ASSERT_TRUE(r.violation.has_value()) << "dropped fence escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kDataRace);
}

// -- WindowedLatencyHistogram slot rotation ----------------------------------

// Mirrors obs/latency.hpp WindowedLatencyHistogram::observe: both threads
// carry an observation for the NEW epoch; the slot still holds the OLD
// epoch's tally (5). Every interleaving must end with exactly the two new
// observations in the slot.
struct WinSt {
  static constexpr std::uint64_t kOld = 1, kNew = 2, kClaiming = 99;
  ix::Cell<std::uint64_t> epoch{"slot.epoch", kOld};
  ix::Cell<std::uint64_t> count{"slot.count", 5};
};

enum class WinMutant { kNone, kPlainStoreClaim, kPublishBeforeReset };

void win_observe(const std::shared_ptr<WinSt>& st, WinMutant mutant) {
  std::uint64_t e = st->epoch.load(mo::kAcquire);
  while (e != WinSt::kNew) {
    if (e == WinSt::kClaiming) {
      st->epoch.await_eq(WinSt::kNew);  // models the bounded spin
      break;
    }
    if (mutant == WinMutant::kPlainStoreClaim) {
      // Seeded race: claim by check-then-store instead of CAS — two
      // observers can both win and the second reset wipes the first
      // observation.
      st->epoch.store(WinSt::kClaiming, mo::kRelaxed);
      st->count.store(0, mo::kRelaxed);
      st->epoch.store(WinSt::kNew, mo::kRelease);
      break;
    }
    if (st->epoch.compare_exchange(e, WinSt::kClaiming, mo::kAcquire)) {
      if (mutant == WinMutant::kPublishBeforeReset) {
        // Seeded race: epoch published while the slot still holds the old
        // tally — a concurrent observation lands and is then reset away.
        st->epoch.store(WinSt::kNew, mo::kRelease);
        st->count.store(0, mo::kRelaxed);
      } else {
        st->count.store(0, mo::kRelaxed);
        st->epoch.store(WinSt::kNew, mo::kRelease);
      }
      break;
    }
  }
  st->count.fetch_add(1, mo::kRelaxed);
}

void win_model(ix::Env& env, WinMutant mutant) {
  auto st = std::make_shared<WinSt>();
  for (int i = 0; i < 2; ++i)
    env.thread([st, mutant] { win_observe(st, mutant); });
  env.invariant("slot holds exactly the two new-epoch observations",
                [st] { return st->count.peek() == 2; });
  env.invariant("epoch published",
                [st] { return st->epoch.peek() == WinSt::kNew; });
}

TEST(InterleaveTest, WindowRotationIsLossFree) {
  const ix::Result r =
      run([](ix::Env& env) { win_model(env, WinMutant::kNone); });
  EXPECT_TRUE(r.ok()) << describe(r);
}

TEST(InterleaveMutantTest, WindowPlainStoreClaimIsCaught) {
  const ix::Result r = run(
      [](ix::Env& env) { win_model(env, WinMutant::kPlainStoreClaim); });
  ASSERT_TRUE(r.violation.has_value()) << "plain-store claim escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kInvariant);
}

TEST(InterleaveMutantTest, WindowPublishBeforeResetIsCaught) {
  const ix::Result r = run([](ix::Env& env) {
    win_model(env, WinMutant::kPublishBeforeReset);
  });
  ASSERT_TRUE(r.violation.has_value()) << "publish-before-reset escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kInvariant);
}

// -- ScheduleCache hit vs evict ----------------------------------------------

// Mirrors serve/cache.cpp: an entry's payload may only be touched while
// the cache mutex proves it is still resident. The narrowed-critical-
// section mutant re-seeds the exact bug PR 8 fixed in ServeCore::handle
// (validity checked under the lock, payload read after release); the
// widened mutant drags a second lock into the section in the opposite
// order of the stats path.
struct CacheSt {
  ix::Mutex mu{"cache.mu"};
  ix::Mutex stats_mu{"cache.stats_mu"};
  ix::Plain<std::uint64_t> valid{"entry.valid", 1};
  ix::Plain<std::uint64_t> payload{"entry.payload", 42};
};

enum class CacheMutant { kNone, kNarrowedSection, kWidenedSection };

void cache_model(ix::Env& env, CacheMutant mutant) {
  auto st = std::make_shared<CacheSt>();
  env.thread([st, mutant] {  // lookup / hit path
    switch (mutant) {
      case CacheMutant::kNone: {
        st->mu.lock();
        const bool hit = st->valid.read() == 1;
        const std::uint64_t v = hit ? st->payload.read() : 42;
        st->mu.unlock();
        ix::check(v == 42, "hit observed evicted payload");
        break;
      }
      case CacheMutant::kNarrowedSection: {
        // Seeded race: residency checked under the lock, payload read
        // after releasing it.
        st->mu.lock();
        const bool hit = st->valid.read() == 1;
        st->mu.unlock();
        if (hit) ix::check(st->payload.read() == 42, "evicted payload");
        break;
      }
      case CacheMutant::kWidenedSection: {
        // Seeded deadlock: stats lock pulled inside the cache section,
        // opposite to the eviction path's order.
        st->mu.lock();
        st->stats_mu.lock();
        const bool hit = st->valid.read() == 1;
        const std::uint64_t v = hit ? st->payload.read() : 42;
        st->stats_mu.unlock();
        st->mu.unlock();
        ix::check(v == 42, "hit observed evicted payload");
        break;
      }
    }
  });
  env.thread([st, mutant] {  // eviction path
    if (mutant == CacheMutant::kWidenedSection) {
      st->stats_mu.lock();
      st->mu.lock();
      st->valid.write(0);
      st->payload.write(0);
      st->mu.unlock();
      st->stats_mu.unlock();
    } else {
      st->mu.lock();
      st->valid.write(0);
      st->payload.write(0);
      st->mu.unlock();
    }
  });
  env.invariant("entry evicted", [st] { return st->valid.peek() == 0; });
}

TEST(InterleaveTest, CacheHitVsEvictIsClean) {
  const ix::Result r =
      run([](ix::Env& env) { cache_model(env, CacheMutant::kNone); });
  EXPECT_TRUE(r.ok()) << describe(r);
}

TEST(InterleaveMutantTest, CacheNarrowedCriticalSectionIsCaught) {
  const ix::Result r = run([](ix::Env& env) {
    cache_model(env, CacheMutant::kNarrowedSection);
  });
  ASSERT_TRUE(r.violation.has_value()) << "narrowed section escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kDataRace);
}

TEST(InterleaveMutantTest, CacheWidenedCriticalSectionDeadlocks) {
  const ix::Result r = run([](ix::Env& env) {
    cache_model(env, CacheMutant::kWidenedSection);
  });
  ASSERT_TRUE(r.violation.has_value()) << "widened section escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kDeadlock);
}

// -- CancelToken skip-at-dequeue ---------------------------------------------

// Mirrors support/thread_pool.cpp CancelToken: cancel() release-stores the
// flag after writing the reason; the dequeue path may only read the
// reason after an acquire load observes the flag.
void cancel_model(ix::Env& env, bool relaxed_check) {
  struct St {
    ix::Cell<std::uint64_t> cancelled{"cancelled", 0};
    ix::Plain<std::uint64_t> reason{"reason", 0};
  };
  auto st = std::make_shared<St>();
  env.thread([st] {  // canceller
    st->reason.write(4);
    st->cancelled.store(1, mo::kRelease);
  });
  env.thread([st, relaxed_check] {  // dequeue
    const auto order = relaxed_check ? mo::kRelaxed : mo::kAcquire;
    if (st->cancelled.load(order) == 1)
      ix::check(st->reason.read() == 4, "cancel reason not visible");
  });
}

TEST(InterleaveTest, CancelAtDequeueIsClean) {
  const ix::Result r =
      run([](ix::Env& env) { cancel_model(env, false); });
  EXPECT_TRUE(r.ok()) << describe(r);
}

TEST(InterleaveMutantTest, CancelRelaxedCheckIsCaught) {
  // Seeded race: acquire downgraded to relaxed on the dequeue-side check.
  const ix::Result r =
      run([](ix::Env& env) { cancel_model(env, true); });
  ASSERT_TRUE(r.violation.has_value()) << "relaxed downgrade escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kDataRace);
}

// -- exactly-once response teardown ------------------------------------------

// Mirrors serve/core.cpp PendingReq: worker completion and connection
// teardown race to answer; an atomic exchange arbitrates so exactly one
// side delivers (and writes the response slot).
void teardown_model(ix::Env& env, bool downgrade_exchange) {
  struct St {
    ix::Cell<std::uint64_t> answered{"answered", 0};
    ix::Cell<std::uint64_t> delivered{"delivered", 0};
    ix::Plain<std::uint64_t> resp{"resp", 0};
  };
  auto st = std::make_shared<St>();
  auto answer = [st, downgrade_exchange](std::uint64_t status) {
    if (downgrade_exchange) {
      // Seeded race: exchange split into load + store — both sides can
      // win the claim and double-answer.
      if (st->answered.load(mo::kAcquire) == 0) {
        st->answered.store(1, mo::kRelease);
        st->resp.write(status);
        st->delivered.fetch_add(1, mo::kRelaxed);
      }
    } else {
      if (st->answered.exchange(1, mo::kAcqRel) == 0) {
        st->resp.write(status);
        st->delivered.fetch_add(1, mo::kRelaxed);
      }
    }
  };
  env.thread([answer] { answer(7); });   // worker: status=ok
  env.thread([answer] { answer(9); });   // teardown: status=cancelled
  env.invariant("answered exactly once",
                [st] { return st->delivered.peek() == 1; });
}

TEST(InterleaveTest, TeardownAnswersExactlyOnce) {
  const ix::Result r =
      run([](ix::Env& env) { teardown_model(env, false); });
  EXPECT_TRUE(r.ok()) << describe(r);
}

TEST(InterleaveMutantTest, TeardownSplitExchangeIsCaught) {
  const ix::Result r =
      run([](ix::Env& env) { teardown_model(env, true); });
  ASSERT_TRUE(r.violation.has_value()) << "split exchange escaped";
  // Depending on which interleaving the DFS reaches first this surfaces
  // as the resp-slot data race or the double-delivery invariant; both are
  // the same seeded bug.
  EXPECT_TRUE(r.violation->kind == ix::Violation::Kind::kDataRace ||
              r.violation->kind == ix::Violation::Kind::kInvariant)
      << describe(r);
}

// -- native barrier sense reversal (exec/barrier.hpp CentralBarrier) ---------

// Miniature of CentralBarrier::arrive/wait: two participants, two
// consecutive phases, plain data handed across each crossing exactly the
// way the native runtime hands the lowered memory/value arrays across
// barriers — no ordering but the barrier itself. A protocol hole is a
// FastTrack race, a wrong sum, or a deadlocked phase.
struct BarSt {
  static constexpr std::uint64_t kN = 2;
  ix::Cell<std::uint64_t> remaining{"bar.remaining", kN};
  ix::Cell<std::uint64_t> sense{"bar.sense", 0};
  ix::Plain<std::uint64_t> cell0{"cell0", 0};
  ix::Plain<std::uint64_t> cell1{"cell1", 0};
  ix::Plain<std::uint64_t> sum0{"sum0", 0};  ///< thread 0's post-phase-0 read
  ix::Plain<std::uint64_t> sum1{"sum1", 0};
};

enum class BarMutant { kNone, kDroppedSense, kResetAfterRelease };

void bar_cross(const std::shared_ptr<BarSt>& st, BarMutant mutant) {
  const std::uint64_t target =
      mutant == BarMutant::kDroppedSense
          // Seeded bug: wait on a fixed flag value instead of the reversed
          // sense — phase 2's waiters see phase 1's stale release and sail
          // through before everyone arrived.
          ? 1
          : 1 - st->sense.load(mo::kRelaxed);
  const std::uint64_t left =
      st->remaining.fetch_add(~std::uint64_t{0}, mo::kAcqRel);  // -1
  if (left == 1) {  // phase winner: reset, then publish the new sense
    if (mutant == BarMutant::kResetAfterRelease) {
      // Seeded bug: sense published while the counter still reads 0 — a
      // fast re-arrival decrements the unreset counter.
      st->sense.store(target, mo::kRelease);
      st->remaining.store(BarSt::kN, mo::kRelaxed);
    } else {
      st->remaining.store(BarSt::kN, mo::kRelaxed);
      st->sense.store(target, mo::kRelease);
    }
  } else {
    st->sense.await_eq(target);  // models Barrier::wait's bounded spin
  }
}

void bar_model(ix::Env& env, BarMutant mutant) {
  auto st = std::make_shared<BarSt>();
  for (std::uint64_t i = 0; i < BarSt::kN; ++i) {
    env.thread([st, mutant, i] {
      ix::Plain<std::uint64_t>& mine = i == 0 ? st->cell0 : st->cell1;
      ix::Plain<std::uint64_t>& sum = i == 0 ? st->sum0 : st->sum1;
      mine.write(i + 1);             // phase-0 value
      bar_cross(st, mutant);         // crossing 1
      sum.write(st->cell0.read() + st->cell1.read());
      bar_cross(st, mutant);         // crossing 2 (read barrier)
      mine.write(10 * (i + 1));      // phase-1 value; races with the
    });                              // peer's reads if crossing 2 is broken
  }
  env.invariant("both threads summed the phase-0 cells", [st] {
    return st->sum0.peek() == 3 && st->sum1.peek() == 3;
  });
  env.invariant("phase-1 writes landed", [st] {
    return st->cell0.peek() == 10 && st->cell1.peek() == 20;
  });
  env.invariant("counter reset for the next phase",
                [st] { return st->remaining.peek() == BarSt::kN; });
}

TEST(InterleaveTest, SenseReversingBarrierIsClean) {
  const ix::Result r =
      run([](ix::Env& env) { bar_model(env, BarMutant::kNone); });
  EXPECT_TRUE(r.ok()) << describe(r);
  EXPECT_TRUE(r.complete) << "barrier model space must be fully explored";
}

TEST(InterleaveMutantTest, BarrierDroppedSenseIsCaught) {
  const ix::Result r =
      run([](ix::Env& env) { bar_model(env, BarMutant::kDroppedSense); });
  ASSERT_TRUE(r.violation.has_value()) << "dropped sense reversal escaped";
}

TEST(InterleaveMutantTest, BarrierResetAfterReleaseIsCaught) {
  const ix::Result r = run(
      [](ix::Env& env) { bar_model(env, BarMutant::kResetAfterRelease); });
  ASSERT_TRUE(r.violation.has_value()) << "reset/publish reorder escaped";
}

// -- exec worker-team dispatch (exec/team.cpp) -------------------------------

// Miniature of the team's run/worker handoff: two runs back to back on one
// team of two workers, the first with both, the second with worker 0 only.
// The owner writes the job, arms the pending count, tags the run's workers
// with the new generation, release-stores the team's generation word and
// waits for the count to drain (acquire), then reads what the workers
// wrote, as execute() reads the lowered memory the PEs wrote. A worker
// acquire-waits for the generation; holding its tag, it reads the job,
// writes its output and decrements the count (acq_rel). Without the tag
// (worker 1 in run 2) it must touch nothing of the job. The second job's
// write must be ordered after the first run's job reads, which only the
// drained count provides.
struct TeamSt {
  static constexpr std::uint64_t kRuns = 2;
  /// Workers taking part in `run` (1-based).
  static std::uint64_t width(std::uint64_t run) { return run == 1 ? 2 : 1; }
  ix::Plain<std::uint64_t> job{"team.job", 0};
  ix::Cell<std::uint64_t> gen{"team.gen", 0};
  ix::Cell<std::uint64_t> tag0{"worker0.tag", 0};
  ix::Cell<std::uint64_t> tag1{"worker1.tag", 0};
  ix::Cell<std::uint64_t> pending{"team.pending", 0};
  ix::Plain<std::uint64_t> out0{"pe0.out", 0};
  ix::Plain<std::uint64_t> out1{"pe1.out", 0};
};

enum class TeamMutant { kNone, kRelaxedDecrement, kPublishAfterBump };

void team_model(ix::Env& env, TeamMutant mutant) {
  auto st = std::make_shared<TeamSt>();
  env.thread([st, mutant] {  // owner: Team::run
    for (std::uint64_t run = 1; run <= TeamSt::kRuns; ++run) {
      const std::uint64_t n = TeamSt::width(run);
      if (mutant != TeamMutant::kPublishAfterBump) st->job.write(run);
      st->pending.store(n, mo::kRelaxed);
      st->tag0.store(run, mo::kRelaxed);
      if (n == 2) st->tag1.store(run, mo::kRelaxed);
      st->gen.store(run, mo::kRelease);
      // Seeded race: the job lands after the bump a worker may already
      // have acquired.
      if (mutant == TeamMutant::kPublishAfterBump) st->job.write(run);
      st->pending.await_eq(0);  // models pending_.wait's acquire loop
      ix::check(st->out0.read() == 10 * run + 1 &&
                    (n < 2 || st->out1.read() == 10 * run + 2),
                "owner read a stale PE output");
    }
  });
  for (std::uint64_t k = 0; k < 2; ++k) {
    env.thread([st, mutant, k] {  // worker k: Team::work
      ix::Cell<std::uint64_t>& tag = k == 0 ? st->tag0 : st->tag1;
      ix::Plain<std::uint64_t>& out = k == 0 ? st->out0 : st->out1;
      // Seeded race: a relaxed decrement releases nothing to the owner.
      const auto order = mutant == TeamMutant::kRelaxedDecrement
                             ? mo::kRelaxed
                             : mo::kAcqRel;
      for (std::uint64_t run = 1; run <= TeamSt::kRuns; ++run) {
        st->gen.await_eq(run);  // models gen_.wait's acquire loop
        if (tag.load(mo::kRelaxed) != run) continue;  // not in this run
        out.write(10 * st->job.read() + k + 1);
        st->pending.fetch_add(~std::uint64_t{0}, order);  // -1
      }
    });
  }
  env.invariant("both runs drained",
                [st] { return st->pending.peek() == 0; });
}

TEST(InterleaveTest, TeamDispatchIsClean) {
  const ix::Result r =
      run([](ix::Env& env) { team_model(env, TeamMutant::kNone); });
  EXPECT_TRUE(r.ok()) << describe(r);
  EXPECT_TRUE(r.complete) << "team model space must be fully explored";
}

TEST(InterleaveMutantTest, TeamRelaxedDecrementIsCaught) {
  const ix::Result r = run(
      [](ix::Env& env) { team_model(env, TeamMutant::kRelaxedDecrement); });
  ASSERT_TRUE(r.violation.has_value()) << "relaxed decrement escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kDataRace)
      << describe(r);
}

TEST(InterleaveMutantTest, TeamPublishAfterBumpIsCaught) {
  const ix::Result r = run(
      [](ix::Env& env) { team_model(env, TeamMutant::kPublishAfterBump); });
  ASSERT_TRUE(r.violation.has_value()) << "publish after bump escaped";
  EXPECT_EQ(r.violation->kind, ix::Violation::Kind::kDataRace)
      << describe(r);
}

// -- reduction cross-check ---------------------------------------------------

TEST(InterleaveTest, SleepSetsPreserveVerdicts) {
  // Sleep sets must change only the execution count, never the verdict:
  // clean protocols stay clean, seeded bugs stay caught.
  const ix::Result clean_on =
      run([](ix::Env& env) { win_model(env, WinMutant::kNone); }, true);
  const ix::Result clean_off =
      run([](ix::Env& env) { win_model(env, WinMutant::kNone); }, false);
  EXPECT_TRUE(clean_on.ok()) << describe(clean_on);
  EXPECT_TRUE(clean_off.ok()) << describe(clean_off);
  EXPECT_LE(clean_on.executions, clean_off.executions);

  const ix::Result bug_on = run(
      [](ix::Env& env) { win_model(env, WinMutant::kPlainStoreClaim); },
      true);
  const ix::Result bug_off = run(
      [](ix::Env& env) { win_model(env, WinMutant::kPlainStoreClaim); },
      false);
  EXPECT_TRUE(bug_on.violation.has_value());
  EXPECT_TRUE(bug_off.violation.has_value());
}

TEST(InterleaveTest, ViolationCarriesTrace) {
  const ix::Result r = run([](ix::Env& env) {
    cache_model(env, CacheMutant::kNarrowedSection);
  });
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_FALSE(r.violation->trace.empty())
      << "violations must carry the failing execution's event log";
}

}  // namespace
}  // namespace bm
