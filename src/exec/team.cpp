#include "exec/team.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "support/assert.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace bm::exec {

namespace {

/// Pins the calling thread to one CPU (Linux affinity); returns false when
/// unsupported or refused by the kernel. `cpu` is taken modulo the number
/// of configured CPUs.
bool pin_current_thread_to_cpu(unsigned cpu) {
#if defined(__linux__)
  const long ncpu = sysconf(_SC_NPROCESSORS_CONF);
  if (ncpu <= 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % static_cast<unsigned>(ncpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

/// The CPU the calling thread is running on; -1 where unknown.
int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

class Team {
 public:
  Team() {
#if defined(__linux__)
    have_start_mask_ =
        sched_getaffinity(0, sizeof(start_mask_), &start_mask_) == 0;
#endif
  }

  ~Team() {
    // The stop run: every worker takes part, and a null job ends it.
    fn_ = nullptr;
    post(static_cast<std::uint32_t>(workers_.size()));
    for (const std::unique_ptr<Worker>& w : workers_) w->th.join();
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  void run(std::uint32_t n, bool pin,
           const std::function<void(std::uint32_t)>& fn) {
    BM_REQUIRE(n >= 1, "a team run needs at least one worker");
    // Reserved up front so that a worker is listed exactly when its thread
    // started: push_back cannot throw after the spawn.
    if (workers_.size() < n) workers_.reserve(n);
    while (workers_.size() < n) {
      auto w = std::make_unique<Worker>();
      const auto id = static_cast<std::uint32_t>(workers_.size());
      // mo: the owner is gen_'s only writer.
      const std::uint32_t seen = gen_.load(std::memory_order_relaxed);
      w->th = std::thread(
          [this, p = w.get(), id, seen] { work(*p, id, seen); });
      workers_.push_back(std::move(w));
    }
    fn_ = &fn;
    pin_ = pin;
    run_n_ = n;
#if defined(__linux__)
    const auto cpus = static_cast<std::size_t>(CPU_COUNT(&start_mask_));
    spread_ = !pin && have_start_mask_ && workers_.size() < cpus;
#endif
    if (spread_) owner_cpu_ = current_cpu();
    // mo: no worker is inside a run (the previous run's acquire-wait saw
    // every decrement); the release store in post() publishes this store.
    pending_.store(n, std::memory_order_relaxed);
    post(n);
    for (;;) {
      const std::uint32_t left = pending_.load(std::memory_order_acquire);
      if (left == 0) break;
      pending_.wait(left, std::memory_order_acquire);
    }
  }

 private:
  /// Padded so the owner's tag stores and the workers' wake-up loads do
  /// not share lines.
  struct alignas(64) Worker {
    std::atomic<std::uint32_t> run_gen{0};  ///< tag: last run it is in
    /// The CPU it started its last spread run on (see spread()); -1 none.
    std::atomic<int> cpu{-1};
    bool pinned = false;                    ///< worker-private
    std::thread th;
  };

  /// Starts a generation in which workers 0..n-1 take part.
  void post(std::uint32_t n) {
    // mo: the owner is gen_'s only writer.
    const std::uint32_t g = gen_.load(std::memory_order_relaxed) + 1;
    for (std::uint32_t k = 0; k < n; ++k)
      // mo: published by the release store of gen_ below.
      workers_[k]->run_gen.store(g, std::memory_order_relaxed);
    gen_.store(g, std::memory_order_release);
    gen_.notify_all();
  }

  void work(Worker& w, std::uint32_t id, std::uint32_t seen) {
    for (;;) {
      gen_.wait(seen, std::memory_order_acquire);
      seen = gen_.load(std::memory_order_acquire);
      // mo: a participant's run_gen was stored before the release of the
      // generation just acquired; a non-participant only compares it.
      if (w.run_gen.load(std::memory_order_relaxed) != seen) continue;
      if (fn_ == nullptr) return;
      if (pin_) {
        w.pinned = pin_current_thread_to_cpu(id);
      } else if (w.pinned) {
        restore_affinity();
        w.pinned = false;
      }
      if (spread_) spread(w);
      (*fn_)(id);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        pending_.notify_one();
    }
  }

  /// Moves the calling worker off a CPU it shares with the owner or with
  /// another worker of this run. A fresh thread per run was placed by the
  /// scheduler's fork balancing; a persistent worker is woken on the CPU it
  /// last ran on, so two workers that once landed on one CPU keep meeting
  /// there, and every barrier of every later run hands that CPU back and
  /// forth. The worker sets its affinity to one CPU no teammate claims,
  /// which migrates it there, then restores the owner's start mask, which
  /// leaves it where it landed: its affinity is unchanged and its next
  /// wake-up starts from the new CPU.
  void spread(Worker& w) {
#if defined(__linux__)
    const int cpu = current_cpu();
    const auto claimed = [&](int c) {
      if (c == owner_cpu_) return true;
      for (std::uint32_t k = 0; k < run_n_; ++k)
        // mo: a placement hint; a stale CPU only costs or saves one move.
        if (workers_[k].get() != &w &&
            workers_[k]->cpu.load(std::memory_order_relaxed) == c)
          return true;
      return false;
    };
    int at = cpu;
    if (cpu >= 0 && claimed(cpu)) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &start_mask_) || claimed(c)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0) {
          restore_affinity();
          at = c;
        }
        break;
      }
    }
    // mo: a placement hint, read by teammates with relaxed loads.
    w.cpu.store(at, std::memory_order_relaxed);
#else
    (void)w;
#endif
  }

  /// Drops a pin left by an earlier run: back to the owner's mask at team
  /// start.
  void restore_affinity() const {
#if defined(__linux__)
    if (have_start_mask_)
      pthread_setaffinity_np(pthread_self(), sizeof(start_mask_),
                             &start_mask_);
#endif
  }

  // The current job: written by the owner before the release store of
  // gen_, read only by workers holding that generation's tag.
  const std::function<void(std::uint32_t)>* fn_ = nullptr;
  bool pin_ = false;
  std::uint32_t run_n_ = 0;
  /// Whether this run's workers spread out (see spread()): not on a pinned
  /// run, and only while the owner and every worker fit on a CPU each.
  bool spread_ = false;
  int owner_cpu_ = -1;  ///< where the owner posted this run from

  alignas(64) std::atomic<std::uint32_t> gen_{0};
  alignas(64) std::atomic<std::uint32_t> pending_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
#if defined(__linux__)
  cpu_set_t start_mask_{};
  bool have_start_mask_ = false;
#endif
};

}  // namespace

void team_run(std::uint32_t n, bool pin,
              const std::function<void(std::uint32_t)>& fn) {
  thread_local Team team;
  team.run(n, pin, fn);
}

}  // namespace bm::exec
