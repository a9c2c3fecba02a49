#include "support/interleave.hpp"

#include <cstdio>
#include <cstdlib>
#include <semaphore>
#include <thread>
#include <utility>

namespace bm::ix {

namespace {

/// Thrown inside a worker to unwind its body when the execution is
/// abandoned (violation found, or backtracking past a pruned branch).
struct AbortExec {};

std::string u64s(std::uint64_t v) { return std::to_string(v); }

/// "T<tid> ", the prefix of every event-log line. Built by appending: a
/// chain that starts with `"T" + std::to_string(...)` trips GCC 12's
/// -Wrestrict false positive at -O3.
std::string thread_tag(int tid) {
  std::string tag = "T";
  tag += std::to_string(tid);
  tag += ' ';
  return tag;
}

}  // namespace

const char* memorder_name(MemOrder mo) {
  switch (mo) {
    case MemOrder::kRelaxed: return "relaxed";
    case MemOrder::kAcquire: return "acquire";
    case MemOrder::kRelease: return "release";
    case MemOrder::kAcqRel: return "acq_rel";
    case MemOrder::kSeqCst: return "seq_cst";
  }
  return "?";
}

const char* violation_kind_name(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::kCheck: return "check";
    case Violation::Kind::kInvariant: return "invariant";
    case Violation::Kind::kDataRace: return "data-race";
    case Violation::Kind::kDeadlock: return "deadlock";
    case Violation::Kind::kStepLimit: return "step-limit";
  }
  return "?";
}

namespace detail {
namespace {
thread_local Explorer* t_cur = nullptr;
thread_local int t_tid = -1;
}  // namespace
Explorer* cur() { return t_cur; }
int cur_tid() { return t_tid; }
}  // namespace detail

using detail::CellState;
using detail::kMaxThreads;
using detail::PlainState;
using detail::StoreRecord;
using detail::VectorClock;

namespace {

constexpr bool has_acquire(MemOrder mo) {
  return mo == MemOrder::kAcquire || mo == MemOrder::kAcqRel ||
         mo == MemOrder::kSeqCst;
}
constexpr bool has_release(MemOrder mo) {
  return mo == MemOrder::kRelease || mo == MemOrder::kAcqRel ||
         mo == MemOrder::kSeqCst;
}

/// What a yielded thread wants to do next. Published before blocking so
/// the scheduler can test enabledness (mutex/await) and op dependence
/// (sleep sets) without running the thread.
struct OpDesc {
  enum class Kind {
    kNone,
    kLoad,
    kStore,
    kRmw,
    kAwait,
    kPlainRead,
    kPlainWrite,
    kLock,
    kUnlock,
  };
  Kind kind = Kind::kNone;
  const void* obj = nullptr;
  std::function<bool()> enabled;  ///< null = always enabled
  bool write_like = false;
  std::string what;  ///< "cache.mu.lock()" — deadlock and trace text
};

/// Two pending/executed ops commute iff they touch different objects or
/// are both pure reads. Used for sleep-set wakeups.
bool independent_ops(const OpDesc& a, const OpDesc& b) {
  if (a.kind == OpDesc::Kind::kNone || b.kind == OpDesc::Kind::kNone)
    return false;  // unknown: conservatively dependent
  if (a.obj != b.obj) return true;
  return !a.write_like && !b.write_like;
}

}  // namespace

class Explorer {
 public:
  Explorer(const Options& opts, std::function<void(Env&)> program)
      : opts_(opts), program_(std::move(program)) {}

  ~Explorer() {
    exit_ = true;
    for (int i = 0; i < nthreads_; ++i) threads_[i].go.release();
    for (int i = 0; i < nthreads_; ++i)
      if (threads_[i].worker.joinable()) threads_[i].worker.join();
  }

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  Result run();

  // -- worker-side hooks (exactly one worker runs at a time) --------------

  void yield(OpDesc op);
  [[noreturn]] void fail(Violation::Kind kind, std::string msg);

  std::uint64_t cell_load(CellState& c, MemOrder mo);
  void cell_store(CellState& c, std::uint64_t val, MemOrder mo);
  std::uint64_t cell_rmw_read(CellState& c, MemOrder mo);
  void cell_rmw_write(CellState& c, std::uint64_t val, MemOrder mo);
  void cell_await_load(CellState& c);
  std::uint64_t plain_read(PlainState& p);
  void plain_write(PlainState& p, std::uint64_t val);
  void mutex_lock(Mutex& m);
  void mutex_unlock(Mutex& m);
  void fence_op(MemOrder mo);
  void log_event(std::string line) { events_.push_back(std::move(line)); }

  /// Branch point shared by scheduling and load-value decisions: replays
  /// the DFS prefix, then extends the stack with choice 0.
  int choose(bool sched, int num, std::vector<int> cands);

 private:
  enum class St { kIdle, kRunning, kAtYield, kFinished };

  struct ThreadState {
    std::thread worker;
    std::binary_semaphore go{0};
    std::function<void()> body;
    St st = St::kIdle;
    OpDesc pending;
    VectorClock clock;
    VectorClock pending_release;  ///< clock at the last release fence
    VectorClock pending_acquire;  ///< release clocks of relaxed-loaded stores
  };

  struct Node {
    bool sched = false;
    int num = 0;
    int chosen = 0;
    std::vector<int> cands;  ///< sched nodes: candidate tids
  };

  void run_one_execution();
  void resume(int tid);
  void unwind();
  void set_violation(Violation::Kind kind, std::string msg);
  bool enabled(int tid);
  void tick(int tid) { ++threads_[tid].clock.v[tid]; }
  [[noreturn]] void die(const char* msg) {
    std::fprintf(stderr, "ix::Explorer internal error: %s\n", msg);
    std::abort();
  }

  void worker_main(int tid);

  Options opts_;
  std::function<void(Env&)> program_;
  std::vector<std::pair<std::string, std::function<bool()>>> invariants_;

  ThreadState threads_[kMaxThreads];
  int nthreads_ = -1;
  std::binary_semaphore sched_sem_{0};
  bool exit_ = false;

  std::vector<Node> stack_;
  std::size_t pos_ = 0;  ///< replay cursor into stack_

  long executions_ = 0;
  bool aborting_ = false;
  std::uint32_t sleep_ = 0;  ///< current sleep set (tid bitmask)
  std::optional<Violation> violation_;
  std::vector<std::string> events_;

  friend class ::bm::ix::Env;
};

// -- exploration driver ------------------------------------------------------

Result Explorer::run() {
  for (;;) {
    run_one_execution();
    ++executions_;
    if (violation_) return {executions_, false, violation_};
    // Backtrack: bump the deepest unexhausted decision, drop everything
    // below it. Empty stack = the whole space has been covered.
    while (!stack_.empty()) {
      Node& b = stack_.back();
      if (b.chosen + 1 < b.num) {
        ++b.chosen;
        break;
      }
      stack_.pop_back();
    }
    if (stack_.empty()) return {executions_, true, std::nullopt};
    if (executions_ >= opts_.max_executions)
      return {executions_, false, std::nullopt};
  }
}

void Explorer::run_one_execution() {
  pos_ = 0;
  aborting_ = false;
  sleep_ = 0;
  events_.clear();

  Env env;
  program_(env);
  if (nthreads_ < 0) {
    nthreads_ = static_cast<int>(env.bodies_.size());
    if (nthreads_ < 1 || nthreads_ > kMaxThreads)
      die("thread count out of range");
    for (int i = 0; i < nthreads_; ++i)
      threads_[i].worker = std::thread([this, i] { worker_main(i); });
  } else if (static_cast<int>(env.bodies_.size()) != nthreads_) {
    die("program registered a different thread count across executions");
  }
  invariants_ = std::move(env.invariants_);

  for (int i = 0; i < nthreads_; ++i) {
    ThreadState& t = threads_[i];
    t.body = std::move(env.bodies_[i]);
    t.st = St::kIdle;
    t.pending = OpDesc{};
    t.clock.clear();
    t.clock.v[i] = 1;
    t.pending_release.clear();
    t.pending_acquire.clear();
  }

  // Run every thread to its first yield point (or completion). No shared
  // op executes here, so the fixed start order costs no coverage.
  for (int i = 0; i < nthreads_; ++i) resume(i);
  if (violation_) {
    unwind();
    return;
  }

  int steps = 0;
  for (;;) {
    std::vector<int> runnable;
    bool any_alive = false;
    for (int i = 0; i < nthreads_; ++i) {
      if (threads_[i].st == St::kFinished) continue;
      any_alive = true;
      if (enabled(i)) runnable.push_back(i);
    }
    if (!any_alive) break;
    if (runnable.empty()) {
      std::string msg = "no runnable thread:";
      for (int i = 0; i < nthreads_; ++i)
        if (threads_[i].st != St::kFinished)
          msg += " T" + std::to_string(i) + " blocked on " +
                 threads_[i].pending.what + ";";
      set_violation(Violation::Kind::kDeadlock, msg);
      unwind();
      return;
    }

    std::vector<int> cands;
    for (int tid : runnable)
      if (!opts_.sleep_sets || !((sleep_ >> tid) & 1u)) cands.push_back(tid);
    if (cands.empty()) {
      // Every runnable thread is asleep: this branch only replays an
      // already-explored trace. Abandon it (no invariant check needed —
      // the equivalent terminal state was checked on the representative).
      unwind();
      return;
    }

    const int k = choose(true, static_cast<int>(cands.size()), cands);
    const int tid = cands[k];
    std::uint32_t branch_sleep = sleep_;
    for (int i = 0; i < k; ++i) branch_sleep |= 1u << cands[i];
    const OpDesc op = threads_[tid].pending;  // executed this step

    resume(tid);
    if (violation_) {
      unwind();
      return;
    }

    // Sleep-set evolution: a sleeping thread wakes when an op dependent
    // with its pending op executes.
    std::uint32_t next_sleep = 0;
    for (int u = 0; u < nthreads_; ++u)
      if (((branch_sleep >> u) & 1u) && threads_[u].st != St::kFinished &&
          independent_ops(threads_[u].pending, op))
        next_sleep |= 1u << u;
    sleep_ = next_sleep;

    if (++steps > opts_.max_steps) {
      set_violation(Violation::Kind::kStepLimit,
                    "execution exceeded max_steps = " +
                        std::to_string(opts_.max_steps) +
                        " (unbounded spin in the model?)");
      unwind();
      return;
    }
  }

  for (const auto& [name, inv] : invariants_) {
    if (!inv()) {
      set_violation(Violation::Kind::kInvariant,
                    "invariant failed: " + name);
      break;
    }
  }
  for (int i = 0; i < nthreads_; ++i) threads_[i].body = nullptr;
  invariants_.clear();
}

void Explorer::resume(int tid) {
  threads_[tid].go.release();
  sched_sem_.acquire();
}

void Explorer::unwind() {
  aborting_ = true;
  for (int i = 0; i < nthreads_; ++i)
    if (threads_[i].st != St::kFinished) resume(i);
  for (int i = 0; i < nthreads_; ++i) threads_[i].body = nullptr;
  invariants_.clear();
}

void Explorer::set_violation(Violation::Kind kind, std::string msg) {
  if (violation_) return;
  violation_ = Violation{kind, std::move(msg), events_};
}

bool Explorer::enabled(int tid) {
  const OpDesc& p = threads_[tid].pending;
  return !p.enabled || p.enabled();
}

int Explorer::choose(bool sched, int num, std::vector<int> cands) {
  if (num <= 1) return 0;  // no branch, no stack entry
  if (pos_ < stack_.size()) {
    Node& nd = stack_[pos_];
    if (nd.sched != sched || nd.num != num)
      die("nondeterministic model: decision replay mismatch");
    ++pos_;
    return nd.chosen;
  }
  stack_.push_back(Node{sched, num, 0, std::move(cands)});
  ++pos_;
  return 0;
}

void Explorer::worker_main(int tid) {
  detail::t_cur = this;
  detail::t_tid = tid;
  ThreadState& t = threads_[tid];
  for (;;) {
    t.go.acquire();
    if (exit_) return;
    try {
      t.body();
    } catch (const AbortExec&) {
    } catch (const std::exception& e) {
      set_violation(Violation::Kind::kCheck,
                    std::string("uncaught exception in model thread: ") +
                        e.what());
    }
    t.st = St::kFinished;
    sched_sem_.release();
  }
}

void Explorer::yield(OpDesc op) {
  ThreadState& t = threads_[detail::t_tid];
  t.pending = std::move(op);
  t.st = St::kAtYield;
  sched_sem_.release();
  t.go.acquire();
  if (aborting_) throw AbortExec{};
  t.st = St::kRunning;
}

void Explorer::fail(Violation::Kind kind, std::string msg) {
  set_violation(kind, std::move(msg));
  throw AbortExec{};
}

// -- op effects (run on the scheduled worker; nothing else executes) ---------

std::uint64_t Explorer::cell_load(CellState& c, MemOrder mo) {
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  // Coherence floor: a load may not read below the newest store it knows
  // happened-before it, nor below anything this thread read/wrote earlier.
  int lb = c.last_read_[tid];
  for (int i = static_cast<int>(c.stores_.size()) - 1; i > lb; --i) {
    if (c.stores_[i].when.leq(t.clock)) {
      lb = i;
      break;
    }
  }
  const int n = static_cast<int>(c.stores_.size()) - lb;
  // Candidates ordered newest-first so the first execution reads like SC.
  const int k = choose(false, n, {});
  const int idx = static_cast<int>(c.stores_.size()) - 1 - k;
  const StoreRecord& s = c.stores_[idx];
  c.last_read_[tid] = idx;
  if (has_acquire(mo))
    t.clock.join(s.release);
  else
    t.pending_acquire.join(s.release);
  tick(tid);
  log_event(thread_tag(tid) + c.name() + ".load(" +
            memorder_name(mo) + ") = " + u64s(s.value) + " [store#" +
            std::to_string(idx) + "]");
  return s.value;
}

void Explorer::cell_store(CellState& c, std::uint64_t val, MemOrder mo) {
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  tick(tid);
  StoreRecord s;
  s.value = val;
  s.by_tid = tid;
  s.when = t.clock;
  // Release publishes the thread's clock; a relaxed store publishes at
  // most what a prior release fence snapshotted.
  s.release = has_release(mo) ? t.clock : t.pending_release;
  c.stores_.push_back(s);
  c.last_read_[tid] = static_cast<int>(c.stores_.size()) - 1;
  log_event(thread_tag(tid) + c.name() + ".store(" +
            u64s(val) + ", " + memorder_name(mo) + ")");
}

std::uint64_t Explorer::cell_rmw_read(CellState& c, MemOrder mo) {
  // RMWs always read the latest store in modification order.
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  const StoreRecord& s = c.stores_.back();
  if (has_acquire(mo))
    t.clock.join(s.release);
  else
    t.pending_acquire.join(s.release);
  c.last_read_[tid] = static_cast<int>(c.stores_.size()) - 1;
  return s.value;
}

void Explorer::cell_rmw_write(CellState& c, std::uint64_t val, MemOrder mo) {
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  tick(tid);
  StoreRecord s;
  s.value = val;
  s.by_tid = tid;
  s.when = t.clock;
  s.release = has_release(mo) ? t.clock : t.pending_release;
  // RMWs continue the release sequence of the store they replace.
  s.release.join(c.stores_.back().release);
  c.stores_.push_back(s);
  c.last_read_[tid] = static_cast<int>(c.stores_.size()) - 1;
}

void Explorer::cell_await_load(CellState& c) {
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  const StoreRecord& s = c.stores_.back();
  t.clock.join(s.release);  // await is an acquire read of the latest store
  c.last_read_[tid] = static_cast<int>(c.stores_.size()) - 1;
  tick(tid);
  log_event(thread_tag(tid) + c.name() + ".await -> " +
            u64s(s.value));
}

std::uint64_t Explorer::plain_read(PlainState& p) {
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  if (!p.race_check_read(t.clock))
    fail(Violation::Kind::kDataRace,
         std::string("data race on ") + p.name() + ": T" +
             std::to_string(tid) + " read vs T" +
             std::to_string(p.last_writer()) + " unsynchronized write");
  tick(tid);
  p.note_read(tid, t.clock);
  log_event(thread_tag(tid) + p.name() + ".read = " +
            u64s(p.peek()));
  return p.peek();
}

void Explorer::plain_write(PlainState& p, std::uint64_t val) {
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  int other = -1;
  if (!p.race_check_write(t.clock, other))
    fail(Violation::Kind::kDataRace,
         std::string("data race on ") + p.name() + ": T" +
             std::to_string(tid) + " write vs T" + std::to_string(other) +
             " unsynchronized access");
  tick(tid);
  p.note_write(tid, t.clock, val);
  log_event(thread_tag(tid) + p.name() + ".write(" +
            u64s(val) + ")");
}

void Explorer::mutex_lock(Mutex& m) {
  const int tid = detail::t_tid;
  if (m.held_by_ != -1) die("scheduled a lock of a held mutex");
  m.held_by_ = tid;
  threads_[tid].clock.join(m.clock_);
  tick(tid);
  log_event(thread_tag(tid) + m.name_ + ".lock()");
}

void Explorer::mutex_unlock(Mutex& m) {
  const int tid = detail::t_tid;
  if (m.held_by_ != tid)
    fail(Violation::Kind::kCheck,
         std::string("unlock of ") + m.name_ + " not held by T" +
             std::to_string(tid));
  tick(tid);
  m.clock_.join(threads_[tid].clock);
  m.held_by_ = -1;
  log_event(thread_tag(tid) + m.name_ + ".unlock()");
}

void Explorer::fence_op(MemOrder mo) {
  const int tid = detail::t_tid;
  ThreadState& t = threads_[tid];
  if (has_release(mo)) t.pending_release = t.clock;
  if (has_acquire(mo)) {
    t.clock.join(t.pending_acquire);
    t.pending_acquire.clear();
  }
  log_event(thread_tag(tid) + "fence(" + memorder_name(mo) + ")");
}

// -- model-facing wrappers ---------------------------------------------------

namespace {

Explorer& ex_checked() {
  Explorer* ex = detail::cur();
  if (!ex || detail::cur_tid() < 0) {
    std::fprintf(stderr,
                 "ix:: operation outside an explore() worker thread\n");
    std::abort();
  }
  return *ex;
}

OpDesc make_op(OpDesc::Kind kind, const void* obj, bool write_like,
               std::string what, std::function<bool()> enabled = nullptr) {
  OpDesc op;
  op.kind = kind;
  op.obj = obj;
  op.write_like = write_like;
  op.what = std::move(what);
  op.enabled = std::move(enabled);
  return op;
}

}  // namespace

namespace detail {

CellState::CellState(const char* name, std::uint64_t init) : name_(name) {
  StoreRecord s;
  s.value = init;  // initial store: bottom clocks, visible to every thread
  stores_.push_back(s);
  for (auto& r : last_read_) r = 0;
}

std::uint64_t CellState::load(MemOrder mo) {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kLoad, this, false,
                   std::string(name_) + ".load"));
  return ex.cell_load(*this, mo);
}

void CellState::store(std::uint64_t val, MemOrder mo) {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kStore, this, true,
                   std::string(name_) + ".store"));
  ex.cell_store(*this, val, mo);
}

std::uint64_t CellState::fetch_add(std::uint64_t d, MemOrder mo) {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kRmw, this, true,
                   std::string(name_) + ".fetch_add"));
  const std::uint64_t old = ex.cell_rmw_read(*this, mo);
  ex.cell_rmw_write(*this, old + d, mo);
  ex.log_event(thread_tag(cur_tid()) + name_ +
               ".fetch_add(" + u64s(d) + ", " + memorder_name(mo) +
               ") = " + u64s(old));
  return old;
}

std::uint64_t CellState::exchange(std::uint64_t val, MemOrder mo) {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kRmw, this, true,
                   std::string(name_) + ".exchange"));
  const std::uint64_t old = ex.cell_rmw_read(*this, mo);
  ex.cell_rmw_write(*this, val, mo);
  ex.log_event(thread_tag(cur_tid()) + name_ +
               ".exchange(" + u64s(val) + ", " + memorder_name(mo) +
               ") = " + u64s(old));
  return old;
}

bool CellState::compare_exchange(std::uint64_t& expected,
                                 std::uint64_t desired, MemOrder mo) {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kRmw, this, true,
                   std::string(name_) + ".cas"));
  const std::uint64_t old = ex.cell_rmw_read(*this, mo);
  const bool ok = old == expected;
  if (ok) ex.cell_rmw_write(*this, desired, mo);
  ex.log_event(thread_tag(cur_tid()) + name_ + ".cas(" +
               u64s(expected) + " -> " + u64s(desired) + ", " +
               memorder_name(mo) + ") = " + (ok ? "ok" : "fail"));
  expected = old;
  return ok;
}

void CellState::await(std::function<bool(std::uint64_t)> pred,
                      const char* what) {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kAwait, this, false,
                   std::string(name_) + "." + what,
                   [this, pred] { return pred(stores_.back().value); }));
  ex.cell_await_load(*this);
}

std::uint64_t CellState::peek() const { return stores_.back().value; }

PlainState::PlainState(const char* name, std::uint64_t init)
    : name_(name), value_(init) {}

std::uint64_t PlainState::read() {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kPlainRead, this, false,
                   std::string(name_) + ".read"));
  return ex.plain_read(*this);
}

void PlainState::write(std::uint64_t val) {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kPlainWrite, this, true,
                   std::string(name_) + ".write"));
  ex.plain_write(*this, val);
}

}  // namespace detail

void Mutex::lock() {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kLock, this, true,
                   std::string(name_) + ".lock",
                   [this] { return held_by_ == -1; }));
  ex.mutex_lock(*this);
}

void Mutex::unlock() {
  Explorer& ex = ex_checked();
  ex.yield(make_op(OpDesc::Kind::kUnlock, this, true,
                   std::string(name_) + ".unlock"));
  ex.mutex_unlock(*this);
}

void fence(MemOrder mo) { ex_checked().fence_op(mo); }

void check(bool cond, const std::string& msg) {
  if (cond) return;
  ex_checked().fail(Violation::Kind::kCheck, "check failed: " + msg);
}

void Env::thread(std::function<void()> body) {
  bodies_.push_back(std::move(body));
}

void Env::invariant(std::string name, std::function<bool()> inv) {
  invariants_.emplace_back(std::move(name), std::move(inv));
}

Result explore(const Options& opts,
               const std::function<void(Env&)>& program) {
  Explorer ex(opts, program);
  return ex.run();
}

}  // namespace bm::ix
