#include "exec/jit.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "exec/team.hpp"
#include "support/assert.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <dlfcn.h>
#define BM_JIT_HAVE_DLOPEN 1
#endif

// Uninstrumented generated code would blind TSan (missed synchronization →
// false races) and confuse ASan interceptors; the JIT leg simply reports
// unavailable there and tests fall back to the interpreter.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define BM_JIT_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define BM_JIT_SANITIZED 1
#endif
#endif

namespace bm::exec {

namespace {

// Matches the extern "C" ABI of emit_cpp().
struct AbiCtx {
  std::int64_t* mem;
  std::int64_t* val;
  unsigned char* ready;
  void* rt;
  void (*barrier_wait)(void* rt, std::uint32_t barrier, std::uint32_t slot);
};
using AbiPeFn = void (*)(AbiCtx*);

std::string pick_compiler(const JitOptions& opts) {
  if (!opts.compiler.empty()) return opts.compiler;
  if (const char* cxx = std::getenv("CXX"); cxx != nullptr && *cxx != '\0')
    return cxx;
  return "c++";
}

#if defined(BM_JIT_HAVE_DLOPEN) && !defined(BM_JIT_SANITIZED)
// Only referenced by the available() probe, which sanitized builds
// compile out entirely.
bool compiler_answers(const std::string& cxx) {
  const std::string probe = cxx + " --version >/dev/null 2>&1";
  return std::system(probe.c_str()) == 0;  // NOLINT
}
#endif

struct JitRun {
  std::vector<std::unique_ptr<Barrier>> bars;
  std::vector<std::atomic<std::uint64_t>>* fire = nullptr;
};

thread_local WaitStats* tls_wait_stats = nullptr;

void barrier_trampoline(void* rt, std::uint32_t barrier, std::uint32_t slot) {
  auto* run = static_cast<JitRun*>(rt);
  run->bars[barrier]->arrive_and_wait(slot, tls_wait_stats);
}

}  // namespace

struct JitModule::Impl {
  LoweredProgram lp;
  std::string dir;
  bool keep = false;
  void* handle = nullptr;
  std::vector<AbiPeFn> fns;

  ~Impl() {
#if defined(BM_JIT_HAVE_DLOPEN)
    if (handle != nullptr) dlclose(handle);
#endif
    if (!keep && !dir.empty()) {
      std::error_code ec;  // best-effort cleanup; never throw from a dtor
      std::filesystem::remove_all(dir, ec);
    }
  }
};

bool JitModule::available() {
#if !defined(BM_JIT_HAVE_DLOPEN) || defined(BM_JIT_SANITIZED)
  return false;
#else
  if (const char* off = std::getenv("BM_EXEC_NO_JIT");
      off != nullptr && *off != '\0')
    return false;
  static const bool ok = compiler_answers(pick_compiler(JitOptions{}));
  return ok;
#endif
}

JitModule::JitModule(const LoweredProgram& lp, const JitOptions& opts)
    : impl_(std::make_unique<Impl>()) {
#if !defined(BM_JIT_HAVE_DLOPEN)
  throw Error("JIT backend not supported on this platform (no dlopen)");
#else
#if defined(BM_JIT_SANITIZED)
  throw Error(
      "JIT backend disabled under sanitizers; use the interpreter runtime");
#endif
  impl_->lp = lp;
  impl_->keep = opts.keep;
  if (!opts.work_dir.empty()) {
    impl_->dir = opts.work_dir;
    std::filesystem::create_directories(impl_->dir);
    impl_->keep = true;  // caller owns an explicit directory
  } else {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bmexec.XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr)
      throw Error("mkdtemp failed for JIT work dir: " + tmpl);
    impl_->dir = tmpl;
  }

  const std::string cpp = impl_->dir + "/schedule.cpp";
  const std::string so = impl_->dir + "/schedule.so";
  {
    std::ofstream out(cpp);
    out << emit_cpp(lp);
    if (!out) throw Error("cannot write generated source: " + cpp);
  }
  const std::string cxx = pick_compiler(opts);
  const std::string log = impl_->dir + "/compile.log";
  const std::string cmd = cxx + " -std=c++17 -O2 -fPIC -shared -o " + so +
                          " " + cpp + " >" + log + " 2>&1";
  if (std::system(cmd.c_str()) != 0)  // NOLINT
    throw Error("JIT compile failed (" + cxx + "); log: " + log);

  impl_->handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (impl_->handle == nullptr)
    throw Error(std::string("dlopen failed: ") + dlerror());

  const auto sym = [&](const char* name) {
    void* s = dlsym(impl_->handle, name);
    if (s == nullptr)
      throw Error(std::string("generated module lacks symbol ") + name);
    return s;
  };
  const auto expect = [&](const char* name, std::uint32_t want) {
    const auto got = *static_cast<const std::uint32_t*>(sym(name));
    if (got != want)
      throw Error(std::string("generated module shape mismatch: ") + name +
                  " is " + std::to_string(got) + ", lowering says " +
                  std::to_string(want));
  };
  expect("bm_num_pes", lp.num_procs);
  expect("bm_num_vars", lp.num_vars);
  expect("bm_num_vals", lp.num_values);
  expect("bm_num_barriers", static_cast<std::uint32_t>(lp.barriers.size()));
  const auto* table = static_cast<AbiPeFn const*>(sym("bm_pes"));
  impl_->fns.assign(table, table + lp.num_procs);
#endif
}

JitModule::~JitModule() = default;

const std::string& JitModule::artifact_dir() const { return impl_->dir; }

ExecResult JitModule::run(const ExecOptions& opts) const {
  const LoweredProgram& lp = impl_->lp;
  JitRun run;
  std::vector<std::atomic<std::uint64_t>> fire(lp.barriers.size());
  std::atomic<std::uint64_t> start_raw{0};
  run.bars.reserve(lp.barriers.size());
  for (std::size_t b = 0; b < lp.barriers.size(); ++b) {
    run.bars.push_back(make_barrier(
        opts.barrier,
        static_cast<std::uint32_t>(lp.barriers[b].participants.size()),
        opts.spin_iters));
    if (opts.timeline) run.bars[b]->set_fire_ns_sink(&fire[b]);
  }
  const auto start =
      make_barrier(opts.barrier, lp.num_procs, opts.spin_iters);
  start->set_fire_ns_sink(&start_raw);

  std::vector<std::int64_t> mem(lp.num_vars, 0);
  for (std::size_t i = 0; i < opts.initial_memory.size() && i < mem.size();
       ++i)
    mem[i] = opts.initial_memory[i];
  std::vector<std::int64_t> val(lp.num_values, 0);
  // Ready flags for the generated code's bm_await/bm_done handshakes; the
  // host only zero-fills before the team run, the TU's __atomic builtins
  // do the release/acquire during the run.
  std::vector<unsigned char> ready(lp.num_values, 0);
  std::vector<std::uint64_t> finish_raw(lp.num_procs, 0);

  // Wait accounting, one slot per PE (one writer each), summed below.
  std::vector<WaitStats> stats(lp.num_procs);

  AbiCtx ctx{mem.data(), val.data(), ready.data(), &run, &barrier_trampoline};
  team_run(lp.num_procs, opts.pin, [&](std::uint32_t p) {
    tls_wait_stats = &stats[p];
    start->arrive_and_wait(p);
    impl_->fns[p](&ctx);
    if (opts.timeline) finish_raw[p] = steady_now_ns();
    tls_wait_stats = nullptr;
  });
  const std::uint64_t end_ns = steady_now_ns();

  ExecResult r;
  r.memory = std::move(mem);
  r.values = std::move(val);
  r.carrier_threads = lp.num_procs;
  r.blocking = true;
  for (const WaitStats& s : stats) {
    r.spins += s.spins;
    r.yields += s.yields;
  }
  // mo: the team run above completed; plain post-run reads.
  const std::uint64_t base = start_raw.load(std::memory_order_relaxed);
  r.wall_ns = end_ns > base ? end_ns - base : 0;
  r.barrier_fire_ns.assign(lp.barriers.size(), 0);
  r.pe_finish_ns.assign(lp.num_procs, 0);
  if (opts.timeline) {
    for (std::size_t b = 0; b < lp.barriers.size(); ++b) {
      // mo: same post-run read, ordered by team_run.
      const std::uint64_t f = fire[b].load(std::memory_order_relaxed);
      r.barrier_fire_ns[b] = f > base ? f - base : 0;
    }
    for (std::uint32_t p = 0; p < lp.num_procs; ++p)
      r.pe_finish_ns[p] = finish_raw[p] > base ? finish_raw[p] - base : 0;
  }
  return r;
}

}  // namespace bm::exec
