// Compile-and-load backend: emit_cpp() output built with the system
// compiler into a shared object, loaded with dlopen, and run with one
// worker of the caller's persistent team (exec/team.hpp) per PE. This is the "run the schedule as real machine code" leg —
// the interpreter in exec/runtime.hpp is the portable reference, the JIT
// leg checks that the *emitted* code computes the same state.
//
// Scope: blocking mode only (an emitted PE function runs straight through
// its stream; it cannot be parked mid-barrier the way the interpreter's
// cooperative carriers park a PE), and unavailable under sanitizers
// (uninstrumented code in a TSan/ASan process would poison the analysis).
// Callers must check JitModule::available() and fall back to the
// interpreter — the differential tests do exactly that, so the TSan leg
// still covers the barriers and the runtime.
#pragma once

#include <memory>
#include <string>

#include "exec/lower.hpp"
#include "exec/runtime.hpp"

namespace bm::exec {

struct JitOptions {
  /// C++ compiler to invoke; empty = $CXX, then "c++".
  std::string compiler;
  /// Directory for generated .cpp/.so; empty = fresh mkdtemp under the
  /// system temp dir, removed on destruction unless `keep`.
  std::string work_dir;
  bool keep = false;
};

/// One compiled schedule. Construction emits, compiles and dlopens;
/// throws bm::Error on any failure (missing compiler, compile error,
/// symbol/shape mismatch with the lowering).
class JitModule {
 public:
  explicit JitModule(const LoweredProgram& lp, const JitOptions& opts = {});
  ~JitModule();
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;

  /// Runs the compiled PE functions, one team worker per PE (blocking
  /// barrier waits). `opts.threads` is ignored; barrier kind, spin_iters,
  /// pin, timeline and initial_memory are honored.
  ExecResult run(const ExecOptions& opts = {}) const;

  /// Where the generated .cpp and .so live (valid until destruction).
  const std::string& artifact_dir() const;

  /// False when no system compiler answers, when dlopen is unsupported,
  /// when built under ASan/TSan, or when BM_EXEC_NO_JIT is set in the
  /// environment.
  static bool available();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bm::exec
