// google-benchmark microbenchmarks for the serving core: cold scheduling
// latency (full synthesize→schedule pipeline, cache bypassed), cache-hit
// latency by request-identity alias (lookup + id rewrite) and by canonical
// fingerprint (compile + fingerprint + byte-verified lookup + id rewrite),
// and the canonical-fingerprint hash itself. items_per_second on the serve
// benchmarks is the single-worker QPS figure quoted in docs/SERVING.md. Not
// a paper figure — engineering instrumentation; BENCH_serve.json is the
// gated baseline.
#include <cstddef>
#include <string>
#include <utility>

#include <benchmark/benchmark.h>

#include "codegen/statement.hpp"
#include "codegen/synthesize.hpp"
#include "serve/core.hpp"
#include "serve/fingerprint.hpp"
#include "support/rng.hpp"

namespace {

using namespace bm;
using namespace bm::serve;

Request synth_request(std::size_t index, std::size_t statements) {
  Request req;
  req.verb = Verb::kSynth;
  req.index = index;
  req.gen.num_statements = static_cast<std::uint32_t>(statements);
  return req;
}

/// Full request path with the cache bypassed: synthesize, build the DAG,
/// list-schedule, insert barriers — the cold-miss cost per request.
void BM_ServeScheduleCold(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  Request req = synth_request(0, static_cast<std::size_t>(state.range(0)));
  req.no_cache = true;
  for (auto _ : state) {
    const Response resp = core.handle(req);
    if (resp.status != Status::kOk) state.SkipWithError(resp.error.c_str());
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeScheduleCold)->Arg(60)->Arg(120);

/// Steady-state hit path for a repeated request: the request-identity
/// alias lookup and the id rewrite back into request numbering. The
/// latency a warm server answers repeat requests with.
void BM_ServeCacheHit(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  const Request req =
      synth_request(0, static_cast<std::size_t>(state.range(0)));
  const Response primed = core.handle(req);  // insert the entry
  if (primed.status != Status::kOk) state.SkipWithError(primed.error.c_str());
  for (auto _ : state) {
    const Response resp = core.handle(req);
    if (resp.cache != CacheOutcome::kHit)
      state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCacheHit)->Arg(60)->Arg(120);

/// `stmts` with adjacent independent statements swapped pairwise: the same
/// dataflow DAG under a different tuple numbering.
StatementList renumbered(StatementList stmts) {
  auto reads = [](const Assign& s, VarId v) {
    return (s.a.is_var() && s.a.var == v) || (s.b.is_var() && s.b.var == v);
  };
  for (std::size_t i = 0; i + 1 < stmts.size(); i += 2) {
    const Assign& x = stmts[i];
    const Assign& y = stmts[i + 1];
    if (x.lhs != y.lhs && !reads(y, x.lhs) && !reads(x, y.lhs))
      std::swap(stmts[i], stmts[i + 1]);
  }
  return stmts;
}

std::string render(const StatementList& stmts) {
  std::string src;
  for (const Assign& s : stmts) src += statement_to_string(s) + "\n";
  return src;
}

/// Hit path for a request the alias index has never seen: a renumbered
/// rendering of a cached program, made a new request identity every
/// iteration by a trailing comment. Compiles, builds the dag, canonicalizes,
/// byte-verifies against the entry and rewrites into the new numbering. The
/// cache byte budget is small so the per-iteration aliases stop accruing
/// early on.
void BM_ServeCacheHitRenumbered(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  cfg.cache_bytes = 1u << 20;
  ServeCore core(cfg);
  GeneratorConfig gen;
  gen.num_statements = static_cast<std::uint32_t>(state.range(0));
  Rng rng = benchmark_rng(1990, 0);
  const StatementList stmts = synthesize_benchmark(gen, rng).statements;
  Request req;
  req.verb = Verb::kSchedule;
  req.source = render(stmts);
  const Response primed = core.handle(req);  // insert the entry
  if (primed.status != Status::kOk) state.SkipWithError(primed.error.c_str());
  const std::string source = render(renumbered(stmts));
  std::uint64_t n = 0;
  for (auto _ : state) {
    req.source = source + "# " + std::to_string(n++) + "\n";
    const Response resp = core.handle(req);
    if (resp.cache != CacheOutcome::kHit)
      state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCacheHitRenumbered)->Arg(120);

/// Hit path with the full telemetry surface on: latency histograms (window
/// included) plus a JSONL access-log line per request. The delta against
/// BM_ServeCacheHit is the telemetry tax on the fastest path; a
/// `-DBM_OBS=OFF` build of this same benchmark isolates the histogram
/// share (the access log stays live in that build).
void BM_ServeCacheHitAccessLog(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  cfg.telemetry.access_log_path = "/dev/null";  // append cost, no disk growth
  ServeCore core(cfg);
  const Request req =
      synth_request(0, static_cast<std::size_t>(state.range(0)));
  const Response primed = core.handle(req);  // insert the entry
  if (primed.status != Status::kOk) state.SkipWithError(primed.error.c_str());
  for (auto _ : state) {
    const Response resp = core.handle(req);
    if (resp.cache != CacheOutcome::kHit)
      state.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeCacheHitAccessLog)->Arg(120);

/// Building one `stats v1` JSON snapshot (histogram merges + quantile
/// extraction + serialization) — the per-poll cost of a dashboard client.
void BM_ServeStatsSnapshot(benchmark::State& state) {
  CoreConfig cfg;
  cfg.workers = 1;
  ServeCore core(cfg);
  for (std::size_t i = 0; i < 64; ++i)  // populate the histograms
    core.handle(synth_request(i % 8, 60));
  for (auto _ : state) {
    const std::string snap = core.stats_json();
    benchmark::DoNotOptimize(snap.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeStatsSnapshot);

/// Canonicalization alone (typed edges from the dag, WL refinement,
/// canonical bytes), with the dag built outside the timed loop:
/// BM_BuildInstrDag times that build.
void BM_FingerprintCanonicalize(benchmark::State& state) {
  GeneratorConfig gen;
  gen.num_statements = static_cast<std::uint32_t>(state.range(0));
  Rng rng = benchmark_rng(1990, 0);
  const Program prog = synthesize_benchmark(gen, rng).program;
  const InstrDag dag = InstrDag::build(prog, TimingModel::table1());
  for (auto _ : state) {
    const CanonicalProgram canon = canonicalize_program(prog, dag);
    benchmark::DoNotOptimize(canon.fingerprint);
    benchmark::DoNotOptimize(canon.bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FingerprintCanonicalize)->Arg(60)->Arg(120);

}  // namespace
// main() is bench/bench_main.cpp (stamps bm_build_type for the bench gate).
