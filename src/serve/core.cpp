#include "serve/core.hpp"

#include <cstring>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "sched/serialize.hpp"
#include "serve/fingerprint.hpp"
#include "support/assert.hpp"

namespace bm::serve {

namespace {

// A new GeneratorConfig field must join gen_digest (serve/fingerprint.cpp)
// and request_identity.
static_assert(sizeof(GeneratorConfig) == 32);

template <typename T>
void append_raw(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

/// Exact identity of a scheduling request for the cache's alias index:
/// the verb, the config digest, and every request field the program and
/// its rng stream are derived from. Fixed-width fields come first and the
/// source (the only variable-length field) last, so two identities are
/// equal bytes iff the requests agree on all of them.
std::string request_identity(const Request& req, std::uint64_t digest) {
  std::string id;
  id.reserve(64 + req.source.size());
  append_raw(id, static_cast<std::uint8_t>(req.verb));
  append_raw(id, digest);
  if (req.verb == Verb::kSynth) {
    append_raw(id, req.base_seed);
    append_raw(id, static_cast<std::uint64_t>(req.index));
    append_raw(id, req.gen.num_statements);
    append_raw(id, req.gen.num_variables);
    append_raw(id, req.gen.num_constants);
    append_raw(id, req.gen.const_operand_prob);
    append_raw(id, req.gen.const_max);
  } else {
    append_raw(id, req.seed);
    id += req.source;
  }
  return id;
}

}  // namespace

/// Checks a session out of the shared idle pool (or creates one: the pool
/// grows to the worker count and no further, since leases are per-request).
class ServeCore::SessionLease {
 public:
  explicit SessionLease(ServeCore& core) : core_(core) {
    OrderedLock lock(core_.mu_);
    if (!core_.idle_sessions_.empty()) {
      session_ = std::move(core_.idle_sessions_.back());
      core_.idle_sessions_.pop_back();
      return;
    }
    lock.unlock();
    session_ = std::make_unique<SchedulerSession>(
        SchedulerSession::ArenaMode::kOwned);
  }
  ~SessionLease() {
    OrderedLock lock(core_.mu_);
    core_.idle_sessions_.push_back(std::move(session_));
  }

  SchedulerSession* operator->() { return session_.get(); }
  SchedulerSession& operator*() { return *session_; }

 private:
  ServeCore& core_;
  std::unique_ptr<SchedulerSession> session_;
};

/// One admitted request. Guarantees the exactly-once answer: workers call
/// answer() with the computed response; if the closure is destroyed unrun
/// (token cancelled at dequeue, a drain racing a cancel, ...) the
/// destructor answers status=cancelled. Shared between the queue closure
/// and nothing else, so the destructor runs where the closure dies.
struct ServeCore::PendingReq {
  ServeCore* core;
  Request req;
  Callback cb;
  RequestTiming timing;
  std::atomic<bool> answered{false};

  PendingReq(ServeCore* c, Request r, Callback f, RequestTiming t)
      : core(c), req(std::move(r)), cb(std::move(f)), timing(std::move(t)) {}

  void answer(const Response& resp) {
    if (answered.exchange(true)) return;
    ServeTelemetry& tel = core->telemetry_;
    {
      PhaseScope write_back(tel, timing, Phase::kWriteBack);
      try {
        cb(resp);
      } catch (...) {
        // Transport failures are the transport's problem; the request is
        // accounted as answered either way.
      }
    }
    timing.status = resp.status;
    timing.cache = resp.cache;
    timing.fingerprint = resp.fingerprint;
    timing.total_us = tel.now_us() - timing.admit_us;
    core->note_outcome(resp);
    tel.record(timing);
  }

  ~PendingReq() {
    if (answered.load()) return;
    Response resp;
    resp.id = req.id;
    resp.status = Status::kCancelled;
    resp.error = "cancelled before execution";
    answer(resp);
  }
};

ServeCore::ServeCore(CoreConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cache_entries, cfg_.cache_bytes),
      telemetry_(cfg_.telemetry),
      pool_(std::make_unique<ThreadPool>(cfg_.workers)) {}

ServeCore::~ServeCore() {
  drain();
  // pool_ (last member) is destroyed first; its drain contract answers any
  // stragglers through their PendingReq destructors while `this` is whole.
}

CancelToken ServeCore::submit(Request req, Callback cb) {
  CancelToken token;
  RequestTiming timing;
  timing.rid = telemetry_.next_rid();
  timing.client_id = req.id;
  timing.verb = req.verb;
  timing.admit_us = telemetry_.now_us();
  bool reject = false;
  {
    OrderedLock lock(mu_);
    ++stats_.received;
    if (draining_ || stats_.queued >= cfg_.max_queue) {
      ++stats_.rejected;
      reject = true;
    } else {
      ++stats_.queued;
    }
  }
  BM_OBS_COUNT("serve.request");
  if (reject) {
    BM_OBS_COUNT("serve.reject");
    Response resp;
    resp.id = req.id;
    resp.status = Status::kRejected;
    resp.error = draining() ? "server draining" : "queue full";
    {
      PhaseScope write_back(telemetry_, timing, Phase::kWriteBack);
      cb(resp);
    }
    timing.status = Status::kRejected;
    timing.total_us = telemetry_.now_us() - timing.admit_us;
    telemetry_.record(timing);
    return token;
  }

  auto pending = std::make_shared<PendingReq>(this, std::move(req),
                                              std::move(cb), std::move(timing));
  pool_->submit(token, [pending] {
    ServeCore& core = *pending->core;
    ServeTelemetry& tel = core.telemetry_;
    pending->timing.add_phase(Phase::kQueueWait, pending->timing.admit_us,
                              tel.now_us() - pending->timing.admit_us);
    if (core.cfg_.pre_handle) core.cfg_.pre_handle(pending->req);
    if (pending->answered.load()) return;
    tel.worker_begin();
    Response resp;
    try {
      resp = core.process(pending->req, pending->timing);
    } catch (const std::exception& e) {
      resp.id = pending->req.id;
      resp.status = Status::kError;
      resp.error = client_error_text(e);
      pending->timing.error = e.what();
    }
    pending->answer(resp);
    tel.worker_end();
  });
  return token;
}

Response ServeCore::handle(const Request& req) {
  RequestTiming timing;
  timing.rid = telemetry_.next_rid();
  timing.client_id = req.id;
  timing.verb = req.verb;
  timing.admit_us = telemetry_.now_us();
  {
    // Both counters in one critical section: a concurrent stats snapshot
    // must never see this request received but neither queued nor resolved.
    OrderedLock lock(mu_);
    ++stats_.received;
    ++stats_.queued;  // note_outcome's pairing decrement
  }
  BM_OBS_COUNT("serve.request");
  telemetry_.worker_begin();
  Response resp;
  try {
    resp = process(req, timing);
  } catch (const std::exception& e) {
    resp.id = req.id;
    resp.status = Status::kError;
    resp.error = client_error_text(e);
    timing.error = e.what();
  }
  telemetry_.worker_end();
  timing.status = resp.status;
  timing.cache = resp.cache;
  timing.fingerprint = resp.fingerprint;
  timing.total_us = telemetry_.now_us() - timing.admit_us;
  note_outcome(resp);
  telemetry_.record(timing);
  return resp;
}

void ServeCore::drain() {
  {
    OrderedLock lock(mu_);
    draining_ = true;
  }
  pool_->wait_idle();
}

bool ServeCore::draining() const {
  OrderedLock lock(mu_);
  return draining_;
}

CoreStats ServeCore::stats() const {
  CoreStats out;
  {
    OrderedLock lock(mu_);
    out = stats_;
  }
  out.cache = cache_.stats();
  return out;
}

CoreTotals ServeCore::totals() const {
  const CoreStats s = stats();
  CoreTotals t;
  t.received = s.received;
  t.completed = s.completed;
  t.rejected = s.rejected;
  t.cancelled = s.cancelled;
  t.errors = s.errors;
  t.queued = s.queued;
  t.workers = cfg_.workers;
  t.cache = s.cache;
  return t;
}

std::string ServeCore::stats_json() const {
  return telemetry_.stats_json(totals());
}

void ServeCore::note_outcome(const Response& resp) {
  OrderedLock lock(mu_);
  BM_ASSERT_INTERNAL(stats_.queued > 0, "response without admission");
  --stats_.queued;
  switch (resp.status) {
    case Status::kOk:
      ++stats_.completed;
      break;
    case Status::kCancelled:
      ++stats_.cancelled;
      break;
    case Status::kError:
      ++stats_.errors;
      break;
    case Status::kRejected:
      ++stats_.rejected;  // unreachable: rejections never admit
      break;
  }
  lock.unlock();
  switch (resp.status) {
    case Status::kOk: BM_OBS_COUNT("serve.ok"); break;
    case Status::kCancelled: BM_OBS_COUNT("serve.cancel"); break;
    case Status::kError: BM_OBS_COUNT("serve.error"); break;
    case Status::kRejected: break;
  }
}

Response ServeCore::process(const Request& req, RequestTiming& rt) {
  switch (req.verb) {
    case Verb::kPing: {
      Response resp;
      resp.id = req.id;
      resp.body = "pong";
      return resp;
    }
    case Verb::kStats: {
      Response resp;
      resp.id = req.id;
      resp.body = stats_json();
      return resp;
    }
    case Verb::kSynth:
    case Verb::kSchedule:
      return process_scheduling(req, rt);
  }
  throw Error("unhandled verb");
}

Response ServeCore::process_scheduling(const Request& req, RequestTiming& rt) {
  Response resp;
  resp.id = req.id;

  const TimingModel timing = TimingModel::table1();
  // The rng identity, hence the config digest, follows from the request
  // alone: synth requests continue the synthesis stream of
  // (base_seed, index) under their generator, source requests seed it.
  const std::uint64_t rng_key =
      req.verb == Verb::kSynth
          ? mix2(mix2(req.base_seed, req.index), gen_digest(req.gen))
          : mix2(0x5C4Ed01Eull, req.seed);
  const std::uint64_t digest = config_digest(req.sched, timing, rng_key);

  // Stage 0: a request answered before by a verified hit is answered again
  // from the alias index, without its program. Verify requests need the
  // DAG and no-cache requests stay off the cache, so both skip it.
  std::string identity;
  if (!req.no_cache && !req.verify) {
    PhaseScope ps(telemetry_, rt, Phase::kCacheLookup);
    identity = request_identity(req, digest);
    ScheduleCache::Hit hit = cache_.lookup_alias(identity);
    if (hit.found) {
      resp.cache = CacheOutcome::kHit;
      resp.fingerprint = fingerprint_hex(hit.fingerprint);
      resp.stats = hit.stats;
      resp.body = std::move(hit.schedule_text);
      return resp;
    }
  }

  SessionLease session(*this);

  // Stage 1: obtain the program and the scheduler's RNG stream. For synth
  // requests the scheduler continues the synthesis stream — the exact
  // sequence the experiment harness uses, so a synth request for
  // (base_seed, index) reproduces the harness schedule bit-for-bit.
  Program program;
  Rng rng = benchmark_rng(req.base_seed, req.index);
  {
    PhaseScope ps(telemetry_, rt, Phase::kSynthesize);
    if (req.verb == Verb::kSynth) {
      program = session->synthesize(req.gen, rng).program;
    } else {
      program = session->compile_source(req.source);
      rng = Rng(req.seed);
    }
  }
  BM_REQUIRE(!program.empty(), "program optimized to an empty block");

  // Stage 2: cache probe under the canonical fingerprint, read from the
  // request's dag — the one dag the verify and cold paths below use too. A
  // verified hit admits this request's identity to the alias index (second
  // sighting).
  CanonicalProgram canon;
  const InstrDag dag = [&] {
    PhaseScope ps(telemetry_, rt, Phase::kFingerprint);
    InstrDag built = session->build_dag(program, timing);
    canon = canonicalize_program(program, built);
    return built;
  }();
  resp.fingerprint = fingerprint_hex(canon.fingerprint);

  if (!req.no_cache) {
    ScheduleCache::Hit hit;
    {
      PhaseScope ps(telemetry_, rt, Phase::kCacheLookup);
      hit = cache_.lookup(canon.fingerprint, digest, canon.bytes,
                          canon.inv_perm, identity);
    }
    if (hit.found) {
      resp.cache = CacheOutcome::kHit;
      resp.stats = hit.stats;
      resp.body = std::move(hit.schedule_text);
      if (req.verify) {
        PhaseScope ps(telemetry_, rt, Phase::kVerify);
        const Schedule sched = schedule_from_text(dag, resp.body);
        resp.verify_errors = session->verify(dag, sched).error_count();
      }
      return resp;
    }
  }

  // Stage 3: cold path — the ordinary pipeline.
  ScheduleResult scheduled;
  {
    PhaseScope ps(telemetry_, rt, Phase::kColdSchedule);
    scheduled = session->schedule(dag, req.sched, rng);
  }
  resp.stats = scheduled.stats;
  {
    PhaseScope ps(telemetry_, rt, Phase::kSerialize);
    resp.body = schedule_to_text(*scheduled.schedule);
  }
  if (req.verify) {
    PhaseScope ps(telemetry_, rt, Phase::kVerify);
    resp.verify_errors =
        session->verify(dag, *scheduled.schedule).error_count();
  }

  if (req.no_cache) {
    resp.cache = CacheOutcome::kBypass;
  } else {
    resp.cache = CacheOutcome::kMiss;
    PhaseScope ps(telemetry_, rt, Phase::kSerialize);
    cache_.insert(canon.fingerprint, digest, canon.bytes,
                  rewrite_schedule_ids(resp.body, canon.perm),
                  scheduled.stats);
  }
  return resp;
}

std::string CoreStats::to_text() const {
  std::string t;
  t += "received " + std::to_string(received) + "\n";
  t += "completed " + std::to_string(completed) + "\n";
  t += "rejected " + std::to_string(rejected) + "\n";
  t += "cancelled " + std::to_string(cancelled) + "\n";
  t += "errors " + std::to_string(errors) + "\n";
  t += "queued " + std::to_string(queued) + "\n";
  t += "cache-hits " + std::to_string(cache.hits) + "\n";
  t += "cache-misses " + std::to_string(cache.misses) + "\n";
  t += "cache-collisions " + std::to_string(cache.collisions) + "\n";
  t += "cache-insertions " + std::to_string(cache.insertions) + "\n";
  t += "cache-evictions " + std::to_string(cache.evictions) + "\n";
  t += "cache-entries " + std::to_string(cache.entries) + "\n";
  t += "cache-bytes " + std::to_string(cache.bytes) + "\n";
  t += "cache-alias-hits " + std::to_string(cache.alias_hits) + "\n";
  t += "cache-aliases " + std::to_string(cache.aliases) + "\n";
  return t;
}

}  // namespace bm::serve
