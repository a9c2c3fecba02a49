// Wire protocol for bmserve: length-prefixed frames carrying a line-
// oriented text payload (human-debuggable with xxd, trivially parsed).
//
// Framing: a 4-byte little-endian payload length, then the payload. The
// length is capped (kMaxFrameBytes) so a corrupt or hostile peer cannot
// make the server allocate unboundedly.
//
// Request payload:
//   req v1
//   <key> <value>          # one header per line, order free
//   <blank line>
//   <body: .bm statement source for verb=schedule; empty otherwise>
//
// Keys: id, verb (ping|synth|schedule|stats), procs, machine (sbm|dbm),
// insertion (conservative|optimal), ordering (maxmin|minmax), assignment
// (list|rr|lookahead), lookahead-window, latency, final-barrier, repair,
// seed, index, statements, variables, constants, const-prob, const-max,
// verify (0|1), no-cache (0|1).
//
// Response payload mirrors the shape: "resp v1", headers (id, status
// (ok|rejected|cancelled|error), cache (hit|miss|bypass), fingerprint,
// schedule-stats fields, error), blank line, body (schedule text for ok
// scheduling responses; stats text for verb=stats).
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>

#include "codegen/generator.hpp"
#include "sched/policies.hpp"
#include "sched/scheduler.hpp"

namespace bm::serve {

inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

enum class Verb { kPing, kSynth, kSchedule, kStats };

struct Request {
  std::uint64_t id = 0;
  Verb verb = Verb::kPing;

  SchedulerConfig sched;
  GeneratorConfig gen;            ///< verb=synth
  std::uint64_t base_seed = 1990; ///< verb=synth: stream identity...
  std::size_t index = 0;          ///< ...benchmark_rng(base_seed, index)
  std::string source;             ///< verb=schedule: .bm statement block
  std::uint64_t seed = 1;         ///< verb=schedule: scheduler tie-break seed

  bool verify = false;
  bool no_cache = false;
};

enum class Status { kOk, kRejected, kCancelled, kError };
enum class CacheOutcome { kMiss, kHit, kBypass };

struct Response {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  CacheOutcome cache = CacheOutcome::kBypass;
  std::string fingerprint;  ///< 16-digit hex; empty for ping/stats
  std::string error;        ///< status=error/rejected: diagnostic
  ScheduleStats stats;      ///< scheduling verbs, status=ok
  std::uint64_t verify_errors = 0;
  std::string body;         ///< schedule text / stats text / pong
};

/// Thread-safe strerror: the serving stack formats errno from concurrent
/// connection/worker threads, where std::strerror's shared buffer is a
/// race (and a concurrency-mt-unsafe tidy finding).
std::string errno_string(int err);

/// The text a client is told when its request failed: a bm::Error's
/// message() (no build-tree source location), any other exception's what().
std::string client_error_text(const std::exception& e);

// -- text payload codec ----------------------------------------------------

std::string encode_request(const Request& req);
/// Throws bm::Error on malformed payloads (bad verb, non-numeric field...).
Request decode_request(const std::string& payload);

std::string encode_response(const Response& resp);
Response decode_response(const std::string& payload);

// -- frame I/O over a file descriptor --------------------------------------

/// Writes one length-prefixed frame; retries short writes. Returns false on
/// EPIPE/connection loss, throws bm::Error on other I/O errors.
bool write_frame(int fd, const std::string& payload);

/// Reads one frame. Empty optional = clean EOF at a frame boundary; throws
/// bm::Error on truncation, oversized frames, or I/O errors.
std::optional<std::string> read_frame(int fd);

}  // namespace bm::serve
