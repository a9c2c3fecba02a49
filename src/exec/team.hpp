// The persistent worker team behind both native runtimes (exec/runtime.hpp
// and exec/jit.hpp): the STS startup / run / wait shape, so that a run's
// fixed cost is a handful of futex wakes rather than one clone() and one
// join() per PE.
//
// Every calling thread owns its own team (thread_local), so concurrent
// callers never share a worker and no lock guards the dispatch. A team
// grows to the largest worker count its owner has asked for and is joined
// when the owner thread exits.
//
// Dispatch: team_run publishes the job, tags workers 0..n-1 with the next
// generation, then bumps the team's generation word with release ordering
// and calls notify_all. A worker acquire-waits on that word; when it holds
// the new tag it runs fn(id) and decrements the run's pending count with
// acq_rel, and the owner acquire-waits for that count to reach zero. That
// acquire is what join() used to provide: everything a worker wrote during
// the run happens-before team_run returns. A worker beyond n wakes, sees
// an older tag and waits again without reading any job state. Idle
// workers block in std::atomic::wait (a futex), so a parked team uses no
// CPU. tests/interleave_test.cpp model-checks this handoff.
//
// Spreading: a worker that starts an unpinned run on a CPU the owner or
// another worker of the run last claimed moves itself to an unclaimed CPU
// of the owner's start mask (one-CPU affinity, then the start mask back),
// so teammates do not keep sharing a CPU from run to run. Only while the
// owner and every worker fit on a CPU each.
//
// An exception escaping fn terminates the process, as it did when each PE
// was a std::thread of its own.
#pragma once

#include <cstdint>
#include <functional>

namespace bm::exec {

/// Runs fn(0), ..., fn(n - 1) concurrently, each on its own worker of the
/// calling thread's team, and returns once every call has returned.
/// `pin`: worker k pins itself to CPU k (mod configured CPUs) for this run;
/// on a run without `pin`, a worker that pinned itself earlier first
/// restores the affinity mask its owner had when the team started, and
/// may then move to another CPU of that mask (spreading, above) without
/// changing its mask.
void team_run(std::uint32_t n, bool pin,
              const std::function<void(std::uint32_t)>& fn);

}  // namespace bm::exec
