#include "graph/instr_dag.hpp"

#include <numeric>

#include "graph/paths.hpp"
#include "support/scratch.hpp"

namespace bm {

namespace {

/// True if `t` has a value operand referencing tuple `u` — exactly the
/// condition under which a memory-dependence edge u→t duplicates a dataflow
/// edge already emitted for t's operands (loads have no value operands, so
/// only store targets can ever coincide).
bool has_tuple_operand(const Tuple& t, NodeId u) {
  for (int k = 0; k < t.operand_count(); ++k)
    if (t.operand(k).is_tuple() && t.operand(k).tuple_id() == u) return true;
  return false;
}

/// Exclusive prefix sums of `counts` plus a final total entry. Callers
/// have checked that the total fits in 32 bits.
void prefix_offsets(std::span<const std::uint32_t> counts,
                    std::vector<std::uint32_t>& off) {
  off.resize(counts.size() + 1);
  off[0] = 0;
  std::partial_sum(counts.begin(), counts.end(), off.begin() + 1);
}

}  // namespace

InstrDag InstrDag::build(const Program& prog, const TimingModel& tm) {
  prog.validate();
  InstrDag dag;
  const std::size_t n = prog.size();
  BM_REQUIRE(n + 2 < kInvalidNode, "program too large for 32-bit node ids");
  dag.num_instr_ = n;
  dag.entry_ = static_cast<NodeId>(n);
  dag.exit_ = static_cast<NodeId>(n + 1);
  const std::size_t total = n + 2;

  dag.time_.resize(total, TimeRange{0, 0});
  for (std::size_t i = 0; i < n; ++i) dag.time_[i] = tm.range(prog[i].op);

  // --- edge emission ------------------------------------------------------
  // One chronological, duplicate-free edge list, in the exact order the
  // former per-node Digraph saw add_edge calls: downstream output (sync-edge
  // order, per-node adjacency order) depends on it. Duplicates can only
  // arise (a) from a binary op whose two operands name the same producer and
  // (b) from a memory-dependence edge whose target already consumes the
  // source as an operand — both are caught by local operand checks, so no
  // membership structure is needed.
  ScratchVec<std::uint64_t> edges_s;
  ScratchVec<std::uint32_t> outdeg_s, indeg_s;
  auto& edges = *edges_s;
  auto& outdeg = *outdeg_s;
  auto& indeg = *indeg_s;
  edges.clear();
  outdeg.assign(total, 0);
  indeg.assign(total, 0);
  auto emit = [&](NodeId from, NodeId to) {
    edges.push_back((static_cast<std::uint64_t>(from) << 32) | to);
    ++outdeg[from];
    ++indeg[to];
  };

  // Dataflow edges.
  for (std::size_t i = 0; i < n; ++i) {
    const Tuple& t = prog[i];
    for (int k = 0; k < t.operand_count(); ++k) {
      if (!t.operand(k).is_tuple()) continue;
      if (k == 1 && t.operand(0) == t.operand(1)) continue;  // same producer
      emit(t.operand(k).tuple_id(), static_cast<NodeId>(i));
    }
  }

  // Memory dependences per variable: flow (store→load), anti (load→store),
  // output (store→store).
  ScratchVec<NodeId> last_store_s;
  auto& last_store = *last_store_s;
  last_store.assign(prog.num_vars(), kInvalidNode);
  std::vector<std::vector<NodeId>> loads_since(prog.num_vars());
  for (std::size_t i = 0; i < n; ++i) {
    const Tuple& t = prog[i];
    const auto node = static_cast<NodeId>(i);
    if (t.is_load()) {
      if (last_store[t.var] != kInvalidNode) emit(last_store[t.var], node);
      loads_since[t.var].push_back(node);
    } else if (t.is_store()) {
      for (NodeId l : loads_since[t.var])
        if (!has_tuple_operand(t, l)) emit(l, node);
      if (last_store[t.var] != kInvalidNode &&
          !has_tuple_operand(t, last_store[t.var]))
        emit(last_store[t.var], node);
      last_store[t.var] = node;
      loads_since[t.var].clear();
    }
  }

  // Entry/exit dummies. Degrees are read before the corresponding emit, so
  // the decisions see only the dependence edges above.
  for (NodeId i = 0; i < n; ++i) {
    if (indeg[i] == 0) emit(dag.entry_, i);
    if (outdeg[i] == 0) emit(i, dag.exit_);
  }
  if (n == 0) emit(dag.entry_, dag.exit_);

  // --- CSR columns --------------------------------------------------------
  // Two stable counting sorts of the chronological list: grouping by source
  // preserves per-source emission order (successor lists), grouping by
  // target preserves per-target emission order (predecessor lists) — both
  // match the historical push_back order exactly.
  BM_REQUIRE(edges.size() <= 0xFFFFFFFFull,
             "program too large for 32-bit edge offsets");
  prefix_offsets({outdeg.data(), total}, dag.succ_off_);
  prefix_offsets({indeg.data(), total}, dag.pred_off_);
  dag.succ_dat_.resize(edges.size());
  dag.pred_dat_.resize(edges.size());
  {
    ScratchVec<std::uint32_t> cur_s;
    auto& cur = *cur_s;
    cur.assign(dag.succ_off_.begin(), dag.succ_off_.end() - 1);
    for (const std::uint64_t key : edges)
      dag.succ_dat_[cur[key >> 32]++] = static_cast<NodeId>(key);
    cur.assign(dag.pred_off_.begin(), dag.pred_off_.end() - 1);
    for (const std::uint64_t key : edges)
      dag.pred_dat_[cur[static_cast<NodeId>(key)]++] =
          static_cast<NodeId>(key >> 32);
  }
  dag.indeg_.assign(indeg.begin(), indeg.end());

  // Implied synchronizations: instruction→instruction edges, grouped by
  // producer (the exit edge filtered per source).
  dag.sync_edges_.reserve(edges.size());
  for (NodeId from = 0; from < n; ++from)
    for (NodeId to : dag.succs(from))
      if (to < n) dag.sync_edges_.emplace_back(from, to);

  // Instruction-producer CSR: per instruction node, its predecessors with
  // the entry dummy filtered out (dummies only ever precede instructions
  // via the entry node).
  {
    ScratchVec<std::uint32_t> icnt_s;
    auto& icnt = *icnt_s;
    icnt.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      std::uint32_t c = 0;
      for (NodeId p : dag.preds(v))
        if (!dag.is_dummy(p)) ++c;
      icnt[v] = c;
    }
    prefix_offsets({icnt.data(), n}, dag.iprd_off_);
    dag.iprd_dat_.resize(dag.iprd_off_[n]);
    std::size_t k = 0;
    for (NodeId v = 0; v < n; ++v)
      for (NodeId p : dag.preds(v))
        if (!dag.is_dummy(p)) dag.iprd_dat_[k++] = p;
  }

  // --- labeling sweeps ----------------------------------------------------
  // The id sequence [entry, 0..n-1, exit] is itself a topological order:
  // every dependence edge points id-upward (operands and memory sources
  // reference earlier tuples), the entry dummy only emits and the exit dummy
  // only absorbs. Both label pairs are computed in fused min/max sweeps over
  // that order — straight-line passes over the CSR with no sort, no
  // per-edge callback, and sequential column access.

  // Heights: h(i) = t(i) + max over successors of h(s); h(exit) = 0.
  dag.h_min_.assign(total, kUnreachable);
  dag.h_max_.assign(total, kUnreachable);
  dag.h_min_[dag.exit_] = 0;
  dag.h_max_[dag.exit_] = 0;
  auto relax_heights = [&](NodeId v) {
    const Time wmin = dag.time_[v].min, wmax = dag.time_[v].max;
    for (NodeId s : dag.succs(v)) {
      if (dag.h_min_[s] != kUnreachable)
        dag.h_min_[v] = std::max(dag.h_min_[v], wmin + dag.h_min_[s]);
      if (dag.h_max_[s] != kUnreachable)
        dag.h_max_[v] = std::max(dag.h_max_[v], wmax + dag.h_max_[s]);
    }
  };
  for (NodeId v = n; v-- > 0;) relax_heights(v);
  relax_heights(dag.entry_);

  // ASAP finish: f(i) = t(i) + max over predecessors of f(p); f(entry) = 0.
  ScratchVec<Time> fmin_s, fmax_s;
  auto& fmin = *fmin_s;
  auto& fmax = *fmax_s;
  fmin.assign(total, kUnreachable);
  fmax.assign(total, kUnreachable);
  fmin[dag.entry_] = 0;
  fmax[dag.entry_] = 0;
  auto relax_asap = [&](NodeId v) {
    if (fmin[v] == kUnreachable) return;
    for (NodeId s : dag.succs(v)) {
      fmin[s] = std::max(fmin[s], fmin[v] + dag.time_[s].min);
      fmax[s] = std::max(fmax[s], fmax[v] + dag.time_[s].max);
    }
  };
  relax_asap(dag.entry_);
  for (NodeId v = 0; v < n; ++v) relax_asap(v);
  dag.asap_.resize(total, TimeRange{0, 0});
  for (NodeId i = 0; i < total; ++i) {
    BM_ASSERT_INTERNAL(fmin[i] != kUnreachable, "node unreachable from entry");
    dag.asap_[i] = TimeRange{fmin[i], fmax[i]};
  }
  dag.critical_ = dag.asap_[dag.exit_];
  return dag;
}

const Digraph& InstrDag::graph() const {
  if (!lazy_g_) {
    auto g = std::make_unique<Digraph>(num_nodes());
    for (NodeId v = 0; v < num_nodes(); ++v)
      for (NodeId s : succs(v)) g->add_edge(v, s);
    lazy_g_ = std::move(g);
  }
  return *lazy_g_;
}

std::vector<TimeRange> InstrDag::asap_instruction_columns() const {
  return {asap_.begin(), asap_.begin() + static_cast<std::ptrdiff_t>(num_instr_)};
}

}  // namespace bm
