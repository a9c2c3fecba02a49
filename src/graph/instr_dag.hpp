// Instruction DAG (§4.1): tuples as nodes, precedence constraints as edges,
// plus single entry/exit dummy nodes of zero execution time. Carries the
// scheduler's labeling data: min/max heights, ASAP finish ranges, and the
// critical-path bounds.
//
// Edges are:
//  - dataflow: producer tuple → consumer tuple (one per distinct operand),
//  - memory flow: Store v → later Load v,
//  - anti: Load v → next Store v,
//  - output: Store v → next Store v.
// On generator output (post-optimization) only dataflow and anti edges occur.
//
// These rules live here only: the serve fingerprint (serve/fingerprint.hpp)
// reads its typed edges from a built dag rather than re-deriving them.
//
// Data layout: the dag is built as flat CSR columns directly from the tuple
// stream — one chronological edge list, two stable counting sorts, and fused
// min/max labeling sweeps — with no intermediate per-node adjacency ever
// materialized. Offsets and node ids are 32-bit (build() rejects programs
// whose node or edge totals would not fit). A mutable Digraph view exists
// only behind the lazily built graph() accessor for diagnostic consumers.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "ir/program.hpp"

namespace bm {

class InstrDag {
 public:
  /// Builds the DAG for an optimized basic block.
  static InstrDag build(const Program& prog, const TimingModel& tm);

  /// Node-keyed adjacency view, materialized on first use: only diagnostic
  /// consumers (dot rendering, tests) need it — the scheduler and the VLIW
  /// packer read the CSR spans below.
  const Digraph& graph() const;

  NodeId entry() const { return entry_; }
  NodeId exit() const { return exit_; }

  /// Number of instruction (non-dummy) nodes; their node ids equal their
  /// dense tuple ids in the program.
  std::size_t num_instructions() const { return num_instr_; }
  /// All nodes including the entry/exit dummies.
  std::size_t num_nodes() const { return num_instr_ + 2; }
  bool is_dummy(NodeId n) const { return n >= num_instr_; }

  const TimeRange& time(NodeId n) const { return time_.at(n); }

  /// CSR adjacency views (per-node edge order identical to the historical
  /// Digraph construction: successors and predecessors both list edges in
  /// insertion order).
  std::span<const NodeId> preds(NodeId n) const {
    const std::size_t b = pred_off_[n];
    return {pred_dat_.data() + b, pred_off_[n + 1] - b};
  }
  std::span<const NodeId> succs(NodeId n) const {
    const std::size_t b = succ_off_[n];
    return {succ_dat_.data() + b, succ_off_[n + 1] - b};
  }
  /// Producers of instruction `n` that are themselves instructions (the
  /// entry dummy filtered out) — the scheduler's per-node dependence scan.
  std::span<const NodeId> instr_preds(NodeId n) const {
    const std::size_t b = iprd_off_[n];
    return {iprd_dat_.data() + b, iprd_off_[n + 1] - b};
  }
  /// Full in-degree column (dummies included), one entry per node.
  std::uint32_t indegree(NodeId n) const { return indeg_[n]; }

  /// Heights (§4.1): length of the longest path from node n to the exit,
  /// summing node times including n's own.
  Time h_min(NodeId n) const { return h_min_.at(n); }
  Time h_max(NodeId n) const { return h_max_.at(n); }

  /// ASAP finish-time range on unbounded processors — the two rightmost
  /// columns of Fig. 1.
  const TimeRange& asap_finish(NodeId n) const { return asap_.at(n); }
  std::vector<TimeRange> asap_instruction_columns() const;

  /// Critical-path bounds t_cr: longest entry→exit path under min and max
  /// times respectively — a lower bound on any schedule's completion.
  const TimeRange& critical_path() const { return critical_; }

  /// Producer/consumer pairs between instruction nodes — the paper's "Total
  /// Implied Synchronizations" is sync_edges().size().
  const std::vector<std::pair<NodeId, NodeId>>& sync_edges() const {
    return sync_edges_;
  }
  std::size_t implied_syncs() const { return sync_edges_.size(); }

 private:
  std::size_t num_instr_ = 0;
  NodeId entry_ = kInvalidNode;
  NodeId exit_ = kInvalidNode;
  std::vector<TimeRange> time_;
  std::vector<Time> h_min_, h_max_;
  std::vector<TimeRange> asap_;
  TimeRange critical_{0, 0};
  std::vector<std::pair<NodeId, NodeId>> sync_edges_;

  // Columnar core (CSR edges + indegree), frozen after build().
  std::vector<std::uint32_t> pred_off_, succ_off_, iprd_off_;
  std::vector<NodeId> pred_dat_, succ_dat_, iprd_dat_;
  std::vector<std::uint32_t> indeg_;

  mutable std::unique_ptr<Digraph> lazy_g_;
};

}  // namespace bm
