#include "barrier/dot.hpp"

#include <sstream>

#include "support/assert.hpp"

namespace bm {

std::string instr_dag_to_dot(const InstrDag& dag, const Program& prog) {
  BM_REQUIRE(prog.size() == dag.num_instructions(),
             "program does not match the DAG");
  std::ostringstream os;
  os << "digraph instr_dag {\n  rankdir=TB;\n  node [shape=box];\n";
  for (NodeId n = 0; n < dag.num_instructions(); ++n) {
    os << "  n" << n << " [label=\"" << prog[n].uid << ": "
       << tuple_to_string(prog[n]) << "\\n" << dag.time(n).to_string()
       << "\"];\n";
  }
  os << "  entry [shape=point];\n  exit [shape=point];\n";
  auto name = [&](NodeId n) -> std::string {
    if (n == dag.entry()) return "entry";
    if (n == dag.exit()) return "exit";
    std::string s = "n";
    s += std::to_string(n);
    return s;
  };
  for (NodeId n = 0; n < dag.num_nodes(); ++n)
    for (NodeId s : dag.succs(n))
      os << "  " << name(n) << " -> " << name(s) << ";\n";
  os << "}\n";
  return os.str();
}

std::string barrier_dag_to_dot(const BarrierDag& dag) {
  std::ostringstream os;
  os << "digraph barrier_dag {\n  rankdir=TB;\n  node [shape=ellipse];\n";
  for (BarrierId b : dag.barrier_ids()) {
    os << "  b" << b << " [label=\"B" << b << "\\nfires "
       << dag.fire_range(b).to_string() << "\"";
    if (b == dag.initial()) os << ", style=bold";
    os << "];\n";
  }
  for (BarrierId u : dag.barrier_ids())
    for (BarrierId v : dag.barrier_ids())
      if (u != v && dag.has_edge(u, v))
        os << "  b" << u << " -> b" << v << " [label=\""
           << dag.edge_range(u, v).to_string() << "\"];\n";
  os << "}\n";
  return os.str();
}

}  // namespace bm
