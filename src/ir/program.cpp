#include "ir/program.hpp"

#include <iomanip>
#include <sstream>

#include "support/assert.hpp"

namespace bm {

void Program::set_var_name(VarId v, std::string name) {
  BM_REQUIRE(v < num_vars_, "variable id out of range");
  BM_REQUIRE(!name.empty(), "variable name must be non-empty");
  if (var_names_.size() < num_vars_) var_names_.resize(num_vars_);
  var_names_[v] = std::move(name);
}

std::string Program::var_display_name(VarId v) const {
  BM_REQUIRE(v < num_vars_, "variable id out of range");
  if (v < var_names_.size() && !var_names_[v].empty()) return var_names_[v];
  return var_name(v);
}

TupleId Program::append(Tuple t) {
  const auto id = static_cast<TupleId>(tuples_.size());
  for (int i = 0; i < t.operand_count(); ++i) {
    const Operand& o = t.operand(i);
    BM_REQUIRE(!o.is_tuple() || o.tuple_id() < id,
               "operand must reference an earlier tuple");
  }
  if (t.is_load() || t.is_store())
    BM_REQUIRE(t.var < num_vars_, "variable id out of range");
  tuples_.push_back(t);
  return id;
}

void Program::replace_all(std::vector<Tuple> tuples) {
  tuples_ = std::move(tuples);
}

void Program::validate() const {
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    const Tuple& t = tuples_[i];
    for (int k = 0; k < t.operand_count(); ++k) {
      const Operand& o = t.operand(k);
      if (o.is_tuple())
        BM_REQUIRE(o.tuple_id() < i, "forward operand reference");
    }
    if (t.is_load() || t.is_store())
      BM_REQUIRE(t.var < num_vars_, "variable id out of range");
  }
}

TimeRange Program::serial_time(const TimingModel& tm) const {
  TimeRange total{0, 0};
  for (const Tuple& t : tuples_) total += tm.range(t.op);
  return total;
}

std::string Program::to_string(const std::vector<TimeRange>& asap) const {
  BM_REQUIRE(asap.empty() || asap.size() == tuples_.size(),
             "asap column size mismatch");
  std::ostringstream os;
  auto operand_str = [&](const Operand& o) {
    // Tuple references render by uid so they match the left column (the
    // paper's tuple numbers survive optimization with gaps).
    if (!o.is_const()) return std::to_string(tuples_[o.tuple_id()].uid);
    std::string s = "#";
    s += std::to_string(o.const_value());
    return s;
  };
  auto render = [&](const Tuple& t) {
    std::ostringstream ts;
    ts << opcode_name(t.op) << ' ';
    if (t.is_load())
      ts << var_display_name(t.var);
    else if (t.is_store())
      ts << var_display_name(t.var) << ',' << operand_str(t.lhs);
    else
      ts << operand_str(t.lhs) << ',' << operand_str(t.rhs);
    return ts.str();
  };
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    os << std::setw(4) << tuples_[i].uid << "  " << std::left << std::setw(16)
       << render(tuples_[i]) << std::right;
    if (!asap.empty())
      os << std::setw(5) << asap[i].min << std::setw(5) << asap[i].max;
    os << '\n';
  }
  return os.str();
}

}  // namespace bm
