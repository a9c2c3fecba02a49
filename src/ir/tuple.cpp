#include "ir/tuple.hpp"

#include <sstream>

#include "support/assert.hpp"

namespace bm {

TupleId Operand::tuple_id() const {
  BM_REQUIRE(is_tuple(), "operand is not a tuple reference");
  return static_cast<TupleId>(value);
}

std::int64_t Operand::const_value() const {
  BM_REQUIRE(is_const(), "operand is not a constant");
  return value;
}

Tuple Tuple::load(std::uint32_t uid, VarId var) {
  Tuple t;
  t.uid = uid;
  t.op = Opcode::kLoad;
  t.var = var;
  return t;
}

Tuple Tuple::store(std::uint32_t uid, VarId var, Operand value) {
  Tuple t;
  t.uid = uid;
  t.op = Opcode::kStore;
  t.var = var;
  t.lhs = value;
  return t;
}

Tuple Tuple::binary(std::uint32_t uid, Opcode op, Operand lhs, Operand rhs) {
  BM_REQUIRE(is_binary_op(op), "binary() requires a binary opcode");
  Tuple t;
  t.uid = uid;
  t.op = op;
  t.lhs = lhs;
  t.rhs = rhs;
  return t;
}

int Tuple::operand_count() const {
  if (is_load()) return 0;
  if (is_store()) return 1;
  return 2;
}

const Operand& Tuple::operand(int i) const {
  BM_REQUIRE(i >= 0 && i < operand_count(), "operand index out of range");
  return i == 0 ? lhs : rhs;
}

Operand& Tuple::operand(int i) {
  BM_REQUIRE(i >= 0 && i < operand_count(), "operand index out of range");
  return i == 0 ? lhs : rhs;
}

std::string var_name(VarId v) {
  if (v < 26) return std::string(1, static_cast<char>('a' + v));
  std::ostringstream os;
  os << 'v' << v;
  return os.str();
}

namespace {
std::string operand_str(const Operand& o) {
  if (!o.is_const()) return std::to_string(o.tuple_id());
  std::string s = "#";
  s += std::to_string(o.const_value());
  return s;
}
}  // namespace

std::string tuple_to_string(const Tuple& t) {
  std::ostringstream os;
  os << opcode_name(t.op) << ' ';
  if (t.is_load()) {
    os << var_name(t.var);
  } else if (t.is_store()) {
    os << var_name(t.var) << ',' << operand_str(t.lhs);
  } else {
    os << operand_str(t.lhs) << ',' << operand_str(t.rhs);
  }
  return os.str();
}

}  // namespace bm
