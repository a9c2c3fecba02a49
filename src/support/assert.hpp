// Error handling primitives for the barrier-mimd library.
//
// BM_REQUIRE is used for precondition violations on public API boundaries
// (throws bm::Error so callers and tests can observe it); BM_ASSERT_INTERNAL
// is for internal invariants that indicate a library bug.
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace bm {

/// Exception thrown on violated preconditions and invariants.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  /// `what` whose [where_begin, where_end) span names the raising source
  /// location (BM_REQUIRE / BM_ASSERT_INTERNAL).
  Error(const std::string& what, std::size_t where_begin,
        std::size_t where_end)
      : std::runtime_error(what),
        where_begin_(where_begin),
        where_end_(where_end) {}

  /// what() without the source location: a build-tree path means nothing
  /// outside this process, so this is the text to hand to a remote client.
  std::string message() const {
    std::string m = what();
    return m.erase(where_begin_, where_end_ - where_begin_);
  }

 private:
  std::size_t where_begin_ = 0;
  std::size_t where_end_ = 0;
};

namespace detail {
[[noreturn]] inline void raise(const char* kind, const char* expr,
                               const char* file, int line,
                               const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: " << expr;
  const auto where_begin = static_cast<std::size_t>(os.tellp());
  os << " at " << file << ':' << line;
  const auto where_end = static_cast<std::size_t>(os.tellp());
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str(), where_begin, where_end);
}
}  // namespace detail

}  // namespace bm

#define BM_REQUIRE(cond, msg)                                               \
  do {                                                                      \
    if (!(cond))                                                            \
      ::bm::detail::raise("precondition", #cond, __FILE__, __LINE__, (msg)); \
  } while (0)

#define BM_ASSERT_INTERNAL(cond, msg)                                     \
  do {                                                                    \
    if (!(cond))                                                          \
      ::bm::detail::raise("invariant", #cond, __FILE__, __LINE__, (msg)); \
  } while (0)
