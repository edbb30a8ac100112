// tcpdump-style capture filter expressions.
//
// Patchwork's capture needs "filtering to exclude unwanted traffic"
// (Section 1, requirement 1) and tcpdump-equivalent configurability
// (Section 8.1.2). This is a small BPF-like language evaluated against
// dissected frames; the same compiled filter runs in all three capture
// methods, including the FPGA offload pipeline.
//
// Grammar (case-sensitive keywords):
//   expr      := or
//   or        := and ("or" and)*
//   and       := unary ("and" unary)*
//   unary     := "not" unary | "(" expr ")" | predicate
//   predicate := proto                    e.g. "ip", "ip6", "tcp", "vlan"
//              | ["src"|"dst"] "port" N
//              | ["src"|"dst"] "host" A.B.C.D
//              | "vlan" N | "mpls" N
//              | "less" N | "greater" N   (wire length <= / >=)
//              | "jumbo"                  (wire length > 1518)
//
// Example: "ip and tcp and not port 22 and greater 1000"
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "net/parser.hpp"

namespace patchwork::capture {

class Filter {
 public:
  /// An empty filter matches everything.
  Filter() = default;

  bool matches(const net::ParsedFrame& frame) const;

  /// True for the match-all filter, which reads nothing of a frame, so
  /// callers need not dissect one to evaluate it.
  bool matches_all() const { return root_ == nullptr; }

  /// Original source text ("" for the match-all filter).
  const std::string& source() const { return source_; }

  struct Node;
  using NodePtr = std::unique_ptr<Node>;

  struct CompileError {
    std::string message;
    std::size_t position = 0;  ///< Token index where parsing failed.
  };

  /// Compile `text`; returns the error on bad syntax.
  static std::variant<Filter, CompileError> compile(std::string_view text);

 private:
  std::shared_ptr<const Node> root_;  // Shared so Filter is cheaply copyable.
  std::string source_;
};

}  // namespace patchwork::capture
