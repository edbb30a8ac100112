#include "capture/filter.hpp"

#include <algorithm>
#include <optional>

#include "net/addr.hpp"

namespace patchwork::capture {

namespace {

enum class PredKind : std::uint8_t {
  kProto,
  kPort,      // qualifier: 0 = any, 1 = src, 2 = dst.
  kHost,
  kVlanId,
  kMplsLabel,
  kLess,
  kGreater,
  kJumbo,
};

enum class Qualifier : std::uint8_t { kAny, kSrc, kDst };

}  // namespace

struct Filter::Node {
  enum class Op : std::uint8_t { kAnd, kOr, kNot, kPred } op = Op::kPred;
  /// kAnd/kOr: every operand of one chain, left to right, so a chain's
  /// length adds no depth to the tree. kNot: the single operand.
  std::vector<NodePtr> operands;

  PredKind pred = PredKind::kProto;
  Qualifier qualifier = Qualifier::kAny;
  net::Protocol proto = net::Protocol::kIpv4;
  std::uint32_t number = 0;

  bool eval(const net::ParsedFrame& f) const;
};

namespace {

bool frame_has_port(const net::ParsedFrame& f, Qualifier q,
                    std::uint16_t port) {
  std::optional<std::uint16_t> src, dst;
  if (f.tcp) {
    src = f.tcp->src_port;
    dst = f.tcp->dst_port;
  } else if (f.udp) {
    src = f.udp->src_port;
    dst = f.udp->dst_port;
  }
  if (!src) return false;
  switch (q) {
    case Qualifier::kSrc: return *src == port;
    case Qualifier::kDst: return *dst == port;
    case Qualifier::kAny: return *src == port || *dst == port;
  }
  return false;
}

bool frame_has_host(const net::ParsedFrame& f, Qualifier q,
                    std::uint32_t addr) {
  if (!f.ipv4) return false;
  switch (q) {
    case Qualifier::kSrc: return f.ipv4->src.value == addr;
    case Qualifier::kDst: return f.ipv4->dst.value == addr;
    case Qualifier::kAny:
      return f.ipv4->src.value == addr || f.ipv4->dst.value == addr;
  }
  return false;
}

}  // namespace

bool Filter::Node::eval(const net::ParsedFrame& f) const {
  const auto eval_operand = [&f](const NodePtr& n) { return n->eval(f); };
  switch (op) {
    case Op::kAnd: return std::all_of(operands.begin(), operands.end(),
                                      eval_operand);
    case Op::kOr: return std::any_of(operands.begin(), operands.end(),
                                     eval_operand);
    case Op::kNot: return !operands.front()->eval(f);
    case Op::kPred: break;
  }
  switch (pred) {
    case PredKind::kProto: return f.has(proto);
    case PredKind::kPort:
      return frame_has_port(f, qualifier,
                            static_cast<std::uint16_t>(number));
    case PredKind::kHost: return frame_has_host(f, qualifier, number);
    case PredKind::kVlanId:
      return std::find(f.vlan_ids.begin(), f.vlan_ids.end(),
                       static_cast<std::uint16_t>(number)) !=
             f.vlan_ids.end();
    case PredKind::kMplsLabel:
      return std::find(f.mpls_labels.begin(), f.mpls_labels.end(), number) !=
             f.mpls_labels.end();
    case PredKind::kLess: return f.wire_length <= number;
    case PredKind::kGreater: return f.wire_length >= number;
    case PredKind::kJumbo: return f.wire_length > 1518;
  }
  return false;
}

bool Filter::matches(const net::ParsedFrame& frame) const {
  return root_ == nullptr || root_->eval(frame);
}

namespace {

std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == '(' || c == ')') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
      out.push_back(std::string(1, c));
    } else if (c == ' ' || c == '\t' || c == '\n') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Field widths, as tcpdump checks them.
constexpr std::uint32_t kMaxPort = 65535;
constexpr std::uint32_t kMaxVlanId = 4095;
constexpr std::uint32_t kMaxMplsLabel = (1u << 20) - 1;
constexpr std::uint32_t kMaxLength = 0xffffffffu;

struct Parser {
  const std::vector<std::string>& tokens;
  std::size_t pos = 0;
  std::optional<Filter::CompileError> error;
  std::size_t depth = 0;  ///< Open "(" and "not" levels.

  bool at_end() const { return pos >= tokens.size(); }
  const std::string* peek() const {
    return at_end() ? nullptr : &tokens[pos];
  }
  bool accept(std::string_view tok) {
    if (!at_end() && tokens[pos] == tok) {
      ++pos;
      return true;
    }
    return false;
  }
  void fail(std::string message) {
    if (!error) error = Filter::CompileError{std::move(message), pos};
  }

  /// A decimal number no larger than `max`.
  std::optional<std::uint32_t> number(std::uint32_t max) {
    if (at_end()) {
      fail("expected number");
      return std::nullopt;
    }
    const std::string& t = tokens[pos];
    std::uint64_t v = 0;
    for (char c : t) {
      if (c < '0' || c > '9') {
        fail("expected number, got '" + t + "'");
        return std::nullopt;
      }
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > max) {
        fail("number '" + t + "' out of range (max " + std::to_string(max) +
             ")");
        return std::nullopt;
      }
    }
    ++pos;
    return static_cast<std::uint32_t>(v);
  }

  /// One chain of `op` ("and" / "or") operands, each parsed by `operand`,
  /// as a single node; a lone operand stands for itself.
  Filter::NodePtr parse_chain(std::string_view keyword, Filter::Node::Op op,
                              Filter::NodePtr (Parser::*operand)()) {
    auto first = (this->*operand)();
    if (!first || peek() == nullptr || *peek() != keyword) return first;
    auto node = std::make_unique<Filter::Node>();
    node->op = op;
    node->operands.push_back(std::move(first));
    while (accept(keyword)) {
      auto next = (this->*operand)();
      if (!next) return nullptr;
      node->operands.push_back(std::move(next));
    }
    return node;
  }

  Filter::NodePtr parse_or() {
    return parse_chain("or", Filter::Node::Op::kOr, &Parser::parse_and);
  }

  Filter::NodePtr parse_and() {
    return parse_chain("and", Filter::Node::Op::kAnd, &Parser::parse_unary);
  }

  Filter::NodePtr parse_unary() {
    const std::string* tok = peek();
    const bool negate = tok != nullptr && *tok == "not";
    if (!negate && (tok == nullptr || *tok != "(")) return parse_predicate();
    if (depth == Filter::kMaxNesting) {
      fail("nesting deeper than " + std::to_string(Filter::kMaxNesting));
      return nullptr;
    }
    ++pos;
    ++depth;
    Filter::NodePtr inner = negate ? parse_unary() : parse_or();
    --depth;
    if (!inner) return nullptr;
    if (negate) {
      auto node = std::make_unique<Filter::Node>();
      node->op = Filter::Node::Op::kNot;
      node->operands.push_back(std::move(inner));
      return node;
    }
    if (!accept(")")) {
      fail("expected ')'");
      return nullptr;
    }
    return inner;
  }

  Filter::NodePtr make_pred(PredKind kind) {
    auto node = std::make_unique<Filter::Node>();
    node->op = Filter::Node::Op::kPred;
    node->pred = kind;
    return node;
  }

  Filter::NodePtr parse_predicate() {
    if (at_end()) {
      fail("expected predicate");
      return nullptr;
    }
    Qualifier qual = Qualifier::kAny;
    if (accept("src")) {
      qual = Qualifier::kSrc;
    } else if (accept("dst")) {
      qual = Qualifier::kDst;
    }
    if (accept("port")) {
      auto n = number(kMaxPort);
      if (!n) return nullptr;
      auto node = make_pred(PredKind::kPort);
      node->qualifier = qual;
      node->number = *n;
      return node;
    }
    if (accept("host")) {
      if (at_end()) {
        fail("expected address");
        return nullptr;
      }
      auto addr = net::Ipv4Address::parse(tokens[pos]);
      if (!addr) {
        fail("bad IPv4 address '" + tokens[pos] + "'");
        return nullptr;
      }
      ++pos;
      auto node = make_pred(PredKind::kHost);
      node->qualifier = qual;
      node->number = addr->value;
      return node;
    }
    if (qual != Qualifier::kAny) {
      fail("'src'/'dst' must be followed by 'port' or 'host'");
      return nullptr;
    }
    if (accept("less")) {
      auto n = number(kMaxLength);
      if (!n) return nullptr;
      auto node = make_pred(PredKind::kLess);
      node->number = *n;
      return node;
    }
    if (accept("greater")) {
      auto n = number(kMaxLength);
      if (!n) return nullptr;
      auto node = make_pred(PredKind::kGreater);
      node->number = *n;
      return node;
    }
    if (accept("jumbo")) return make_pred(PredKind::kJumbo);
    if (accept("vlan")) {
      auto node = make_pred(PredKind::kProto);
      node->proto = net::Protocol::kVlan;
      // Optional id: "vlan 100".
      if (!at_end() && !tokens[pos].empty() && tokens[pos][0] >= '0' &&
          tokens[pos][0] <= '9') {
        auto n = number(kMaxVlanId);
        if (!n) return nullptr;
        node->pred = PredKind::kVlanId;
        node->number = *n;
      }
      return node;
    }
    if (accept("mpls")) {
      auto node = make_pred(PredKind::kProto);
      node->proto = net::Protocol::kMpls;
      if (!at_end() && !tokens[pos].empty() && tokens[pos][0] >= '0' &&
          tokens[pos][0] <= '9') {
        auto n = number(kMaxMplsLabel);
        if (!n) return nullptr;
        node->pred = PredKind::kMplsLabel;
        node->number = *n;
      }
      return node;
    }
    // Protocol keywords, with tcpdump-style aliases.
    const std::string& tok = tokens[pos];
    std::optional<net::Protocol> proto;
    if (tok == "ip") {
      proto = net::Protocol::kIpv4;
    } else if (tok == "ip6") {
      proto = net::Protocol::kIpv6;
    } else {
      proto = net::protocol_from_string(tok);
    }
    if (!proto) {
      fail("unknown predicate '" + tok + "'");
      return nullptr;
    }
    ++pos;
    auto node = make_pred(PredKind::kProto);
    node->proto = *proto;
    return node;
  }
};

}  // namespace

std::variant<Filter, Filter::CompileError> Filter::compile(
    std::string_view text) {
  const std::vector<std::string> tokens = tokenize(text);
  Filter filter;
  filter.source_ = std::string(text);
  if (tokens.empty()) return filter;  // Match-all.
  Parser parser{tokens, 0, std::nullopt};
  NodePtr root = parser.parse_or();
  if (!root || parser.error) {
    if (parser.error) return *parser.error;
    return CompileError{"parse error", parser.pos};
  }
  if (!parser.at_end()) {
    return CompileError{"trailing tokens after expression", parser.pos};
  }
  filter.root_ = std::shared_ptr<const Node>(root.release());
  return filter;
}

}  // namespace patchwork::capture
