#include "circuits/spice_parser.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace shhpass::circuits {

namespace {

// Highest node index a numeric node name may carry. Far above any real
// netlist; bounds memory for the dense node tables against typos like
// "R1 1 99999999999 5".
constexpr std::size_t kMaxNodeIndex = 1u << 20;

struct Token {
  std::string text;
};

/// One logical card: tokens joined across '+' continuations, tagged with
/// the physical line of its first segment.
struct Card {
  std::size_t line = 0;
  std::vector<std::string> tokens;
};

bool isAllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

bool isNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string toLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Engineering-suffix value parse. Returns false when the token is not a
/// finite number (optionally suffixed and unit-tagged).
bool parseValueToken(const std::string& token, double* out) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double base = std::strtod(begin, &end);
  if (end == begin || !std::isfinite(base)) return false;
  std::string rest = toLower(std::string_view(end));
  double scale = 1.0;
  if (!rest.empty()) {
    if (rest.rfind("meg", 0) == 0) {
      scale = 1e6;
      rest.erase(0, 3);
    } else {
      switch (rest[0]) {
        case 'f': scale = 1e-15; rest.erase(0, 1); break;
        case 'p': scale = 1e-12; rest.erase(0, 1); break;
        case 'n': scale = 1e-9; rest.erase(0, 1); break;
        case 'u': scale = 1e-6; rest.erase(0, 1); break;
        case 'm': scale = 1e-3; rest.erase(0, 1); break;
        case 'k': scale = 1e3; rest.erase(0, 1); break;
        case 'g': scale = 1e9; rest.erase(0, 1); break;
        case 't': scale = 1e12; rest.erase(0, 1); break;
        default: break;  // plain unit letters ("ohm")
      }
    }
    // Whatever remains must be a unit annotation: letters only.
    for (char c : rest)
      if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  const double value = base * scale;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Shortest decimal that round-trips the double exactly (std::to_chars
/// without precision), so writeSpice -> parseSpice -> writeSpice is
/// byte-stable.
std::string formatValue(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct ElementCard {
  std::size_t line = 0;
  Component::Kind kind = Component::Kind::Resistor;
  std::string node1, node2, valueToken;
};

struct PortCard {
  std::size_t line = 0;
  std::string node;
};

class Parser {
 public:
  explicit Parser(const SpiceParseOptions& options) : options_(options) {}

  ParsedNetlist run(std::string_view text) {
    splitCards(text);
    classifyCards();
    resolveNodes();
    checkValuesAndTopology();
    return build();
  }

 private:
  void error(std::size_t line, SpiceErrorKind kind, std::string message) {
    result_.errors.push_back({line, kind, std::move(message)});
  }

  // ---------------------------------------------------------- card split
  void splitCards(std::string_view text) {
    std::size_t lineNo = 0;
    bool ended = false;
    std::size_t pos = 0;
    while (pos <= text.size() && !ended) {
      const std::size_t eol = text.find('\n', pos);
      std::string_view line = text.substr(
          pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
      pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
      ++lineNo;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      // Inline comment.
      const std::size_t semi = line.find(';');
      if (semi != std::string_view::npos) line = line.substr(0, semi);
      // Full-line comment / blank.
      std::size_t first = line.find_first_not_of(" \t");
      if (first == std::string_view::npos) continue;
      if (line[first] == '*') continue;
      const bool continuation = line[first] == '+';
      if (continuation) ++first;
      // Tokenize.
      std::vector<std::string> tokens;
      std::size_t i = first;
      while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        const std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
        if (i > start) tokens.emplace_back(line.substr(start, i - start));
      }
      if (continuation) {
        if (cards_.empty()) {
          error(lineNo, SpiceErrorKind::UnknownCard,
                "continuation line with no preceding card");
          continue;
        }
        for (auto& t : tokens) cards_.back().tokens.push_back(std::move(t));
        continue;
      }
      if (tokens.empty()) continue;
      if (toLower(tokens[0]) == ".end") {
        if (tokens.size() > 1)
          error(lineNo, SpiceErrorKind::TrailingField,
                ".end takes no arguments");
        ended = true;
        continue;
      }
      cards_.push_back({lineNo, std::move(tokens)});
    }
  }

  // ------------------------------------------------------ classification
  void classifyCards() {
    for (const Card& card : cards_) {
      const std::string& head = card.tokens[0];
      if (head[0] == '.') {
        const std::string directive = toLower(head);
        if (directive == ".port") {
          if (card.tokens.size() < 2) {
            error(card.line, SpiceErrorKind::TruncatedCard,
                  ".port needs a node argument");
          } else if (card.tokens.size() > 2) {
            error(card.line, SpiceErrorKind::TrailingField,
                  ".port takes exactly one node");
          } else {
            ports_.push_back({card.line, card.tokens[1]});
          }
        } else {
          error(card.line, SpiceErrorKind::UnknownCard,
                "unknown directive '" + head + "' (subset: .port, .end)");
        }
        continue;
      }
      Component::Kind kind;
      switch (std::toupper(static_cast<unsigned char>(head[0]))) {
        case 'R': kind = Component::Kind::Resistor; break;
        case 'L': kind = Component::Kind::Inductor; break;
        case 'C': kind = Component::Kind::Capacitor; break;
        default:
          error(card.line, SpiceErrorKind::UnknownCard,
                "unknown element '" + head + "' (subset: R, L, C)");
          continue;
      }
      if (card.tokens.size() < 4) {
        error(card.line, SpiceErrorKind::TruncatedCard,
              "element card '" + head + "' needs <node> <node> <value>");
        continue;
      }
      if (card.tokens.size() > 4) {
        error(card.line, SpiceErrorKind::TrailingField,
              "element card '" + head + "' has trailing fields");
        continue;
      }
      elements_.push_back(
          {card.line, kind, card.tokens[1], card.tokens[2], card.tokens[3]});
    }
    if (elements_.empty() && result_.errors.empty())
      error(0, SpiceErrorKind::EmptyNetlist, "netlist has no element cards");
  }

  // ------------------------------------------------------ node resolution
  // Returns -1 on error (already reported). Ground is 0.
  int classifyNode(std::size_t line, const std::string& token,
                   bool fromElement) {
    const std::string lower = toLower(token);
    if (lower == "0" || lower == "gnd") return 0;
    for (char c : token) {
      if (!isNameChar(c)) {
        error(line, SpiceErrorKind::BadNodeName,
              "malformed node name '" + token + "'");
        return -1;
      }
    }
    if (isAllDigits(token)) {
      char* end = nullptr;
      const unsigned long long idx = std::strtoull(token.c_str(), &end, 10);
      if (idx > kMaxNodeIndex) {
        error(line, SpiceErrorKind::BadNodeName,
              "node index '" + token + "' out of range");
        return -1;
      }
      if (idx == 0) return 0;  // "00", "000": still ground
      const int node = static_cast<int>(idx);
      if (fromElement && numericFirstLine_.find(node) ==
                             numericFirstLine_.end())
        numericFirstLine_[node] = line;
      return node;
    }
    // Symbolic: remember first appearance; dense index assigned after the
    // scan (above the highest numeric node) so numeric/symbolic mixes
    // cannot collide.
    if (fromElement && symbolicOrder_.find(lower) == symbolicOrder_.end())
      symbolicOrder_[lower] = symbolicNames_.size(),
      symbolicNames_.push_back(token);
    return -2;  // placeholder; resolved in resolveNodes
  }

  void resolveNodes() {
    // First scan: classify element nodes, recording numeric indices and
    // symbolic first-appearance order.
    for (ElementCard& e : elements_) {
      (void)classifyNode(e.line, e.node1, /*fromElement=*/true);
      (void)classifyNode(e.line, e.node2, /*fromElement=*/true);
    }
    int maxNumeric = 0;
    for (const auto& [node, line] : numericFirstLine_)
      maxNumeric = std::max(maxNumeric, node);
    // Dense table: numeric nodes keep their own index; symbolic nodes
    // stack above in first-appearance order.
    numNodes_ = static_cast<std::size_t>(maxNumeric) + symbolicNames_.size();
    for (const auto& [lower, order] : symbolicOrder_)
      symbolicIndex_[lower] = maxNumeric + 1 + static_cast<int>(order);
  }

  /// -1: malformed (reported). -2: well-formed symbolic name no element
  /// ever used (only reachable from .port cards — element symbolics are
  /// all in the table by construction; the caller reports DanglingPort).
  int resolveNode(std::size_t line, const std::string& token) {
    const std::string lower = toLower(token);
    if (lower == "0" || lower == "gnd") return 0;
    auto sym = symbolicIndex_.find(lower);
    if (sym != symbolicIndex_.end()) return sym->second;
    if (isAllDigits(token)) {
      char* end = nullptr;
      const unsigned long long idx = std::strtoull(token.c_str(), &end, 10);
      if (idx <= kMaxNodeIndex) return static_cast<int>(idx);
    } else {
      bool wellFormed = true;
      for (char c : token)
        if (!isNameChar(c)) wellFormed = false;
      if (wellFormed) return -2;
    }
    error(line, SpiceErrorKind::BadNodeName,
          "malformed node name '" + token + "'");
    return -1;
  }

  // ------------------------------------------- value + topology checking
  void checkValuesAndTopology() {
    std::set<int> connected;
    for (ElementCard& e : elements_) {
      const int n1 = resolveNode(e.line, e.node1);
      const int n2 = resolveNode(e.line, e.node2);
      if (n1 < 0 || n2 < 0) continue;
      if (n1 == n2) {
        error(e.line, SpiceErrorKind::ShortedElement,
              "element shorted: both terminals on node '" + e.node1 + "'");
        continue;
      }
      double value = 0.0;
      if (!parseValueToken(e.valueToken, &value)) {
        error(e.line, SpiceErrorKind::BadValue,
              "unparseable element value '" + e.valueToken + "'");
        continue;
      }
      if (value == 0.0 || (value < 0.0 && !options_.allowActiveElements)) {
        error(e.line, SpiceErrorKind::NonPositiveValue,
              value == 0.0
                  ? "zero-valued element"
                  : "negative element value '" + e.valueToken +
                        "' (active elements need allowActiveElements)");
        continue;
      }
      resolved_.push_back({e.kind, n1, n2, value});
      connected.insert(n1);
      connected.insert(n2);
    }
    // Numeric gaps: every dense index 1..numNodes must be connected.
    // A gap is reported at the line where the next connected node above
    // it first appeared (the card that implied the gap).
    for (int node = 1; node <= static_cast<int>(numNodes_); ++node) {
      if (connected.count(node)) continue;
      std::size_t line = 0;
      for (int above = node + 1; above <= static_cast<int>(numNodes_);
           ++above) {
        auto it = numericFirstLine_.find(above);
        if (it != numericFirstLine_.end() && connected.count(above)) {
          line = it->second;
          break;
        }
      }
      if (line == 0 && !elements_.empty()) line = elements_.back().line;
      error(line, SpiceErrorKind::UnconnectedNode,
            "node " + std::to_string(node) +
                " is never connected by an element (dead MNA row)");
    }
    for (const PortCard& p : ports_) {
      const int node = resolveNode(p.line, p.node);
      if (node == -1) continue;
      if (node == -2) {
        error(p.line, SpiceErrorKind::DanglingPort,
              ".port node '" + p.node + "' is not connected by any element");
        continue;
      }
      if (node == 0) {
        error(p.line, SpiceErrorKind::PortAtGround, ".port at ground");
        continue;
      }
      if (!connected.count(node)) {
        error(p.line, SpiceErrorKind::DanglingPort,
              ".port node '" + p.node + "' is not connected by any element");
        continue;
      }
      resolvedPorts_.push_back(node);
    }
  }

  // -------------------------------------------------------------- build
  ParsedNetlist build() {
    if (!result_.errors.empty()) return std::move(result_);
    // Every precondition of the Netlist builder was checked above, so
    // the builder cannot throw here.
    Netlist net(static_cast<int>(numNodes_));
    for (const Component& c : resolved_) net.addComponent(c);
    for (int port : resolvedPorts_) net.addPort(port);
    result_.netlist = std::move(net);
    result_.nodeNames.assign(numNodes_ + 1, std::string());
    for (std::size_t i = 0; i <= numNodes_; ++i)
      result_.nodeNames[i] = std::to_string(i);
    for (const auto& [lower, index] : symbolicIndex_) {
      const std::size_t order = symbolicOrder_.at(lower);
      result_.nodeNames[static_cast<std::size_t>(index)] =
          symbolicNames_[order];
    }
    return std::move(result_);
  }

  SpiceParseOptions options_;
  ParsedNetlist result_;
  std::vector<Card> cards_;
  std::vector<ElementCard> elements_;
  std::vector<PortCard> ports_;
  std::map<int, std::size_t> numericFirstLine_;
  std::map<std::string, std::size_t> symbolicOrder_;  // lower -> order
  std::vector<std::string> symbolicNames_;            // order -> spelling
  std::map<std::string, int> symbolicIndex_;          // lower -> dense index
  std::size_t numNodes_ = 0;
  std::vector<Component> resolved_;
  std::vector<int> resolvedPorts_;
};

}  // namespace

const char* spiceErrorKindName(SpiceErrorKind kind) {
  switch (kind) {
    case SpiceErrorKind::FileError: return "FILE_ERROR";
    case SpiceErrorKind::UnknownCard: return "UNKNOWN_CARD";
    case SpiceErrorKind::TruncatedCard: return "TRUNCATED_CARD";
    case SpiceErrorKind::TrailingField: return "TRAILING_FIELD";
    case SpiceErrorKind::BadNodeName: return "BAD_NODE_NAME";
    case SpiceErrorKind::BadValue: return "BAD_VALUE";
    case SpiceErrorKind::NonPositiveValue: return "NON_POSITIVE_VALUE";
    case SpiceErrorKind::ShortedElement: return "SHORTED_ELEMENT";
    case SpiceErrorKind::DanglingPort: return "DANGLING_PORT";
    case SpiceErrorKind::PortAtGround: return "PORT_AT_GROUND";
    case SpiceErrorKind::UnconnectedNode: return "UNCONNECTED_NODE";
    case SpiceErrorKind::EmptyNetlist: return "EMPTY_NETLIST";
  }
  return "UNKNOWN";
}

std::string SpiceError::toString() const {
  std::string s = line == 0 ? std::string("netlist")
                            : "line " + std::to_string(line);
  s += ": [";
  s += spiceErrorKindName(kind);
  s += "] ";
  s += message;
  return s;
}

ParsedNetlist parseSpice(std::string_view text,
                         const SpiceParseOptions& options) {
  return Parser(options).run(text);
}

ParsedNetlist parseSpiceFile(const std::string& path,
                             const SpiceParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParsedNetlist failed;
    failed.errors.push_back({0, SpiceErrorKind::FileError,
                             "cannot read netlist file '" + path + "'"});
    return failed;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parseSpice(buf.str(), options);
}

std::string writeSpice(const Netlist& net, std::string_view comment) {
  std::string out;
  if (!comment.empty()) {
    out += "* ";
    out += comment;
    out += "\n";
  }
  std::size_t nR = 0, nL = 0, nC = 0;
  for (const Component& c : net.components()) {
    switch (c.kind) {
      case Component::Kind::Resistor: out += 'R';
        out += std::to_string(++nR);
        break;
      case Component::Kind::Inductor: out += 'L';
        out += std::to_string(++nL);
        break;
      case Component::Kind::Capacitor: out += 'C';
        out += std::to_string(++nC);
        break;
    }
    out += ' ';
    out += std::to_string(c.n1);
    out += ' ';
    out += std::to_string(c.n2);
    out += ' ';
    out += formatValue(c.value);
    out += '\n';
  }
  for (int port : net.ports()) {
    out += ".port ";
    out += std::to_string(port);
    out += '\n';
  }
  out += ".end\n";
  return out;
}

}  // namespace shhpass::circuits
