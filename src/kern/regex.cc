#include "kern/regex.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.h"

namespace dpdpu::kern {

namespace {

// ---------------------------------------------------------------------------
// AST.
// ---------------------------------------------------------------------------

struct Node;
using NodePtr = std::unique_ptr<Node>;

enum class NodeKind {
  kClass,       // single character class
  kConcat,      // left then right
  kAlternate,   // left | right
  kStar,        // left*  (greedy)
  kPlus,        // left+
  kQuestion,    // left?
  kEmpty,       // matches empty string
  kAssertBegin, // ^
  kAssertEnd,   // $
};

struct Node {
  NodeKind kind;
  std::bitset<256> char_class;
  NodePtr left;
  NodePtr right;

  NodePtr Clone() const {
    auto n = std::make_unique<Node>();
    n->kind = kind;
    n->char_class = char_class;
    if (left) n->left = left->Clone();
    if (right) n->right = right->Clone();
    return n;
  }
};

NodePtr MakeNode(NodeKind kind) {
  auto n = std::make_unique<Node>();
  n->kind = kind;
  return n;
}

NodePtr MakeClass(std::bitset<256> cls) {
  auto n = MakeNode(NodeKind::kClass);
  n->char_class = cls;
  return n;
}

NodePtr MakeBinary(NodeKind kind, NodePtr l, NodePtr r) {
  auto n = MakeNode(kind);
  n->left = std::move(l);
  n->right = std::move(r);
  return n;
}

NodePtr MakeUnary(NodeKind kind, NodePtr l) {
  auto n = MakeNode(kind);
  n->left = std::move(l);
  return n;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent).
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view pattern) : p_(pattern) {}

  Result<NodePtr> Parse() {
    DPDPU_ASSIGN_OR_RETURN(NodePtr node, ParseAlternate());
    if (!AtEnd()) {
      return Status::InvalidArgument("regex: unexpected ')' or trailing input");
    }
    return node;
  }

 private:
  bool AtEnd() const { return pos_ >= p_.size(); }
  char Peek() const { return p_[pos_]; }
  char Take() { return p_[pos_++]; }

  Result<NodePtr> ParseAlternate() {
    DPDPU_ASSIGN_OR_RETURN(NodePtr left, ParseConcat());
    while (!AtEnd() && Peek() == '|') {
      Take();
      DPDPU_ASSIGN_OR_RETURN(NodePtr right, ParseConcat());
      left = MakeBinary(NodeKind::kAlternate, std::move(left),
                        std::move(right));
    }
    return left;
  }

  Result<NodePtr> ParseConcat() {
    NodePtr node;
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      DPDPU_ASSIGN_OR_RETURN(NodePtr atom, ParseRepeat());
      node = node ? MakeBinary(NodeKind::kConcat, std::move(node),
                               std::move(atom))
                  : std::move(atom);
    }
    if (!node) node = MakeNode(NodeKind::kEmpty);
    return node;
  }

  Result<NodePtr> ParseRepeat() {
    DPDPU_ASSIGN_OR_RETURN(NodePtr atom, ParseAtom());
    while (!AtEnd()) {
      char c = Peek();
      if (c == '*') {
        Take();
        atom = MakeUnary(NodeKind::kStar, std::move(atom));
      } else if (c == '+') {
        Take();
        atom = MakeUnary(NodeKind::kPlus, std::move(atom));
      } else if (c == '?') {
        Take();
        atom = MakeUnary(NodeKind::kQuestion, std::move(atom));
      } else if (c == '{') {
        DPDPU_ASSIGN_OR_RETURN(atom, ParseBrace(std::move(atom)));
      } else {
        break;
      }
    }
    return atom;
  }

  // {m}, {m,}, {m,n} with m,n <= 100 (expansion-based compilation).
  Result<NodePtr> ParseBrace(NodePtr atom) {
    Take();  // '{'
    int m = 0;
    bool have_digit = false;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      m = m * 10 + (Take() - '0');
      have_digit = true;
      if (m > 100) return Status::InvalidArgument("regex: {m,n} too large");
    }
    if (!have_digit) return Status::InvalidArgument("regex: bad {} count");
    int n = m;
    bool unbounded = false;
    if (!AtEnd() && Peek() == ',') {
      Take();
      if (!AtEnd() && Peek() == '}') {
        unbounded = true;
      } else {
        n = 0;
        while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
          n = n * 10 + (Take() - '0');
          if (n > 100) return Status::InvalidArgument("regex: {m,n} too large");
        }
        if (n < m) return Status::InvalidArgument("regex: {m,n} with n < m");
      }
    }
    if (AtEnd() || Take() != '}') {
      return Status::InvalidArgument("regex: unterminated {}");
    }
    // Expand: m mandatory copies, then (n - m) optional or a star.
    NodePtr out;
    for (int i = 0; i < m; ++i) {
      NodePtr copy = atom->Clone();
      out = out ? MakeBinary(NodeKind::kConcat, std::move(out),
                             std::move(copy))
                : std::move(copy);
    }
    if (unbounded) {
      NodePtr star = MakeUnary(NodeKind::kStar, atom->Clone());
      out = out ? MakeBinary(NodeKind::kConcat, std::move(out),
                             std::move(star))
                : std::move(star);
    } else {
      for (int i = m; i < n; ++i) {
        NodePtr opt = MakeUnary(NodeKind::kQuestion, atom->Clone());
        out = out ? MakeBinary(NodeKind::kConcat, std::move(out),
                               std::move(opt))
                  : std::move(opt);
      }
    }
    if (!out) out = MakeNode(NodeKind::kEmpty);  // {0}
    return out;
  }

  Result<NodePtr> ParseAtom() {
    char c = Take();
    switch (c) {
      case '(': {
        DPDPU_ASSIGN_OR_RETURN(NodePtr inner, ParseAlternate());
        if (AtEnd() || Take() != ')') {
          return Status::InvalidArgument("regex: unbalanced parenthesis");
        }
        return inner;
      }
      case '[':
        return ParseClass();
      case '.': {
        std::bitset<256> any;
        any.set();
        any.reset('\n');
        return MakeClass(any);
      }
      case '^':
        return MakeNode(NodeKind::kAssertBegin);
      case '$':
        return MakeNode(NodeKind::kAssertEnd);
      case '\\':
        return ParseEscape();
      case '*':
      case '+':
      case '?':
        return Status::InvalidArgument("regex: quantifier with no operand");
      case ')':
        return Status::InvalidArgument("regex: unmatched ')'");
      default: {
        std::bitset<256> cls;
        cls.set(static_cast<uint8_t>(c));
        return MakeClass(cls);
      }
    }
  }

  static void SetRange(std::bitset<256>& cls, uint8_t lo, uint8_t hi) {
    for (int c = lo; c <= hi; ++c) cls.set(c);
  }

  static bool EscapeClass(char c, std::bitset<256>& cls) {
    switch (c) {
      case 'd':
        SetRange(cls, '0', '9');
        return true;
      case 'w':
        SetRange(cls, 'a', 'z');
        SetRange(cls, 'A', 'Z');
        SetRange(cls, '0', '9');
        cls.set('_');
        return true;
      case 's':
        cls.set(' ');
        cls.set('\t');
        cls.set('\n');
        cls.set('\r');
        cls.set('\f');
        cls.set('\v');
        return true;
      default:
        return false;
    }
  }

  Result<NodePtr> ParseEscape() {
    if (AtEnd()) return Status::InvalidArgument("regex: trailing backslash");
    char c = Take();
    std::bitset<256> cls;
    if (EscapeClass(c, cls)) return MakeClass(cls);
    if (c == 'D' || c == 'W' || c == 'S') {
      std::bitset<256> inner;
      EscapeClass(static_cast<char>(c - 'A' + 'a'), inner);
      return MakeClass(~inner);
    }
    switch (c) {
      case 'n':
        cls.set('\n');
        return MakeClass(cls);
      case 't':
        cls.set('\t');
        return MakeClass(cls);
      case 'r':
        cls.set('\r');
        return MakeClass(cls);
      default:
        // Escaped literal (covers metacharacters and \\).
        cls.set(static_cast<uint8_t>(c));
        return MakeClass(cls);
    }
  }

  Result<NodePtr> ParseClass() {
    std::bitset<256> cls;
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      Take();
      negate = true;
    }
    bool first = true;
    while (true) {
      if (AtEnd()) return Status::InvalidArgument("regex: unterminated [");
      char c = Take();
      if (c == ']' && !first) break;
      first = false;
      if (c == '\\') {
        if (AtEnd()) return Status::InvalidArgument("regex: bad class escape");
        char e = Take();
        std::bitset<256> sub;
        if (EscapeClass(e, sub)) {
          cls |= sub;
          continue;
        }
        switch (e) {
          case 'n':
            cls.set('\n');
            continue;
          case 't':
            cls.set('\t');
            continue;
          case 'r':
            cls.set('\r');
            continue;
          default:
            c = e;  // escaped literal; may start a range below
        }
      }
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < p_.size() &&
          p_[pos_ + 1] != ']') {
        Take();  // '-'
        char hi = Take();
        if (hi == '\\') {
          if (AtEnd()) return Status::InvalidArgument("regex: bad range");
          hi = Take();
        }
        if (static_cast<uint8_t>(hi) < static_cast<uint8_t>(c)) {
          return Status::InvalidArgument("regex: inverted class range");
        }
        SetRange(cls, static_cast<uint8_t>(c), static_cast<uint8_t>(hi));
      } else {
        cls.set(static_cast<uint8_t>(c));
      }
    }
    return MakeClass(negate ? ~cls : cls);
  }

  std::string_view p_;
  size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Compilation: AST -> instruction list.
// ---------------------------------------------------------------------------

Result<Regex> Regex::Compile(std::string_view pattern) {
  Parser parser(pattern);
  DPDPU_ASSIGN_OR_RETURN(NodePtr root, parser.Parse());

  Regex re;
  re.pattern_ = std::string(pattern);

  // Emit instructions via an explicit recursion (lambda).
  struct Emitter {
    Regex* re;
    void Emit(const Node& n) {
      switch (n.kind) {
        case NodeKind::kClass: {
          int cls = static_cast<int>(re->classes_.size());
          re->classes_.push_back(n.char_class);
          re->program_.push_back(Inst{Op::kChar, cls, 0});
          break;
        }
        case NodeKind::kConcat:
          Emit(*n.left);
          Emit(*n.right);
          break;
        case NodeKind::kAlternate: {
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, 0, 0});
          Emit(*n.left);
          size_t jump = re->program_.size();
          re->program_.push_back(Inst{Op::kJump, 0, 0});
          re->program_[split].x = static_cast<int>(split + 1);
          re->program_[split].y = static_cast<int>(re->program_.size());
          Emit(*n.right);
          re->program_[jump].x = static_cast<int>(re->program_.size());
          break;
        }
        case NodeKind::kStar: {
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, 0, 0});
          Emit(*n.left);
          re->program_.push_back(
              Inst{Op::kJump, static_cast<int>(split), 0});
          re->program_[split].x = static_cast<int>(split + 1);
          re->program_[split].y = static_cast<int>(re->program_.size());
          break;
        }
        case NodeKind::kPlus: {
          size_t body = re->program_.size();
          Emit(*n.left);
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, static_cast<int>(body),
                                      static_cast<int>(split + 1)});
          break;
        }
        case NodeKind::kQuestion: {
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, 0, 0});
          Emit(*n.left);
          re->program_[split].x = static_cast<int>(split + 1);
          re->program_[split].y = static_cast<int>(re->program_.size());
          break;
        }
        case NodeKind::kEmpty:
          break;
        case NodeKind::kAssertBegin:
          re->program_.push_back(Inst{Op::kAssertBegin, 0, 0});
          break;
        case NodeKind::kAssertEnd:
          re->program_.push_back(Inst{Op::kAssertEnd, 0, 0});
          break;
      }
    }
  };
  Emitter{&re}.Emit(*root);
  re.program_.push_back(Inst{Op::kMatch, 0, 0});

  // Refine the byte partition by each class in turn: bytes stay together
  // while every class seen so far contains both or neither.
  for (const std::bitset<256>& cls : re.classes_) {
    std::array<int, 512> renumber;
    renumber.fill(-1);
    int count = 0;
    for (int b = 0; b < 256; ++b) {
      int& id = renumber[re.byte_class_[b] * 2 + int(cls.test(b))];
      if (id < 0) id = count++;
      re.byte_class_[b] = uint8_t(id);
    }
    re.num_byte_classes_ = count;
  }
  return re;
}

// ---------------------------------------------------------------------------
// Lazy DFA execution.
// ---------------------------------------------------------------------------

// A DFA state is the sorted set of kChar, kMatch and kAssertEnd pcs that
// an epsilon closure reaches at an interior text position, where '^'
// fails and '$' is left pending. A transition is computed the first time
// its (state, byte class) pair comes up. '$' is resolved only at the end
// of the text, by expanding the state's pending kAssertEnd pcs. States
// and transitions are cached up to kCacheBytes; a full cache is flushed,
// which bounds memory for any pattern at the cost of recomputing states.
class Regex::Dfa {
 public:
  static constexpr int kDead = 0;  // the empty set: no thread survives

  Dfa(const Regex& re, std::string_view text)
      : re_(re),
        text_(text),
        mark_(re.program_.size(), 0),
        class_byte_(size_t(re.num_byte_classes_), 0) {
    for (int b = 255; b >= 0; --b) class_byte_[re.byte_class_[b]] = uint8_t(b);
    Reset();
  }

  /// End of the longest match starting at `start`, or -1 when none.
  ptrdiff_t LongestMatch(size_t start) {
    int s = start_[start == 0];
    ptrdiff_t best = -1;
    for (size_t pos = start; pos < text_.size(); ++pos) {
      if (match_[size_t(s)]) best = ptrdiff_t(pos);
      s = Next(s, uint8_t(text_[pos]));
      if (s == kDead) return best;
    }
    return AcceptsAtEnd(s) ? ptrdiff_t(text_.size()) : best;
  }

  /// Leftmost match starting at or after `from`: stores its start in
  /// `*start` and returns its longest end, or -1 when there is none.
  ptrdiff_t NextMatch(size_t from, size_t* start) {
    for (size_t pos = from; pos <= text_.size(); ++pos) {
      if (pos > 0 && !match_[size_t(start_[0])]) {
        // Skip starts whose first byte leads straight to the dead state.
        // start_[0] keeps its id across a flush (see Reset).
        while (pos < text_.size() &&
               Next(start_[0], uint8_t(text_[pos])) == kDead) {
          ++pos;
        }
      }
      ptrdiff_t end = LongestMatch(pos);
      if (end >= 0) {
        *start = pos;
        return end;
      }
    }
    return -1;
  }

 private:
  static constexpr int kUnknown = -1;
  static constexpr size_t kCacheBytes = size_t(1) << 20;

  int Next(int s, uint8_t byte) {
    int t = trans_[size_t(s) * class_byte_.size() + re_.byte_class_[byte]];
    return t == kUnknown ? Compute(s, re_.byte_class_[byte]) : t;
  }

  // Fills in the transition of state `s` on byte class `cls`.
  int Compute(int s, int cls) {
    const uint8_t byte = class_byte_[size_t(cls)];
    std::vector<int> next;
    ++gen_;
    for (int pc : *pcs_[size_t(s)]) {
      const Inst& inst = re_.program_[size_t(pc)];
      if (inst.op == Op::kChar && re_.classes_[size_t(inst.x)].test(byte)) {
        AddClosure(pc + 1, /*at_begin=*/false, /*at_end=*/false, &next);
      }
    }
    std::sort(next.begin(), next.end());
    auto it = ids_.find(next);
    if (it != ids_.end()) {
      trans_[size_t(s) * class_byte_.size() + size_t(cls)] = it->second;
      return it->second;
    }
    if (bytes_ + StateBytes(next) > kCacheBytes) {
      Reset();  // `s` is gone; its transition is computed again if needed
      return Intern(std::move(next));
    }
    int t = Intern(std::move(next));
    trans_[size_t(s) * class_byte_.size() + size_t(cls)] = t;
    return t;
  }

  // At the end of the text '$' holds, so the pending kAssertEnd pcs may
  // lead on to a match; '^' holds there only when the text is empty.
  bool AcceptsAtEnd(int s) {
    if (match_[size_t(s)]) return true;
    std::vector<int> reached;
    ++gen_;
    for (int pc : *pcs_[size_t(s)]) {
      if (re_.program_[size_t(pc)].op == Op::kAssertEnd) {
        AddClosure(pc + 1, text_.empty(), /*at_end=*/true, &reached);
      }
    }
    return HoldsMatch(reached);
  }

  bool HoldsMatch(const std::vector<int>& pcs) const {
    for (int pc : pcs) {
      if (re_.program_[size_t(pc)].op == Op::kMatch) return true;
    }
    return false;
  }

  // Appends to `out` the kChar and kMatch pcs that the epsilon closure of
  // `pc` reaches, and its kAssertEnd pcs unless `at_end` lets them pass.
  // Skips pcs already marked in the current generation.
  void AddClosure(int pc, bool at_begin, bool at_end, std::vector<int>* out) {
    stack_.push_back(pc);
    while (!stack_.empty()) {
      int p = stack_.back();
      stack_.pop_back();
      if (mark_[size_t(p)] == gen_) continue;
      mark_[size_t(p)] = gen_;
      const Inst& inst = re_.program_[size_t(p)];
      switch (inst.op) {
        case Op::kJump:
          stack_.push_back(inst.x);
          break;
        case Op::kSplit:
          stack_.push_back(inst.y);
          stack_.push_back(inst.x);
          break;
        case Op::kAssertBegin:
          if (at_begin) stack_.push_back(p + 1);
          break;
        case Op::kAssertEnd:
          if (at_end) {
            stack_.push_back(p + 1);
          } else {
            out->push_back(p);
          }
          break;
        case Op::kChar:
        case Op::kMatch:
          out->push_back(p);
          break;
      }
    }
  }

  size_t StateBytes(const std::vector<int>& pcs) const {
    return 64 + pcs.size() * sizeof(int) + class_byte_.size() * sizeof(int);
  }

  int Intern(std::vector<int> pcs) {
    int id = int(pcs_.size());
    bytes_ += StateBytes(pcs);
    match_.push_back(HoldsMatch(pcs));
    auto [it, inserted] = ids_.emplace(std::move(pcs), id);
    DPDPU_CHECK(inserted);
    pcs_.push_back(&it->first);
    trans_.resize(trans_.size() + class_byte_.size(), kUnknown);
    return id;
  }

  // Empties the cache and interns the dead and start states again. They
  // are interned in the same order every time, so their ids never change.
  void Reset() {
    ids_.clear();
    pcs_.clear();
    match_.clear();
    trans_.clear();
    bytes_ = 0;
    Intern({});
    for (bool at_begin : {true, false}) {
      std::vector<int> pcs;
      ++gen_;
      AddClosure(0, at_begin, /*at_end=*/false, &pcs);
      std::sort(pcs.begin(), pcs.end());
      auto it = ids_.find(pcs);
      start_[at_begin] = it != ids_.end() ? it->second : Intern(std::move(pcs));
    }
  }

  const Regex& re_;
  std::string_view text_;
  std::vector<uint32_t> mark_;  // closure generation per pc
  uint32_t gen_ = 0;
  std::vector<int> stack_;
  std::vector<uint8_t> class_byte_;  // a representative byte per class
  std::map<std::vector<int>, int> ids_;
  std::vector<const std::vector<int>*> pcs_;  // per state: its key in ids_
  std::vector<uint8_t> match_;                // per state: holds kMatch
  std::vector<int> trans_;  // per state and byte class: kUnknown or a state
  size_t bytes_ = 0;
  std::array<int, 2> start_{};  // [at_begin]
};

bool Regex::FullMatch(std::string_view text) const {
  return Dfa(*this, text).LongestMatch(0) == ptrdiff_t(text.size());
}

bool Regex::PartialMatch(std::string_view text) const {
  size_t start = 0;
  return Dfa(*this, text).NextMatch(0, &start) >= 0;
}

size_t Regex::CountMatches(std::string_view text) const {
  Dfa dfa(*this, text);
  size_t count = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t start = 0;
    ptrdiff_t end = dfa.NextMatch(pos, &start);
    if (end < 0) break;
    ++count;
    // An empty match advances one byte.
    pos = size_t(end) > start ? size_t(end) : start + 1;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Pike VM reference.
// ---------------------------------------------------------------------------

void Regex::AddThread(std::vector<int>& list, std::vector<uint32_t>& mark,
                      uint32_t gen, int pc, size_t pos, size_t len) const {
  if (mark[pc] == gen) return;
  mark[pc] = gen;
  const Inst& inst = program_[pc];
  switch (inst.op) {
    case Op::kJump:
      AddThread(list, mark, gen, inst.x, pos, len);
      break;
    case Op::kSplit:
      AddThread(list, mark, gen, inst.x, pos, len);
      AddThread(list, mark, gen, inst.y, pos, len);
      break;
    case Op::kAssertBegin:
      if (pos == 0) AddThread(list, mark, gen, pc + 1, pos, len);
      break;
    case Op::kAssertEnd:
      if (pos == len) AddThread(list, mark, gen, pc + 1, pos, len);
      break;
    default:
      list.push_back(pc);
      break;
  }
}

ptrdiff_t Regex::VmLongestMatch(std::string_view text, size_t start) const {
  std::vector<int> current, next;
  std::vector<uint32_t> mark(program_.size(), 0);
  uint32_t gen = 1;
  ptrdiff_t best_end = -1;

  AddThread(current, mark, gen, 0, start, text.size());
  for (size_t pos = start;; ++pos) {
    // Check for match threads at this position.
    for (int pc : current) {
      if (program_[pc].op == Op::kMatch) {
        best_end = static_cast<ptrdiff_t>(pos);
      }
    }
    if (pos >= text.size() || current.empty()) break;
    uint8_t c = static_cast<uint8_t>(text[pos]);
    ++gen;
    next.clear();
    for (int pc : current) {
      const Inst& inst = program_[pc];
      if (inst.op == Op::kChar && classes_[inst.x].test(c)) {
        AddThread(next, mark, gen, pc + 1, pos + 1, text.size());
      }
    }
    std::swap(current, next);
  }
  return best_end;
}

}  // namespace dpdpu::kern
