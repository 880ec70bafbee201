// Regular expression DP kernel: a self-contained engine with no
// backtracking. A pattern compiles to a Thompson program (an NFA), which a
// lazily built DFA executes: DFA states are sets of program positions,
// created the first time the text reaches them (Cox, "Regular Expression
// Matching Can Be Simple And Fast"; the RE2 design). A run from one start
// position is linear in the text it reads. A Pike VM over the same program
// is kept as the reference the DFA is tested against. Models the
// BlueField-2 RegEx accelerator's workload; the same code runs when the
// kernel is placed on a CPU.
//
// Supported syntax: literals, '.', escapes (\d \D \w \W \s \S \n \t \r and
// escaped metacharacters), character classes [a-z0-9] and [^...],
// alternation '|', groups '(...)', quantifiers '*' '+' '?' '{m}' '{m,}'
// '{m,n}', anchors '^' and '$'.

#ifndef DPDPU_KERN_REGEX_H_
#define DPDPU_KERN_REGEX_H_

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dpdpu::kern {

class Regex {
 public:
  /// The most instructions a compiled program may hold. '{m,n}'
  /// compiles by copying its operand, so nested repeats multiply: a
  /// 16-byte pattern such as a{100}{100}{100} would ask for a million.
  static constexpr size_t kMaxInstructions = 100000;

  /// Compiles `pattern`; fails with InvalidArgument on syntax errors and
  /// on a pattern whose program would exceed kMaxInstructions. The size
  /// is checked before each '{m,n}' copies its operand, so a rejection
  /// stays cheap.
  static Result<Regex> Compile(std::string_view pattern);

  /// True when the entire text matches the pattern.
  bool FullMatch(std::string_view text) const;

  /// True when any substring matches ("search" semantics).
  bool PartialMatch(std::string_view text) const;

  /// Number of non-overlapping matches, scanning greedily left to right
  /// (each match takes the longest extent from its start position).
  size_t CountMatches(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }
  size_t instruction_count() const { return program_.size(); }

  /// Reference for the three methods above: the end of the longest match
  /// that starts at `start`, or -1 when there is none, found by a Pike VM
  /// that steps every NFA thread in lockstep. Tests hold the DFA to it,
  /// as Crc32 is held to Crc32UpdateBytewise.
  ptrdiff_t VmLongestMatch(std::string_view text, size_t start) const;

 private:
  enum class Op : uint8_t { kChar, kSplit, kJump, kAssertBegin, kAssertEnd,
                            kMatch };

  struct Inst {
    Op op;
    int x = 0;  // kChar: class index; kSplit/kJump: target
    int y = 0;  // kSplit: second target
  };

  class Dfa;  // one call's lazily built DFA (regex.cc)

  Regex() = default;

  // Pike-VM step machinery.
  void AddThread(std::vector<int>& list, std::vector<uint32_t>& mark,
                 uint32_t gen, int pc, size_t pos, size_t len) const;

  std::string pattern_;
  std::vector<Inst> program_;
  std::vector<std::bitset<256>> classes_;
  // Bytes that every class treats alike share a byte class; DFA
  // transitions are kept per byte class instead of per byte.
  std::array<uint8_t, 256> byte_class_{};
  int num_byte_classes_ = 1;
};

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_REGEX_H_
