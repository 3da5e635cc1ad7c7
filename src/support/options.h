// One declarative option table for every command-line front end.
//
// Each entry is a name, a kind, a target and a help string. Parsing follows
// one contract for every CLI: `--flag value` and `--flag=value` are both
// accepted, numbers are parsed strictly over the full string (no sign, no
// whitespace, no trailing junk, no overflow), strings must be non-empty, enum
// values must be one of the listed choices, and bool flags take no value.
// The first violation stops the parse with a one-line reason; CLIs print it
// with the generated usage text and exit 2.

#ifndef SRC_SUPPORT_OPTIONS_H_
#define SRC_SUPPORT_OPTIONS_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace opec_support {

// Decimal integer in [min, max] spanning the whole string; false (and *out
// untouched) on anything else: empty, sign, whitespace, junk, overflow or out
// of range.
bool ParseCount(const char* s, long min, long max, int* out);
// Unsigned 64-bit decimal spanning the whole string, same strictness.
bool ParseU64(const char* s, uint64_t* out);
// "a,b,c" -> {"a", "b", "c"}; empty fields are kept.
std::vector<std::string> SplitCommas(const std::string& s);

class OptionTable {
 public:
  explicit OptionTable(std::string program) : program_(std::move(program)) {}

  // Entry builders. `name` is given without the leading dashes.
  OptionTable& Count(const char* name, int* target, long min, long max, const char* help);
  OptionTable& U64(const char* name, uint64_t* target, const char* help);
  OptionTable& String(const char* name, std::string* target, const char* help);
  OptionTable& Enum(const char* name, std::string* target, std::vector<std::string> choices,
                    const char* help);
  OptionTable& Bool(const char* name, bool* target, const char* help);

  // Parses argv[1..argc). On failure prints "<program>: <reason>" and the
  // usage text to stderr and returns false.
  bool Parse(int argc, char** argv);
  // The same parse over plain arguments (argv without the program name);
  // returns "" on success, else the reason.
  std::string TryParse(const std::vector<std::string>& args);

  // True when the flag appeared on the command line.
  bool Seen(const char* name) const;
  std::string Usage() const;
  // Prints "<program>: <reason>" and the usage text to stderr; returns 2, the
  // usage-error exit status, so a CLI can `return options.Fail(...)`.
  int Fail(const std::string& reason) const;

 private:
  struct CountTarget {
    int* target;
    long min;
    long max;
  };
  struct EnumTarget {
    std::string* target;
    std::vector<std::string> choices;
  };
  struct Entry {
    std::string name;
    std::variant<CountTarget, uint64_t*, std::string*, EnumTarget, bool*> target;
    std::string help;
    bool seen = false;
  };

  OptionTable& Add(const char* name, decltype(Entry::target) target, const char* help);
  // Index of the entry named `name`, or entries_.size().
  size_t Find(const std::string& name) const;
  std::string Assign(Entry& entry, const std::string& value) const;

  std::string program_;
  std::vector<Entry> entries_;
};

}  // namespace opec_support

#endif  // SRC_SUPPORT_OPTIONS_H_
