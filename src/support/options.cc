#include "src/support/options.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/support/text.h"

namespace opec_support {

bool ParseCount(const char* s, long min, long max, int* out) {
  // strtol would skip leading whitespace and accept signs: require a digit.
  if (s == nullptr || *s < '0' || *s > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(s, &end, 10);
  if (errno != 0 || *end != '\0' || v < min || v > max) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}

OptionTable& OptionTable::Add(const char* name, decltype(Entry::target) target,
                              const char* help) {
  entries_.push_back(Entry{name, std::move(target), help});
  return *this;
}

OptionTable& OptionTable::Count(const char* name, int* target, long min, long max,
                                const char* help) {
  return Add(name, CountTarget{target, min, max}, help);
}

OptionTable& OptionTable::U64(const char* name, uint64_t* target, const char* help) {
  return Add(name, target, help);
}

OptionTable& OptionTable::String(const char* name, std::string* target, const char* help) {
  return Add(name, target, help);
}

OptionTable& OptionTable::Enum(const char* name, std::string* target,
                               std::vector<std::string> choices, const char* help) {
  return Add(name, EnumTarget{target, std::move(choices)}, help);
}

OptionTable& OptionTable::Bool(const char* name, bool* target, const char* help) {
  return Add(name, target, help);
}

std::string OptionTable::Assign(Entry& entry, const std::string& value) const {
  std::string bad = "invalid --" + entry.name + " '" + value + "'; ";
  if (const CountTarget* c = std::get_if<CountTarget>(&entry.target)) {
    if (!ParseCount(value.c_str(), c->min, c->max, c->target)) {
      return bad + StrPrintf("expected an integer in [%ld, %ld]", c->min, c->max);
    }
  } else if (uint64_t* const* u = std::get_if<uint64_t*>(&entry.target)) {
    if (!ParseU64(value.c_str(), *u)) {
      return bad + "expected an unsigned 64-bit integer";
    }
  } else if (std::string* const* s = std::get_if<std::string*>(&entry.target)) {
    if (value.empty()) {
      return "invalid --" + entry.name + ": expected a non-empty value";
    }
    **s = value;
  } else if (const EnumTarget* e = std::get_if<EnumTarget>(&entry.target)) {
    for (const std::string& choice : e->choices) {
      if (value == choice) {
        *e->target = value;
        return "";
      }
    }
    return bad + "expected one of: " + Join(e->choices, " ");
  }
  return "";
}

std::string OptionTable::TryParse(const std::vector<std::string>& args) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return "unexpected argument '" + arg + "'";
    }
    size_t eq = arg.find('=');
    std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    size_t at = Find(name);
    if (at == entries_.size()) {
      return "unknown flag '--" + name + "'";
    }
    Entry& entry = entries_[at];
    entry.seen = true;
    if (bool* const* flag = std::get_if<bool*>(&entry.target)) {
      if (eq != std::string::npos) {
        return "--" + name + " takes no value";
      }
      **flag = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return "missing value for --" + name;
    }
    std::string err = Assign(entry, value);
    if (!err.empty()) {
      return err;
    }
  }
  return "";
}

bool OptionTable::Parse(int argc, char** argv) {
  std::string err = TryParse(std::vector<std::string>(argv + 1, argv + argc));
  if (!err.empty()) {
    Fail(err);
    return false;
  }
  return true;
}

size_t OptionTable::Find(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) {
      return i;
    }
  }
  return entries_.size();
}

bool OptionTable::Seen(const char* name) const {
  size_t at = Find(name);
  return at < entries_.size() && entries_[at].seen;
}

std::string OptionTable::Usage() const {
  std::vector<std::string> heads;
  size_t width = 0;
  for (const Entry& e : entries_) {
    std::string head = "--" + e.name;
    if (const EnumTarget* en = std::get_if<EnumTarget>(&e.target)) {
      head += " " + Join(en->choices, "|");
    } else if (std::holds_alternative<std::string*>(e.target)) {
      head += " VALUE";
    } else if (!std::holds_alternative<bool*>(e.target)) {
      head += " N";
    }
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }
  // Long heads (enum choice lists) get their help on the next line.
  width = std::min<size_t>(width, 28);
  std::string out = "usage: " + program_ + " [flags]\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const char* sep = heads[i].size() > width ? "\n    " : "";
    out += StrPrintf("  %-*s%s  %s\n", static_cast<int>(width), heads[i].c_str(), sep,
                     entries_[i].help.c_str());
  }
  return out;
}

int OptionTable::Fail(const std::string& reason) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), reason.c_str(), Usage().c_str());
  return 2;
}

}  // namespace opec_support
