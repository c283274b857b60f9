#include "common/str_util.h"

#include <cctype>

namespace xnf {

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

namespace {

bool LikeMatchImpl(const char* t, const char* te, const char* p,
                   const char* pe) {
  while (p != pe) {
    if (*p == '%') {
      // Collapse consecutive '%'.
      while (p != pe && *p == '%') ++p;
      if (p == pe) return true;
      for (const char* s = t; s <= te; ++s) {
        if (LikeMatchImpl(s, te, p, pe)) return true;
      }
      return false;
    }
    if (t == te) return false;
    if (*p != '_' && *p != *t) return false;
    ++p;
    ++t;
  }
  return t == te;
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  return LikeMatchImpl(text.data(), text.data() + text.size(), pattern.data(),
                       pattern.data() + pattern.size());
}

}  // namespace xnf
