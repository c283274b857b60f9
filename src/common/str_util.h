#ifndef XNF_COMMON_STR_UTIL_H_
#define XNF_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace xnf {

// ASCII lowercase copy. Identifiers in SQL/XNF are case-insensitive; the
// engine canonicalizes them through this.
std::string ToLower(const std::string& s);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

// SQL LIKE pattern match: '%' matches any run, '_' matches one char.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace xnf

#endif  // XNF_COMMON_STR_UTIL_H_
