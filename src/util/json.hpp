// JSON string escaping for every JSON writer in the tree (lint reports,
// sweep and serving reports, snapshot diffs, Chrome traces).
//
// Writes the body of a JSON string literal, without the surrounding
// quotes: `"` and `\` are backslash-escaped, newline and tab use their
// short forms, and every other control byte below 0x20 becomes \u00XX,
// so no raw control byte ever reaches the output. Bytes from 0x20 up
// pass through unchanged (UTF-8 stays UTF-8).
#pragma once

#include <cstdio>
#include <ostream>
#include <string_view>

namespace javaflow::util {

inline void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace javaflow::util
