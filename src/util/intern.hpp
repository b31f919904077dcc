// Interned strings for hot result paths (docs/PERF.md "Execution
// kernel", satellite work). A sweep stamps every sample with its method
// and benchmark names; at stride 1 that is tens of thousands of
// std::string copies of the same few hundred distinct names, almost all
// past the small-string capacity. An InternedString is a shared handle
// to one immutable std::string, so stamping a sample is a refcount
// bump, and equal handles short-circuit comparisons by pointer.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

namespace javaflow::util {

// Value-semantic handle to an immutable shared string. Implicitly
// convertible to `const std::string&`, so existing consumers (map keys,
// string assignment, json escaping) keep working unchanged; explicit
// comparison operators cover the sites where template argument
// deduction would not consider the conversion.
class InternedString {
 public:
  InternedString() = default;
  // Implicit on purpose: `sample.method = m.name` still compiles (it
  // allocates, like the plain-string field used to). Hot paths intern
  // through an Interner instead.
  InternedString(std::string s)
      : ptr_(std::make_shared<const std::string>(std::move(s))) {}
  InternedString(const char* s) : InternedString(std::string(s)) {}

  const std::string& str() const noexcept {
    return ptr_ != nullptr ? *ptr_ : empty_string();
  }
  operator const std::string&() const noexcept { return str(); }
  const char* c_str() const noexcept { return str().c_str(); }
  bool empty() const noexcept { return str().empty(); }
  std::size_t size() const noexcept { return str().size(); }
  std::size_t find(std::string_view needle, std::size_t pos = 0) const {
    return str().find(needle, pos);
  }

  friend bool operator==(const InternedString& a, const InternedString& b) {
    return a.ptr_ == b.ptr_ || a.str() == b.str();
  }
  friend bool operator==(const InternedString& a, const std::string& b) {
    return a.str() == b;
  }
  friend bool operator==(const std::string& a, const InternedString& b) {
    return a == b.str();
  }
  friend bool operator==(const InternedString& a, const char* b) {
    return a.str() == b;
  }
  friend bool operator==(const char* a, const InternedString& b) {
    return a == b.str();
  }
  friend bool operator<(const InternedString& a, const InternedString& b) {
    return a.ptr_ != b.ptr_ && a.str() < b.str();
  }
  friend std::ostream& operator<<(std::ostream& os,
                                  const InternedString& s) {
    return os << s.str();
  }

 private:
  static const std::string& empty_string() noexcept {
    static const std::string kEmpty;
    return kEmpty;
  }
  std::shared_ptr<const std::string> ptr_;
};

// Deduplicating factory. NOT thread-safe — give each worker lane its
// own (a sweep method runs wholly on one lane, so per-lane interners
// never see the same name twice anyway).
class Interner {
 public:
  const InternedString& get(const std::string& s) {
    const auto it = map_.find(s);
    if (it != map_.end()) return it->second;
    return map_.emplace(s, InternedString(s)).first->second;
  }

 private:
  std::unordered_map<std::string, InternedString> map_;
};

}  // namespace javaflow::util
