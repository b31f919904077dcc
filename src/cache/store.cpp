#include "cache/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cache/key.hpp"

namespace javaflow::cache {

namespace fs = std::filesystem;

namespace {

// A record's path relative to <dir>/v1: "<2 hex>/<32 hex>.jfc", NUL
// terminated, formatted without touching the heap.
struct RecordName {
  char text[2 + 1 + 32 + 4 + 1];

  explicit RecordName(const Hash128& key) noexcept {
    to_hex(key, text + 3);
    text[0] = text[3];
    text[1] = text[4];
    text[2] = '/';
    std::memcpy(text + 35, ".jfc", 5);  // with the terminator
  }
};

// Reads the whole file behind `fd` into the calling thread's buffer and
// closes `fd`. The view stays valid until the thread's next call.
// Nullopt when the file is not a regular file of at most
// kMaxRecordBytes, or when fstat or the one read fails or comes back
// short.
std::optional<std::string_view> read_record_file(int fd) {
  thread_local std::vector<char> buffer;
  std::optional<std::string_view> bytes;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
      static_cast<std::uintmax_t>(st.st_size) <= kMaxRecordBytes) {
    const auto size = static_cast<std::size_t>(st.st_size);
    if (buffer.size() < size) buffer.resize(size);
    if (::read(fd, buffer.data(), size) == static_cast<ssize_t>(size)) {
      bytes.emplace(buffer.data(), size);
    }
  }
  ::close(fd);
  return bytes;
}

// Writes all of `bytes` to `fd`, resuming after partial writes.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::string_view cache_mode_name(CacheMode m) noexcept {
  switch (m) {
    case CacheMode::Off: return "off";
    case CacheMode::Read: return "read";
    case CacheMode::ReadWrite: return "readwrite";
  }
  return "?";
}

std::optional<CacheMode> cache_mode_from_name(
    std::string_view name) noexcept {
  if (name == "off") return CacheMode::Off;
  if (name == "read") return CacheMode::Read;
  if (name == "readwrite") return CacheMode::ReadWrite;
  return std::nullopt;
}

std::string resolve_cache_dir(const std::string& requested) {
  if (!requested.empty()) return requested;
  if (const char* env = std::getenv("JAVAFLOW_CACHE_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME");
      xdg != nullptr && *xdg != '\0') {
    return std::string(xdg) + "/javaflow";
  }
  if (const char* home = std::getenv("HOME");
      home != nullptr && *home != '\0') {
    return std::string(home) + "/.cache/javaflow";
  }
  return ".javaflow-cache";
}

std::string CacheStore::path_for(const Hash128& key) const {
  return root_ + RecordName(key).text;
}

bool CacheStore::load(const Hash128& key, std::uint32_t fingerprint,
                      MethodRecord& out) const {
  // O_NONBLOCK: a FIFO at a record's path must not stall the open; on a
  // regular file it changes nothing.
  const int fd =
      ::open(path_for(key).c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) return false;
  const std::optional<std::string_view> bytes = read_record_file(fd);
  return bytes.has_value() && deserialize_record(*bytes, fingerprint, out);
}

bool CacheStore::save(const Hash128& key, const MethodRecord& record) const {
  const std::string path = path_for(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return false;

  // The temp name carries the process and the thread, so no two live
  // writers — lanes of one sweep or processes sharing the directory —
  // ever write one file; O_TRUNC reuses a temp file a killed writer left
  // behind. rename is atomic within the directory, so readers see
  // either the old or the new record.
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, ".tmp.%ld.%zx",
                static_cast<long>(::getpid()),
                std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const std::string tmp = path + suffix;
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  const bool written = write_all(fd, serialize_record(record));
  if (::close(fd) != 0 || !written ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

bool CacheStore::remove(const Hash128& key) const {
  std::error_code ec;
  return fs::remove(path_for(key), ec) && !ec;
}

void CacheStore::walk(
    std::uint32_t fingerprint,
    const std::function<void(const WalkEntry&)>& visit) const {
  std::error_code ec;
  const fs::path root = root_;
  if (!fs::is_directory(root, ec)) return;
  std::vector<std::pair<std::string, std::uintmax_t>> files;  // path, size
  for (fs::recursive_directory_iterator it(root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".jfc") {
      std::error_code size_ec;
      const std::uintmax_t bytes = it->file_size(size_ec);
      files.emplace_back(it->path().string(), size_ec ? 0 : bytes);
    }
  }
  std::sort(files.begin(), files.end());
  for (auto& [path, bytes] : files) {
    WalkEntry entry;
    entry.path = std::move(path);
    entry.bytes = bytes;
    const int fd =
        ::open(entry.path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd >= 0) {
      const std::optional<std::string_view> data = read_record_file(fd);
      if (data.has_value() &&
          deserialize_record_any_fingerprint(*data, entry.record)) {
        entry.valid = true;
        entry.current = entry.record.fingerprint == fingerprint;
      }
    }
    visit(entry);
  }
}

CacheStore::Stats CacheStore::stats(std::uint32_t fingerprint) const {
  Stats s;
  walk(fingerprint, [&s](const WalkEntry& e) {
    ++s.files;
    s.bytes += e.bytes;
    if (!e.valid) {
      ++s.corrupt_files;
    } else if (!e.current) {
      ++s.stale_files;
    } else {
      s.cells += e.record.cells.size();
    }
  });
  return s;
}

std::uintmax_t CacheStore::prune(std::uint32_t fingerprint) const {
  std::uintmax_t removed = 0;
  walk(fingerprint, [&removed](const WalkEntry& e) {
    if (e.valid && e.current) return;
    std::error_code ec;
    if (fs::remove(e.path, ec) && !ec) ++removed;
  });
  return removed;
}

std::uintmax_t CacheStore::invalidate(
    const std::string& method_substr) const {
  std::uintmax_t removed = 0;
  walk(record_fingerprint(), [&](const WalkEntry& e) {
    const bool match =
        method_substr.empty() ||
        (e.valid &&
         e.record.method_name.find(method_substr) != std::string::npos);
    if (!match) return;
    std::error_code ec;
    if (fs::remove(e.path, ec) && !ec) ++removed;
  });
  return removed;
}

}  // namespace javaflow::cache
