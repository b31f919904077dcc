#include "cache/store.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cache/key.hpp"

namespace javaflow::cache {

namespace fs = std::filesystem;

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
  const std::string hex = to_hex(key);
  std::string path = dir_;
  path += "/v1/";
  path += hex.substr(0, 2);
  path += '/';
  path += hex;
  path += ".jfc";
  return path;
}

bool CacheStore::load(const Hash128& key, std::uint32_t fingerprint,
                      MethodRecord& out) const {
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  return deserialize_record(buf.view(), fingerprint, out);
}

bool CacheStore::save(const Hash128& key, const MethodRecord& record) const {
  const std::string path = path_for(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return false;

  // Unique temp name per thread so parallel lanes storing different
  // records in the same shard never collide; rename is atomic within
  // the directory, so readers see either the old or the new record.
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << std::this_thread::get_id();
  const std::string tmp = tmp_name.str();
  {
    std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
    if (!outf.is_open()) return false;
    const std::string bytes = serialize_record(record);
    outf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!outf.good()) {
      outf.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
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
  const fs::path root = fs::path(dir_) / "v1";
  if (!fs::is_directory(root, ec)) return;
  std::vector<std::string> paths;
  for (fs::recursive_directory_iterator it(root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".jfc") {
      paths.push_back(it->path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    WalkEntry entry;
    entry.path = path;
    entry.bytes = fs::file_size(path, ec);
    if (ec) entry.bytes = 0;
    std::ifstream in(path, std::ios::binary);
    if (in.is_open()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (!in.bad() &&
          deserialize_record_any_fingerprint(buf.view(), entry.record)) {
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
